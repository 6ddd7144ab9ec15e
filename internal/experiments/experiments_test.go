package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"tagsim/internal/population"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// The wild campaign is expensive; run it once and share across tests.
var (
	campaignOnce sync.Once
	testCampaign *Campaign
)

func getCampaign(t *testing.T) *Campaign {
	t.Helper()
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	campaignOnce.Do(func() {
		testCampaign = NewCampaign(Options{Seed: 7, Scale: 0.15, DevicesPerCity: 400})
	})
	return testCampaign
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(3)
	// SmartTag hotter at 0 and 10 m, parity at 20 m (Figure 2).
	gap0 := r.Median(trace.VendorSamsung, 0) - r.Median(trace.VendorApple, 0)
	gap10 := r.Median(trace.VendorSamsung, 10) - r.Median(trace.VendorApple, 10)
	gap20 := math.Abs(r.Median(trace.VendorSamsung, 20) - r.Median(trace.VendorApple, 20))
	if gap0 < 5 || gap0 > 15 {
		t.Errorf("0 m gap = %.1f", gap0)
	}
	if gap10 < 5 || gap10 > 16 {
		t.Errorf("10 m gap = %.1f", gap10)
	}
	if gap20 > 6 {
		t.Errorf("20 m gap = %.1f", gap20)
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Error("render missing title")
	}
}

// TestFiguresFromOneCafeteriaRun: rendering Figures 3 and 4 from one
// shared cafeteria run, as ReproduceAll and tagrepro do, gives the
// bytes Figure3 and Figure4 give when each simulates the deployment.
func TestFiguresFromOneCafeteriaRun(t *testing.T) {
	caf := scenario.RunCafeteria(scenario.CafeteriaConfig{Seed: 3, Days: 2})
	if got, want := Figure3From(caf).Render(), Figure3(3, 2).Render(); got != want {
		t.Errorf("Figure3From differs from Figure3:\n%s\nvs\n%s", got, want)
	}
	if got, want := Figure4From(caf).Render(), Figure4(3, 2).Render(); got != want {
		t.Errorf("Figure4From differs from Figure4:\n%s\nvs\n%s", got, want)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3(5, 2)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Both tags peak in the 15-20/h plateau; rates dip to zero overnight.
	if p := r.Peak(trace.VendorApple); p < 10 || p > 22 {
		t.Errorf("AirTag peak rate = %.1f", p)
	}
	if p := r.Peak(trace.VendorSamsung); p < 10 || p > 22 {
		t.Errorf("SmartTag peak rate = %.1f", p)
	}
	var lunchApple, lunchSamsung float64
	for _, row := range r.Rows {
		if row.Hour == 13 {
			lunchApple, lunchSamsung = row.AppleCount, row.SamsungCnt
		}
		if row.Hour == 4 && (row.AirTagRate > 0 || row.SmartRate > 0) {
			t.Error("updates while the cafeteria is closed")
		}
	}
	// ~6x more Apple devices at peak.
	if ratio := lunchApple / math.Max(lunchSamsung, 1); ratio < 4 || ratio > 9 {
		t.Errorf("peak Apple/Samsung device ratio = %.1f, want ~6", ratio)
	}
	if !strings.Contains(r.Render(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure4Shape(t *testing.T) {
	r := Figure4(9, 3)
	if len(r.Apple) == 0 || len(r.Samsung) == 0 {
		t.Fatal("missing buckets")
	}
	// Samsung device counts never reach the Apple range (the paper never
	// saw more than ~80 Samsung phones in an hour).
	if mx := r.MaxSamsungBucket(); mx > 100 {
		t.Errorf("Samsung bucket reaches %d devices", mx)
	}
	// Aggressive vs conservative: in the low-device regime Samsung's
	// rate clearly exceeds Apple's.
	sLow, okS := r.SamsungRateAt(8)
	aLow, okA := r.AppleRateAt(8)
	if okS && okA && sLow < aLow {
		t.Errorf("low-density rates: samsung %.1f < apple %.1f", sLow, aLow)
	}
	// Samsung plateaus by ~21-40 devices.
	if rate, ok := r.SamsungRateAt(35); ok && (rate < 11 || rate > 21) {
		t.Errorf("Samsung rate at ~35 devices = %.1f, want plateau 12-20", rate)
	}
	// Apple converges only with hundreds of devices.
	if rate, ok := r.AppleRateAt(250); ok && (rate < 12 || rate > 21) {
		t.Errorf("Apple rate at ~250 devices = %.1f, want plateau", rate)
	}
	if rate, ok := r.AppleRateAt(15); ok && rate > 12 {
		t.Errorf("Apple rate at ~15 devices = %.1f, should be well below the plateau", rate)
	}
}

func TestBattery(t *testing.T) {
	r := Battery()
	if r.Ratio < 1.1 || r.Ratio > 1.3 {
		t.Errorf("battery ratio = %.2f, want ~1.2", r.Ratio)
	}
	for _, row := range r.Rows {
		if row.LifeDays < 240 || row.LifeDays > 500 {
			t.Errorf("%s life = %.0f days, want ~1 year", row.Tag, row.LifeDays)
		}
	}
	if !strings.Contains(r.Render(), "Battery") {
		t.Error("render missing title")
	}
}

func TestTable1Campaign(t *testing.T) {
	c := getCampaign(t)
	r := Table1(c)
	if len(r.Rows) != 6 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	if r.Total.Cities != 20 {
		t.Errorf("cities = %d", r.Total.Cities)
	}
	// Every country produced Now reports, Apple far more than Samsung
	// overall (Table 1: 21,081 vs 3,595).
	for _, row := range r.Rows {
		if row.AppleNow == 0 {
			t.Errorf("%s: zero Apple reports", row.Country)
		}
	}
	if r.Total.AppleNow <= r.Total.SamsungNow {
		t.Errorf("Apple Now (%d) should exceed Samsung (%d)", r.Total.AppleNow, r.Total.SamsungNow)
	}
	if !strings.Contains(r.Render(), "Tot.") {
		t.Error("render missing totals row")
	}
}

func TestFigure5SweepShapes(t *testing.T) {
	c := getCampaign(t)
	for _, radius := range []float64{10, 25, 100} {
		r := Figure5Sweep(c, radius)
		// Monotone non-decreasing in responsiveness for each vendor
		// (tolerate small sampling dips).
		for _, v := range Vendors {
			prev := -1.0
			for _, m := range SweepMinutes {
				acc := r.Acc(v, m)
				if acc < prev-8 {
					t.Errorf("radius %.0f %v: accuracy dropped %.1f -> %.1f at %d min", radius, v, prev, acc, m)
				}
				if acc > prev {
					prev = acc
				}
			}
		}
		// Combined >= each individual at the 25-minute point.
		comb := r.Acc(trace.VendorCombined, 25)
		if comb+3 < r.Acc(trace.VendorApple, 25) || comb+3 < r.Acc(trace.VendorSamsung, 25) {
			t.Errorf("radius %.0f: combined (%.1f) below an individual ecosystem", radius, comb)
		}
	}
	// 1 minute is too fast for 10 m: accuracy tiny; 100 m notably higher.
	r10 := Figure5Sweep(c, 10)
	r100 := Figure5Sweep(c, 100)
	if a := r10.Acc(trace.VendorCombined, 1); a > 15 {
		t.Errorf("10 m @ 1 min = %.1f%%, should be tiny", a)
	}
	if r100.Acc(trace.VendorCombined, 120) < 40 {
		t.Errorf("100 m @ 120 min = %.1f%%, want substantial", r100.Acc(trace.VendorCombined, 120))
	}
	if r100.Acc(trace.VendorCombined, 120) <= r10.Acc(trace.VendorCombined, 1) {
		t.Error("responsiveness/radius relaxation must improve accuracy")
	}
}

func TestFigure5dMobility(t *testing.T) {
	c := getCampaign(t)
	r := Figure5d(c)
	ped := r.Mean("Pedestrian", 100)
	transit := r.Mean("Transit", 100)
	if math.IsNaN(ped) || math.IsNaN(transit) {
		t.Fatalf("missing classes: %+v", r.Bars)
	}
	// Pedestrian beats transit (Figure 5d).
	if ped <= transit {
		t.Errorf("pedestrian %.1f <= transit %.1f", ped, transit)
	}
	if !strings.Contains(r.Render(), "Pedestrian") {
		t.Error("render missing classes")
	}
}

func TestFigure5eDayPeriods(t *testing.T) {
	c := getCampaign(t)
	r := Figure5e(c)
	// Night accuracy below the daytime periods (Figure 5e).
	night := r.Mean("Night", 100)
	lunch := r.Mean("Lunch", 100)
	if !math.IsNaN(night) && !math.IsNaN(lunch) && night > lunch {
		t.Errorf("night %.1f > lunch %.1f", night, lunch)
	}
}

func TestFigure5fWeekend(t *testing.T) {
	c := getCampaign(t)
	r := Figure5f(c)
	wd := r.Mean(string("Weekday"), 100)
	we := r.Mean(string("Weekend"), 100)
	if math.IsNaN(wd) || math.IsNaN(we) {
		t.Fatal("missing classes")
	}
	// Weekend >= weekday (Figure 5f).
	if we+5 < wd {
		t.Errorf("weekend %.1f clearly below weekday %.1f", we, wd)
	}
}

func TestFigure6Hexagons(t *testing.T) {
	c := getCampaign(t)
	r := Figure6(c, "AE")
	if len(r.Visits) == 0 {
		t.Fatal("no hexagon visits in AE")
	}
	total := 0
	for _, cells := range r.CellsByClass {
		total += len(cells)
	}
	if total == 0 {
		t.Fatal("no classified cells")
	}
	if r.Map == "" || !strings.Contains(r.Render(), "hexagons") {
		t.Error("render incomplete")
	}
	// Unknown country yields an empty result, not a panic.
	if e := Figure6(c, "ZZ"); len(e.Visits) != 0 {
		t.Error("unknown country should be empty")
	}
}

func TestFigure7DensityCDF(t *testing.T) {
	c := getCampaign(t)
	r := Figure7(c)
	if len(r.Classes) != 9 { // 3 vendors x 3 classes
		t.Fatalf("%d classes", len(r.Classes))
	}
	// Combined strata exist and zero-accuracy probability is bounded.
	for _, cls := range []population.DensityClass{population.DensityLow, population.DensityHigh} {
		fc, ok := r.Class(trace.VendorCombined, cls)
		if !ok {
			t.Fatalf("missing combined %v stratum", cls)
		}
		if fc.Cells == 0 {
			t.Errorf("no cells in combined %v stratum", cls)
		}
	}
	if !strings.Contains(r.Render(), "Figure 7") {
		t.Error("render missing title")
	}
}

func TestFigure8Shape(t *testing.T) {
	c := getCampaign(t)
	r := Figure8(c)
	// Accuracy grows with radius within each window.
	for _, w := range r.Windows {
		if r.Acc[w][10] > r.Acc[w][100]+5 {
			t.Errorf("window %v: 10 m (%.1f) above 100 m (%.1f)", w, r.Acc[w][10], r.Acc[w][100])
		}
	}
	// And grows with the window at a fixed radius.
	if r.Acc[r.Windows[0]][100] > r.Acc[r.Windows[len(r.Windows)-1]][100] {
		t.Error("longer windows should not hurt accuracy")
	}
	if !strings.Contains(r.Render(), "Figure 8") {
		t.Error("render missing title")
	}
}

func TestHeadline(t *testing.T) {
	c := getCampaign(t)
	r := Headline(c)
	if r.Acc10Min100M <= 0 || r.Acc10Min100M > 100 {
		t.Errorf("10min/100m accuracy = %.1f", r.Acc10Min100M)
	}
	if r.Episodes == 0 {
		t.Error("no episodes found")
	}
	if r.BacktrackFrac1h10m < 0 || r.BacktrackFrac1h10m > 1 {
		t.Errorf("backtrack fraction = %v", r.BacktrackFrac1h10m)
	}
	if r.HomeFilteredFrac <= 0.2 || r.HomeFilteredFrac >= 0.95 {
		t.Errorf("home filter removed %.0f%%, paper says ~65%%", r.HomeFilteredFrac*100)
	}
	if !strings.Contains(r.Render(), "Headline") {
		t.Error("render missing title")
	}
}

// TestCampaignRenderAll exercises every renderer on the shared campaign
// (catching formatting panics).
func TestCampaignRenderAll(t *testing.T) {
	c := getCampaign(t)
	outputs := []string{
		Table1(c).Render(),
		Figure5Sweep(c, 10).Render(),
		Figure5d(c).Render(),
		Figure5e(c).Render(),
		Figure5f(c).Render(),
		Figure6(c, "AE").Render(),
		Figure7(c).Render(),
		Figure8(c).Render(),
		Headline(c).Render(),
	}
	for i, out := range outputs {
		if len(out) < 20 {
			t.Errorf("output %d suspiciously short: %q", i, out)
		}
	}
}
