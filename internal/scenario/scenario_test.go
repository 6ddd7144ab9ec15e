package scenario

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/stats"
	"tagsim/internal/trace"
)

func TestTable1Constants(t *testing.T) {
	countries := Table1Countries()
	if len(countries) != 6 {
		t.Fatalf("%d countries, want 6", len(countries))
	}
	cities, days, km := 0, 0, 0.0
	for _, c := range countries {
		cities += c.Cities
		days += c.Days
		km += c.WalkKm + c.JogKm + c.TransitKm
		if c.AppleShare+c.SamsungShare >= 1 {
			t.Errorf("%s: vendor shares %.2f+%.2f leave no room for other devices", c.Code, c.AppleShare, c.SamsungShare)
		}
	}
	if cities != 20 {
		t.Errorf("total cities = %d, want 20 (Table 1)", cities)
	}
	if days != 120 {
		t.Errorf("total days = %d, want 120 (Table 1)", days)
	}
	// Table 1 totals: 388 + 317 + 8673 = 9378 km. The per-country rows
	// sum to 9380 because the paper's columns are rounded; accept both.
	if math.Abs(km-9378) > 5 {
		t.Errorf("total km = %.0f, want ~9378 (Table 1)", km)
	}
}

func TestSecludedRSSIFigure2Shape(t *testing.T) {
	rx := SecludedRSSI(SecludedConfig{Seed: 1, Duration: 20 * time.Minute})
	if len(rx) == 0 {
		t.Fatal("no beacons received")
	}
	grouped := RSSIByTagAndDistance(rx)
	apple := grouped[trace.VendorApple]
	samsung := grouped[trace.VendorSamsung]
	for _, d := range []float64{0, 10, 20} {
		if len(apple[d]) < 100 || len(samsung[d]) < 100 {
			t.Fatalf("too few beacons at %.0f m: %d/%d", d, len(apple[d]), len(samsung[d]))
		}
	}
	medA0 := stats.Percentile(apple[0], 50)
	medS0 := stats.Percentile(samsung[0], 50)
	medA10 := stats.Percentile(apple[10], 50)
	medS10 := stats.Percentile(samsung[10], 50)
	medA20 := stats.Percentile(apple[20], 50)
	medS20 := stats.Percentile(samsung[20], 50)
	// Figure 2: SmartTag ~10 dB hotter at 0 and 10 m, parity at 20 m.
	if gap := medS0 - medA0; gap < 5 || gap > 15 {
		t.Errorf("0 m median gap = %.1f dB", gap)
	}
	if gap := medS10 - medA10; gap < 5 || gap > 16 {
		t.Errorf("10 m median gap = %.1f dB", gap)
	}
	if gap := math.Abs(medS20 - medA20); gap > 6 {
		t.Errorf("20 m median gap = %.1f dB, want near parity", gap)
	}
	// At 50 m the SmartTag's steep slope loses most beacons.
	if len(samsung[50]) >= len(apple[50]) {
		t.Errorf("SmartTag decoded %d beacons at 50 m vs AirTag %d", len(samsung[50]), len(apple[50]))
	}
}

func TestSecludedDeterministic(t *testing.T) {
	a := SecludedRSSI(SecludedConfig{Seed: 9, Duration: 5 * time.Minute})
	b := SecludedRSSI(SecludedConfig{Seed: 9, Duration: 5 * time.Minute})
	if len(a) != len(b) {
		t.Fatal("nondeterministic beacon count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic beacons")
		}
	}
}

func TestCafeteriaSmall(t *testing.T) {
	res := RunCafeteria(CafeteriaConfig{
		Seed: 3, Days: 1,
		PeakApple: 60, PeakSamsung: 12, PeakOther: 10,
	})
	if len(res.Counts) == 0 {
		t.Fatal("no WiFi counts")
	}
	// Counts follow the occupancy curve: zero overnight, peak at lunch.
	var lunchApple, nightApple int
	for _, c := range res.Counts {
		switch c.T.Hour() {
		case 12, 13:
			if c.Apple > lunchApple {
				lunchApple = c.Apple
			}
		case 3, 4:
			nightApple += c.Apple
		}
	}
	if nightApple != 0 {
		t.Errorf("devices present overnight: %d", nightApple)
	}
	if lunchApple < 30 {
		t.Errorf("lunch peak Apple count = %d, want >=30", lunchApple)
	}
	// Both tags got reported during the day.
	if len(res.AppleHistory) == 0 {
		t.Error("AirTag never reported in a busy cafeteria")
	}
	if len(res.SamsungHistory) == 0 {
		t.Error("SmartTag never reported in a busy cafeteria")
	}
	// No reports can precede opening or follow closing by much.
	for _, r := range res.AppleHistory {
		h := r.T.Hour()
		if h >= 1 && h < 7 {
			t.Errorf("report at %v with the cafeteria closed", r.T)
		}
	}
}

func TestCafeteriaUpdateRatePlateau(t *testing.T) {
	// With the paper's full occupancy, both tags should plateau at
	// 15-20 updates/hour during peaks (Figures 3-4).
	res := RunCafeteria(CafeteriaConfig{Seed: 5, Days: 2})
	rateAt := func(history []trace.Report, hour int) float64 {
		counts := analysis.HourlyUpdateCounts(history)
		var total float64
		n := 0
		for h, c := range counts {
			if h.Hour() == hour {
				total += float64(c)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	appleLunch := rateAt(res.AppleHistory, 12)
	samsungLunch := rateAt(res.SamsungHistory, 12)
	if appleLunch < 10 || appleLunch > 20 {
		t.Errorf("AirTag lunch rate = %.1f/h, want 10-20", appleLunch)
	}
	if samsungLunch < 10 || samsungLunch > 20 {
		t.Errorf("SmartTag lunch rate = %.1f/h, want 10-20", samsungLunch)
	}
	// Below the cap, per-device efficiency separates the strategies:
	// Samsung's aggressive policy extracts far more reports per present
	// device than Apple's conservative one (Figure 4's contrast). Use
	// the 7am hour, where both fleets are small and uncapped.
	countAt := func(pick func(trace.DeviceCount) int, hour int) float64 {
		var total float64
		n := 0
		for _, c := range res.Counts {
			if c.T.Hour() == hour {
				total += float64(pick(c))
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	appleEff := rateAt(res.AppleHistory, 7) / math.Max(countAt(func(c trace.DeviceCount) int { return c.Apple }, 7), 1)
	samsungEff := rateAt(res.SamsungHistory, 7) / math.Max(countAt(func(c trace.DeviceCount) int { return c.Samsung }, 7), 1)
	if samsungEff < appleEff*1.3 {
		t.Errorf("7am per-device rate: samsung %.2f vs apple %.2f; aggressive strategy should dominate", samsungEff, appleEff)
	}
}

func TestWildTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := WildConfig{
		Seed: 11,
		Countries: []CountrySpec{{
			Code: "XX", Cities: 2, Days: 2, WalkKm: 6, JogKm: 3, TransitKm: 60,
			Center: geo.LatLon{Lat: 24.4539, Lon: 54.3773}, CityPopulation: 150000,
			AppleShare: 0.75, SamsungShare: 0.20,
		}},
		DevicesPerCity: 250,
	}
	res := collect(t, cfg)
	if len(res.Countries) != 1 {
		t.Fatal("missing country result")
	}
	cr := res.Countries[0]
	if cr.Days != 2 {
		t.Errorf("days = %d", cr.Days)
	}
	gt := cr.Dataset.GroundTruth
	if len(gt) < 1000 {
		t.Fatalf("only %d ground-truth fixes", len(gt))
	}
	// Distance quotas respected within tolerance.
	walk := cr.KmByClass[mobility.ClassPedestrian]
	transit := cr.KmByClass[mobility.ClassTransit]
	if math.Abs(walk-6) > 3.5 {
		t.Errorf("walk km = %.1f, want ~6", walk)
	}
	// Transit may overshoot by the inter-city relocation legs.
	if transit < 40 || transit > 95 {
		t.Errorf("transit km = %.1f, want ~60-80", transit)
	}
	// The crawlers observed both tags.
	if cr.AppleNow == 0 {
		t.Error("AirTag never seen as Now")
	}
	if cr.SamsungNow == 0 {
		t.Error("SmartTag never seen as Now")
	}
	// Home detection found the overnight location(s).
	if len(cr.Homes) == 0 {
		t.Error("no homes detected")
	}
	// Accuracy pipeline end-to-end: combined, 60-minute buckets, 100 m.
	ti := analysis.NewTruthIndex(gt)
	from, to, _ := ti.Span()
	acc := analysis.Accuracy(ti, cr.Dataset.CrawlsFor(trace.VendorCombined), time.Hour, 100, from, to)
	if acc.Buckets == 0 {
		t.Fatal("no accuracy buckets")
	}
	if acc.Pct() <= 0 {
		t.Error("zero combined accuracy at 100 m / 1 h; world too sparse")
	}
}

func TestWildDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := WildConfig{
		Seed: 21,
		Countries: []CountrySpec{{
			Code: "YY", Cities: 1, Days: 1, WalkKm: 3, JogKm: 2, TransitKm: 20,
			Center: geo.LatLon{Lat: 45.46, Lon: 9.19}, CityPopulation: 100000,
			AppleShare: 0.7, SamsungShare: 0.2,
		}},
		DevicesPerCity: 150,
	}
	a := collect(t, cfg)
	b := collect(t, cfg)
	ga, gb := a.Countries[0].Dataset.GroundTruth, b.Countries[0].Dataset.GroundTruth
	if len(ga) != len(gb) {
		t.Fatalf("ground truth lengths differ: %d vs %d", len(ga), len(gb))
	}
	ca := a.Countries[0].Dataset.CrawlsFor(trace.VendorCombined)
	cb := b.Countries[0].Dataset.CrawlsFor(trace.VendorCombined)
	if len(ca) != len(cb) {
		t.Fatalf("crawl lengths differ: %d vs %d", len(ca), len(cb))
	}
	if a.Countries[0].AppleNow != b.Countries[0].AppleNow {
		t.Error("Now counts diverged")
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Small lambda: mean should be close.
	var sum int
	const n = 5000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-3.5) > 0.15 {
		t.Errorf("poisson(3.5) mean = %.2f", mean)
	}
	// Large lambda path.
	sum = 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 200)
	}
	mean = float64(sum) / n
	if math.Abs(mean-200) > 2 {
		t.Errorf("poisson(200) mean = %.2f", mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive lambda must yield 0")
	}
}
