package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/encounter"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
	"tagsim/internal/wifinet"
)

// CafeteriaConfig parameterizes the five-day instrumented cafeteria
// deployment behind Figures 3 and 4.
type CafeteriaConfig struct {
	Seed int64
	Days int
	// Location is the cafeteria; tags sit at a center table, visitors at
	// tables within RadiusM.
	Location geo.LatLon
	RadiusM  float64
	// PeakApple/PeakSamsung are the peak *concurrent* device counts.
	// With ~45-minute stays, an hour sees about 2.3x the concurrent
	// count in distinct devices, so the defaults (140/22) reproduce the
	// paper's WiFi observation of ~320 Apple vs ~50 Samsung devices at
	// the dinner peak — about six times more Apple devices.
	PeakApple   int
	PeakSamsung int
	PeakOther   int
	// SamsungOptIn is the fraction of Samsung visitors with location
	// reporting enabled (WiFi counts them all — the overestimate the
	// paper acknowledges).
	SamsungOptIn float64
	// MeanStay is the average visit length (default 45 min).
	MeanStay time.Duration
}

func (c *CafeteriaConfig) defaults() {
	if c.Days <= 0 {
		c.Days = 5
	}
	if c.Location.IsZero() {
		c.Location = geo.LatLon{Lat: 24.5246, Lon: 54.4349} // campus cafeteria
	}
	if c.RadiusM <= 0 {
		c.RadiusM = 30
	}
	if c.PeakApple <= 0 {
		c.PeakApple = 140
	}
	if c.PeakSamsung <= 0 {
		c.PeakSamsung = 22
	}
	if c.PeakOther <= 0 {
		c.PeakOther = 35
	}
	if c.SamsungOptIn <= 0 {
		c.SamsungOptIn = 0.85
	}
	if c.MeanStay <= 0 {
		c.MeanStay = 45 * time.Minute
	}
}

// occupancyCurve is the relative concurrent-occupancy multiplier per hour
// of day: the cafeteria opens 07:30-22:00 with lunch (12-15) and dinner
// (18-21) peaks, as described in the paper.
var occupancyCurve = [24]float64{
	7: 0.06, 8: 0.19, 9: 0.25, 10: 0.31, 11: 0.56,
	12: 1.00, 13: 1.05, 14: 0.81, 15: 0.44, 16: 0.31,
	17: 0.44, 18: 0.78, 19: 1.00, 20: 1.00, 21: 0.63,
}

// CafeteriaResult carries everything Figures 3 and 4 need.
type CafeteriaResult struct {
	Start, End time.Time
	// Counts are the WiFi monitor's anonymized hourly device counts.
	Counts []trace.DeviceCount
	// AppleHistory/SamsungHistory are the accepted cloud reports for the
	// AirTag and SmartTag respectively.
	AppleHistory   []trace.Report
	SamsungHistory []trace.Report
	// Visits tallies generated cafeteria visits per vendor.
	Visits map[trace.Vendor]int
}

// RunCafeteria simulates the cafeteria deployment: both tags on a table
// for cfg.Days days, a visitor population following the occupancy curve,
// the WiFi monitor counting devices by traffic destination, and the
// vendor clouds ingesting crowd reports.
func RunCafeteria(cfg CafeteriaConfig) *CafeteriaResult {
	w := buildCafeteria(cfg)
	w.e.RunUntil(w.end)
	return &CafeteriaResult{
		Start:          w.start,
		End:            w.end,
		Counts:         w.monitor.HourlyCounts(),
		AppleHistory:   w.apple.History(w.tags[0].ID),
		SamsungHistory: w.samsung.History(w.tags[1].ID),
		Visits:         w.visits,
	}
}

// cafeteriaWorld is a built, ready-to-run cafeteria deployment, its
// scan loop attached to its engine.
type cafeteriaWorld struct {
	e              *sim.Engine
	start, end     time.Time
	monitor        *wifinet.Monitor
	visits         map[trace.Vendor]int
	fleet          *device.Fleet
	tags           []*tag.Tag // the AirTag, then the SmartTag
	apple, samsung *cloud.Service
}

// buildCafeteria draws the deployment's visits and wires its radio plane.
func buildCafeteria(cfg CafeteriaConfig) *cafeteriaWorld {
	cfg.defaults()
	start := CampaignStart
	end := start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	e := sim.NewEngine(start, cfg.Seed)
	rng := e.RNG("cafeteria")

	monitor := wifinet.NewMonitor()
	visits := make(map[trace.Vendor]int)
	var devices []*device.Device

	// Generate visits: per day and hour, arrivals keep the expected
	// concurrent occupancy at peak*curve given the mean stay.
	arrivalsPerHour := func(peak int, mult float64) float64 {
		return float64(peak) * mult * float64(time.Hour) / float64(cfg.MeanStay)
	}
	vendors := []struct {
		vendor trace.Vendor
		peak   int
	}{
		{trace.VendorApple, cfg.PeakApple},
		{trace.VendorSamsung, cfg.PeakSamsung},
		{trace.VendorOther, cfg.PeakOther},
	}
	for day := 0; day < cfg.Days; day++ {
		dayStart := start.Add(time.Duration(day) * 24 * time.Hour)
		for hour := 0; hour < 24; hour++ {
			mult := occupancyCurve[hour]
			if mult == 0 {
				continue
			}
			hourStart := dayStart.Add(time.Duration(hour) * time.Hour)
			for _, v := range vendors {
				lambda := arrivalsPerHour(v.peak, mult)
				n := poisson(rng, lambda)
				for k := 0; k < n; k++ {
					arrive := hourStart.Add(time.Duration(rng.Int63n(int64(time.Hour))))
					stay := cfg.MeanStay/2 + time.Duration(rng.Int63n(int64(cfg.MeanStay)))
					table := geo.Destination(cfg.Location, rng.Float64()*360, rng.Float64()*cfg.RadiusM)
					id := fmt.Sprintf("%s-d%dh%02d-%d", v.vendor, day, hour, k)
					d := device.New(id, v.vendor, table, mobility.Stationary(table))
					d.ActiveFrom, d.ActiveTo = arrive, arrive.Add(stay)
					if v.vendor == trace.VendorSamsung {
						d.OptedIn = rng.Float64() < cfg.SamsungOptIn
					}
					devices = append(devices, d)
					visits[v.vendor]++
					// WiFi flows every few minutes while present; the
					// monitor classifies them by destination.
					for ft := arrive; ft.Before(arrive.Add(stay)); ft = ft.Add(2*time.Minute + time.Duration(rng.Int63n(int64(4*time.Minute)))) {
						monitor.Observe(ft, id, wifinet.VendorFlowDst(v.vendor, rng))
					}
				}
			}
		}
	}

	fleet := device.NewFleet(cfg.Location, devices)
	airTag := tag.New("airtag-1", tag.AirTagProfile(), mobility.Stationary(cfg.Location))
	smartTag := tag.New("smarttag-1", tag.SmartTagProfile(), mobility.Stationary(cfg.Location))
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	apple.Register(airTag.ID)
	samsung.Register(smartTag.ID)

	tags := []*tag.Tag{airTag, smartTag}
	plane := encounter.New(encounter.Config{}, e, fleet, tags, map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	})
	plane.Attach(start)
	return &cafeteriaWorld{
		e: e, start: start, end: end,
		monitor: monitor, visits: visits,
		fleet: fleet, tags: tags,
		apple: apple, samsung: samsung,
	}
}

// poisson draws a Poisson variate via Knuth's method (fine for the
// lambdas the cafeteria uses) with a normal fallback for large lambda.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 80 {
		v := lambda + rng.NormFloat64()*math.Sqrt(lambda)
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
