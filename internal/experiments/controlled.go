package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"tagsim/internal/analysis"
	"tagsim/internal/scenario"
	"tagsim/internal/stats"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// Figure2Row is one box of Figure 2: beacon RSSI quartiles for a tag at a
// distance.
type Figure2Row struct {
	Vendor    trace.Vendor
	DistanceM float64
	N         int
	P25       float64
	Median    float64
	P75       float64
}

// Figure2Result reproduces Figure 2 (beacon RSSI per tag and distance).
type Figure2Result struct {
	Rows []Figure2Row
}

// Figure2 runs the secluded-area RSSI experiment.
func Figure2(seed int64) *Figure2Result {
	rx := scenario.SecludedRSSI(scenario.SecludedConfig{Seed: seed})
	grouped := scenario.RSSIByTagAndDistance(rx)
	res := &Figure2Result{}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		for _, d := range []float64{0, 10, 20, 50} {
			samples := grouped[v][d]
			row := Figure2Row{Vendor: v, DistanceM: d, N: len(samples)}
			if len(samples) > 0 {
				row.P25 = stats.Percentile(samples, 25)
				row.Median = stats.Percentile(samples, 50)
				row.P75 = stats.Percentile(samples, 75)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// Median returns the median RSSI for a tag/distance pair, or NaN.
func (r *Figure2Result) Median(v trace.Vendor, distM float64) float64 {
	for _, row := range r.Rows {
		if row.Vendor == v && row.DistanceM == distM {
			return row.Median
		}
	}
	return nan()
}

// Render prints the figure's series as a table.
func (r *Figure2Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 2: Beacon RSSI for each tag at different distances (dBm)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tag\tdistance\tbeacons\tP25\tmedian\tP75")
	for _, row := range r.Rows {
		tag := "AirTag"
		if row.Vendor == trace.VendorSamsung {
			tag = "SmartTag"
		}
		fmt.Fprintf(tw, "%s\t%.0f m\t%d\t%.1f\t%.1f\t%.1f\n",
			tag, row.DistanceM, row.N, row.P25, row.Median, row.P75)
	}
	tw.Flush()
	return b.String()
}

// Figure3Row is one hour of Figure 3.
type Figure3Row struct {
	Hour       int
	AppleCount float64
	AppleStd   float64
	SamsungCnt float64
	SamsungStd float64
	AirTagRate float64
	AirStd     float64
	SmartRate  float64
	SmartStd   float64
}

// Figure3Result reproduces Figure 3 (cafeteria update rates vs hour).
type Figure3Result struct {
	Rows   []Figure3Row
	Visits map[trace.Vendor]int
}

// Figure3 runs the cafeteria deployment and aggregates per hour of day.
func Figure3(seed int64, days int) *Figure3Result {
	return Figure3From(scenario.RunCafeteria(scenario.CafeteriaConfig{Seed: seed, Days: days}))
}

// Figure3From aggregates a cafeteria run per hour of day. Figure4From
// reads the same run, so a caller that renders both simulates the
// deployment once; caf is only read.
func Figure3From(caf *scenario.CafeteriaResult) *Figure3Result {
	appleRows := analysis.UpdateRateByHourOfDay(caf.AppleHistory, caf.Counts,
		func(c trace.DeviceCount) int { return c.Apple }, caf.Start, caf.End)
	samsungRows := analysis.UpdateRateByHourOfDay(caf.SamsungHistory, caf.Counts,
		func(c trace.DeviceCount) int { return c.Samsung }, caf.Start, caf.End)
	res := &Figure3Result{Visits: caf.Visits}
	byHour := make(map[int]*Figure3Row)
	for _, r := range appleRows {
		byHour[r.Hour] = &Figure3Row{
			Hour: r.Hour, AppleCount: r.MeanDevices, AppleStd: r.StdDevices,
			AirTagRate: r.MeanRate, AirStd: r.StdRate,
		}
	}
	for _, r := range samsungRows {
		row, ok := byHour[r.Hour]
		if !ok {
			row = &Figure3Row{Hour: r.Hour}
			byHour[r.Hour] = row
		}
		row.SamsungCnt = r.MeanDevices
		row.SamsungStd = r.StdDevices
		row.SmartRate = r.MeanRate
		row.SmartStd = r.StdRate
	}
	for h := 0; h < 24; h++ {
		if row, ok := byHour[h]; ok {
			res.Rows = append(res.Rows, *row)
		}
	}
	return res
}

// Peak returns the maximum mean update rate across hours for a tag.
func (r *Figure3Result) Peak(v trace.Vendor) float64 {
	var peak float64
	for _, row := range r.Rows {
		rate := row.AirTagRate
		if v == trace.VendorSamsung {
			rate = row.SmartRate
		}
		if rate > peak {
			peak = rate
		}
	}
	return peak
}

// Render prints Figure 3's two series (device counts, update rates).
func (r *Figure3Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 3: Update rates of AirTag and SmartTag by hour of day (cafeteria)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "hour\tapple devs\tsamsung devs\tAirTag upd/h\tSmartTag upd/h")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%02d\t%.0f ± %.0f\t%.0f ± %.0f\t%.1f ± %.1f\t%.1f ± %.1f\n",
			row.Hour, row.AppleCount, row.AppleStd, row.SamsungCnt, row.SamsungStd,
			row.AirTagRate, row.AirStd, row.SmartRate, row.SmartStd)
	}
	tw.Flush()
	return b.String()
}

// Figure4Result reproduces Figure 4 (update rate vs likelihood of N
// reporting devices within one hour).
type Figure4Result struct {
	Apple   []analysis.RateBucket
	Samsung []analysis.RateBucket
}

// Figure4 runs the cafeteria deployment and buckets hours by device count.
func Figure4(seed int64, days int) *Figure4Result {
	return Figure4From(scenario.RunCafeteria(scenario.CafeteriaConfig{Seed: seed, Days: days}))
}

// Figure4From buckets a cafeteria run's hours by device count; caf is
// only read.
func Figure4From(caf *scenario.CafeteriaResult) *Figure4Result {
	return &Figure4Result{
		Apple: analysis.UpdateRateVsDevices(caf.AppleHistory, caf.Counts,
			func(c trace.DeviceCount) int { return c.Apple }, 10),
		Samsung: analysis.UpdateRateVsDevices(caf.SamsungHistory, caf.Counts,
			func(c trace.DeviceCount) int { return c.Samsung }, 10),
	}
}

// RateAt returns the mean update rate for the bucket containing n devices.
func rateAt(buckets []analysis.RateBucket, n int) (float64, bool) {
	for _, b := range buckets {
		if n >= b.MinDevices && n <= b.MaxDevices {
			return b.MeanRate, true
		}
	}
	return 0, false
}

// AppleRateAt / SamsungRateAt expose bucket lookups for calibration tests.
func (r *Figure4Result) AppleRateAt(n int) (float64, bool)   { return rateAt(r.Apple, n) }
func (r *Figure4Result) SamsungRateAt(n int) (float64, bool) { return rateAt(r.Samsung, n) }

// MaxSamsungBucket returns the largest Samsung device-count bucket
// observed (the paper never saw more than 80 Samsung phones in an hour).
func (r *Figure4Result) MaxSamsungBucket() int {
	max := 0
	for _, b := range r.Samsung {
		if b.MaxDevices > max {
			max = b.MaxDevices
		}
	}
	return max
}

// Render prints both vendors' bucket series.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 4: Update rate vs likelihood of N reporting devices within one hour")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vendor\tdevices\tlikelihood\tupd/h\tstd\thours")
	for _, pair := range []struct {
		name    string
		buckets []analysis.RateBucket
	}{{"Apple", r.Apple}, {"Samsung", r.Samsung}} {
		for _, bk := range pair.buckets {
			fmt.Fprintf(tw, "%s\t%d-%d\t%.2f\t%.1f\t%.1f\t%d\n",
				pair.name, bk.MinDevices, bk.MaxDevices, bk.Likelihood, bk.MeanRate, bk.StdRate, bk.Hours)
		}
	}
	tw.Flush()
	return b.String()
}

// BatteryRow is one line of the battery comparison (the paper's Section
// 5.1 claim: SmartTag trades ~20% more battery for its aggressive radio).
type BatteryRow struct {
	Tag           string
	MeanCurrentUA float64
	LifeDays      float64
}

// BatteryResult compares tag battery models.
type BatteryResult struct {
	Rows  []BatteryRow
	Ratio float64 // SmartTag current / AirTag current
}

// Battery computes the battery comparison from the tag profiles.
func Battery() *BatteryResult {
	air := tag.AirTagProfile()
	smart := tag.SmartTagProfile()
	res := &BatteryResult{
		Rows: []BatteryRow{
			{Tag: "AirTag", MeanCurrentUA: air.MeanCurrentUA(), LifeDays: air.BatteryLife().Hours() / 24},
			{Tag: "SmartTag", MeanCurrentUA: smart.MeanCurrentUA(), LifeDays: smart.BatteryLife().Hours() / 24},
		},
	}
	res.Ratio = smart.MeanCurrentUA() / air.MeanCurrentUA()
	return res
}

// Render prints the battery table.
func (r *BatteryResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Battery model: separated-mode advertising (Section 5.1 claim)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "tag\tmean current (uA)\testimated life (days)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.0f\n", row.Tag, row.MeanCurrentUA, row.LifeDays)
	}
	tw.Flush()
	fmt.Fprintf(&b, "SmartTag/AirTag current ratio: %.2f (paper: ~1.2)\n", r.Ratio)
	return b.String()
}
