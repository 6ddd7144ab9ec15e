package experiments

import (
	"fmt"
	"math"

	"strings"
	"text/tabwriter"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/mobility"
	"tagsim/internal/runner"
	"tagsim/internal/stats"
	"tagsim/internal/trace"
)

func nan() float64 { return math.NaN() }

// Table1Row is one country row of Table 1.
type Table1Row struct {
	Country    string
	Cities     int
	SamsungNow int
	AppleNow   int
	WalkKm     float64
	JogKm      float64
	TransitKm  float64
	Days       int
}

// Table1Result reproduces the in-the-wild dataset summary.
type Table1Result struct {
	Rows  []Table1Row
	Total Table1Row
}

// Table1 summarizes the campaign like the paper's Table 1.
func Table1(c *Campaign) *Table1Result {
	res := &Table1Result{}
	for _, cr := range c.Result.Countries {
		row := Table1Row{
			Country:    cr.Spec.Code,
			Cities:     cr.Spec.Cities,
			SamsungNow: cr.SamsungNow,
			AppleNow:   cr.AppleNow,
			WalkKm:     cr.KmByClass[mobility.ClassPedestrian],
			JogKm:      cr.KmByClass[mobility.ClassJogging],
			TransitKm:  cr.KmByClass[mobility.ClassTransit],
			Days:       cr.Days,
		}
		res.Rows = append(res.Rows, row)
		res.Total.Cities += row.Cities
		res.Total.SamsungNow += row.SamsungNow
		res.Total.AppleNow += row.AppleNow
		res.Total.WalkKm += row.WalkKm
		res.Total.JogKm += row.JogKm
		res.Total.TransitKm += row.TransitKm
		res.Total.Days += row.Days
	}
	res.Total.Country = "Tot."
	return res
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 1: Summary of data-set collected in the wild")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ctry\t# cities\t# Report Samsung\t# Report Apple\tWalk/Jog/Transit (km)\tDays")
	for _, row := range append(r.Rows, r.Total) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.0f/%.0f/%.0f\t%d\n",
			row.Country, row.Cities, row.SamsungNow, row.AppleNow,
			row.WalkKm, row.JogKm, row.TransitKm, row.Days)
	}
	tw.Flush()
	return b.String()
}

// Figure5SweepPoint is one point of Figures 5a-c.
type Figure5SweepPoint struct {
	Vendor  trace.Vendor
	Minutes int
	Acc     float64
}

// Figure5SweepResult holds one radius's accuracy-vs-responsiveness sweep.
type Figure5SweepResult struct {
	RadiusM float64
	Points  []Figure5SweepPoint
	// acc backs Acc with O(1) lookups; Render calls Acc once per table
	// cell, so a linear scan over Points there would make rendering
	// quadratic in the sweep size.
	acc map[sweepKey]float64
}

type sweepKey struct {
	vendor  trace.Vendor
	minutes int
}

// SweepMinutes are the responsiveness values swept in Figures 5a-c.
var SweepMinutes = []int{1, 5, 10, 15, 20, 25, 30, 45, 60, 90, 120}

// Figure5Sweep computes accuracy vs responsiveness at a radius for all
// three ecosystems (Figures 5a: 10 m, 5b: 25 m, 5c: 100 m). The sweep
// points are independent reads of the campaign's cached per-vendor
// indexes and fan out across the worker pool; the result is identical
// for any worker count.
func Figure5Sweep(c *Campaign, radiusM float64) *Figure5SweepResult {
	res := &Figure5SweepResult{RadiusM: radiusM}
	n := len(Vendors) * len(SweepMinutes)
	pts := runner.Map(c.Options.Workers, n, func(i int) Figure5SweepPoint {
		v, m := Vendors[i/len(SweepMinutes)], SweepMinutes[i%len(SweepMinutes)]
		acc := c.Index(v).Accuracy(time.Duration(m)*time.Minute, radiusM, c.From, c.To)
		return Figure5SweepPoint{Vendor: v, Minutes: m, Acc: acc.Pct()}
	})
	res.Points = pts
	res.acc = make(map[sweepKey]float64, n)
	for _, p := range pts {
		res.acc[sweepKey{p.Vendor, p.Minutes}] = p.Acc
	}
	return res
}

// Acc returns the accuracy for a vendor/minutes pair, or NaN.
func (r *Figure5SweepResult) Acc(v trace.Vendor, minutes int) float64 {
	if r.acc != nil {
		if a, ok := r.acc[sweepKey{v, minutes}]; ok {
			return a
		}
		return nan()
	}
	// Hand-assembled results have no map; fall back to scanning Points.
	for _, p := range r.Points {
		if p.Vendor == v && p.Minutes == minutes {
			return p.Acc
		}
	}
	return nan()
}

// Render prints the sweep as one row per responsiveness value.
func (r *Figure5SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (radius %.0f m): accuracy (%%) vs responsiveness (minutes)\n", r.RadiusM)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "minutes\tApple\tSamsung\tCombined")
	for _, m := range SweepMinutes {
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%.1f\n",
			m, r.Acc(trace.VendorApple, m), r.Acc(trace.VendorSamsung, m), r.Acc(trace.VendorCombined, m))
	}
	tw.Flush()
	return b.String()
}

// ClassAccuracy is one bar of Figures 5d-f: a class's accuracy at one
// radius with a 95% confidence interval over daily samples.
type ClassAccuracy struct {
	Class   string
	RadiusM float64
	Mean    float64
	CI95    float64
	Days    int
}

// PairTest is one significance bracket between two classes.
type PairTest struct {
	A, B  string
	P     float64
	Stars string
}

// Figure5ClassResult holds one classified-accuracy panel (5d, 5e, or 5f).
type Figure5ClassResult struct {
	Title   string
	Classes []string
	Bars    []ClassAccuracy
	Tests   []PairTest
}

// classPanelRadii are the paper's three accuracy radii, evaluated by
// every Figure 5d-f panel.
var classPanelRadii = []float64{10, 25, 100}

// classPanel computes per-class accuracy bars (10-minute buckets, radii
// 10/25/100 m) and Welch t-tests between adjacent classes on the daily
// 25 m samples, mirroring the paper's Figure 5d-f methodology. The three
// radii are independent merges over the combined ecosystem's cached
// index and fan out across the worker pool; classifiers must therefore
// be safe for concurrent read-only use (the built-in ones are pure
// functions over the immutable TruthIndex).
func classPanel(c *Campaign, title string, classes []string, classify analysis.BucketClassifier) *Figure5ClassResult {
	res := &Figure5ClassResult{Title: title, Classes: classes}
	const bucket = 10 * time.Minute
	perRadius := runner.Map(c.Options.Workers, len(classPanelRadii), func(i int) map[string][]float64 {
		return c.Index(trace.VendorCombined).DailyAccuracyByClass(bucket, classPanelRadii[i], c.From, c.To, classify, 2)
	})
	daily := map[float64]map[string][]float64{}
	for i, radius := range classPanelRadii {
		daily[radius] = perRadius[i]
		for _, class := range classes {
			samples := daily[radius][class]
			bar := ClassAccuracy{Class: class, RadiusM: radius, Days: len(samples)}
			if len(samples) > 0 {
				s := stats.Summarize(samples)
				bar.Mean = s.Mean
				bar.CI95 = s.CI95
			}
			res.Bars = append(res.Bars, bar)
		}
	}
	for i := 0; i+1 < len(classes); i++ {
		a, b := classes[i], classes[i+1]
		test := PairTest{A: a, B: b, P: nan(), Stars: "ns"}
		if t, err := stats.WelchTTest(daily[25][a], daily[25][b]); err == nil {
			test.P = t.P
			test.Stars = stats.Stars(t.P)
		}
		res.Tests = append(res.Tests, test)
	}
	return res
}

// Figure5d computes accuracy by mobility speed class.
func Figure5d(c *Campaign) *Figure5ClassResult {
	classes := []string{"Stationary", "Pedestrian", "Jogging", "Transit"}
	return classPanel(c, "Figure 5d: accuracy by mobility class (10-min buckets)", classes, analysis.SpeedClassifier(c.Truth))
}

// Figure5e computes accuracy by day period.
func Figure5e(c *Campaign) *Figure5ClassResult {
	classes := make([]string, len(analysis.DayPeriods))
	for i, p := range analysis.DayPeriods {
		classes[i] = string(p)
	}
	return classPanel(c, "Figure 5e: accuracy by time of day (10-min buckets)", classes, analysis.PeriodClassifier)
}

// Figure5f computes accuracy by weekday/weekend.
func Figure5f(c *Campaign) *Figure5ClassResult {
	classes := []string{string(analysis.Weekday), string(analysis.Weekend)}
	return classPanel(c, "Figure 5f: accuracy weekday vs weekend (10-min buckets)", classes, analysis.WeekPartClassifier)
}

// Mean returns a class's mean accuracy at a radius, or NaN.
func (r *Figure5ClassResult) Mean(class string, radiusM float64) float64 {
	for _, bar := range r.Bars {
		if bar.Class == class && bar.RadiusM == radiusM {
			return bar.Mean
		}
	}
	return nan()
}

// Render prints the panel with significance annotations.
func (r *Figure5ClassResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, r.Title)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tradius\tmean acc (%)\t95% CI\tdays")
	for _, bar := range r.Bars {
		fmt.Fprintf(tw, "%s\t%.0f m\t%.1f\t± %.1f\t%d\n", bar.Class, bar.RadiusM, bar.Mean, bar.CI95, bar.Days)
	}
	tw.Flush()
	for _, t := range r.Tests {
		fmt.Fprintf(&b, "  %s vs %s: %s (p=%.4g)\n", t.A, t.B, t.Stars, t.P)
	}
	return b.String()
}

// Figure8Result reproduces Figure 8 (combined accuracy vs radius across
// time windows).
type Figure8Result struct {
	Radii   []float64
	Windows []time.Duration
	// Acc[window][radius] in percent.
	Acc map[time.Duration]map[float64]float64
}

// Figure8 sweeps radius x window over the combined ecosystem. Every
// (window, radius) cell is an independent merge over the combined
// index; the grid fans out across the worker pool and is reassembled in
// figure order.
func Figure8(c *Campaign) *Figure8Result {
	res := &Figure8Result{
		Acc: make(map[time.Duration]map[float64]float64),
	}
	for r := 10.0; r <= 100; r += 10 {
		res.Radii = append(res.Radii, r)
	}
	for _, m := range []int{1, 10, 30, 60, 120, 180} {
		res.Windows = append(res.Windows, time.Duration(m)*time.Minute)
	}
	cells := runner.Map(c.Options.Workers, len(res.Windows)*len(res.Radii), func(i int) float64 {
		w, radius := res.Windows[i/len(res.Radii)], res.Radii[i%len(res.Radii)]
		return c.Index(trace.VendorCombined).Accuracy(w, radius, c.From, c.To).Pct()
	})
	for wi, w := range res.Windows {
		res.Acc[w] = make(map[float64]float64, len(res.Radii))
		for ri, radius := range res.Radii {
			res.Acc[w][radius] = cells[wi*len(res.Radii)+ri]
		}
	}
	return res
}

// Render prints the radius sweep, one row per radius.
func (r *Figure8Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8: Combined accuracy (%) vs radius across time windows")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	header := "radius"
	for _, w := range r.Windows {
		header += fmt.Sprintf("\t%d min", int(w.Minutes()))
	}
	fmt.Fprintln(tw, header)
	for _, radius := range r.Radii {
		row := fmt.Sprintf("%.0f m", radius)
		for _, w := range r.Windows {
			row += fmt.Sprintf("\t%.1f", r.Acc[w][radius])
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
	return b.String()
}

// HeadlineResult carries the paper's abstract-level numbers.
type HeadlineResult struct {
	// Acc10Min100M is the combined accuracy at 10 minutes / 100 m (the
	// paper: ~55%).
	Acc10Min100M float64
	// BacktrackFrac1h10m is the fraction of place episodes backtrackable
	// at 10 m within one hour (the paper: ~half).
	BacktrackFrac1h10m float64
	// HomeFilteredFrac is the share of data removed by the home filter
	// (the paper: 65%).
	HomeFilteredFrac float64
	Episodes         int
}

// Headline computes the abstract's claims from the campaign.
func Headline(c *Campaign) *HeadlineResult {
	res := &HeadlineResult{HomeFilteredFrac: c.RemovedFrac}
	combined := c.Crawls(trace.VendorCombined)
	res.Acc10Min100M = c.Index(trace.VendorCombined).Accuracy(10*time.Minute, 100, c.From, c.To).Pct()

	// Backtracking: place episodes (>=5 min within 25 m), first accurate
	// (10 m) report within one hour. c.Truth holds exactly the 300 m
	// home-filtered ground truth in time order (the filter keeps order
	// and the time sort is stable).
	eps := analysis.EpisodesOf(c.Truth.All(), 25, 5*time.Minute)
	delays := analysis.FirstHitDelays(eps, combined, 10, time.Hour)
	res.Episodes = len(eps)
	res.BacktrackFrac1h10m = analysis.BacktrackFraction(delays, time.Hour)
	return res
}

// Render prints the headline claims.
func (r *HeadlineResult) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Headline claims (paper abstract)")
	fmt.Fprintf(&b, "  combined accuracy, 10 min / 100 m: %.1f%% (paper: ~55%%)\n", r.Acc10Min100M)
	fmt.Fprintf(&b, "  movements backtrackable at 10 m within 1 h: %.0f%% of %d episodes (paper: ~50%%)\n",
		r.BacktrackFrac1h10m*100, r.Episodes)
	fmt.Fprintf(&b, "  data removed by 300 m home filter: %.0f%% (paper: 65%%)\n", r.HomeFilteredFrac*100)
	return b.String()
}
