package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"tagsim/internal/runner"
	"tagsim/internal/scenario"
	"tagsim/internal/stats"
	"tagsim/internal/trace"
)

// ReplicateSet bundles N same-config campaigns run from distinct derived
// seeds (scenario.ReplicateSeed). Replicate r is exactly NewCampaign at
// seed ReplicateSeed(Options.Seed, r), so replicate 0 renders every
// figure byte-identically to a plain NewCampaign with the same options,
// and aggregates extend — never replace — the single-run figures.
type ReplicateSet struct {
	Options   Options
	Campaigns []*Campaign
}

// CampaignReplicates runs the campaign at n derived seeds, one after
// another: each campaign's countries already fan out on opts.Workers, so
// running replicates in turn keeps the Workers cap without nesting
// pools, and holds the simulation state of only one campaign at a time.
// The across-replicate aggregates fan out over the campaigns, so each
// campaign keeps a sequential view (Options.Workers = 1) for its own
// figure passes.
func CampaignReplicates(opts Options, n int) *ReplicateSet {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	var campaigns []*Campaign
	for r := 0; r < n; r++ {
		ropts := opts
		ropts.Seed = scenario.ReplicateSeed(opts.Seed, r)
		c := NewCampaign(ropts)
		c.Options.Workers = 1
		campaigns = append(campaigns, c)
	}
	return &ReplicateSet{Options: opts, Campaigns: campaigns}
}

// N returns the replicate count.
func (s *ReplicateSet) N() int { return len(s.Campaigns) }

// ReplicateStat is an across-replicate aggregate of one scalar: the
// mean over replicates with the sample standard deviation as spread.
type ReplicateStat struct {
	Mean, Std float64
	N         int
}

func newReplicateStat(samples []float64) ReplicateStat {
	sum := stats.Summarize(samples)
	st := ReplicateStat{Mean: sum.Mean, Std: sum.Std, N: len(samples)}
	if st.N < 2 {
		st.Std = 0 // a single replicate has no spread
	}
	return st
}

// String renders "mean ± std".
func (r ReplicateStat) String() string { return fmt.Sprintf("%.1f ± %.1f", r.Mean, r.Std) }

// Table1ReplicateRow is one country's report counts across replicates.
type Table1ReplicateRow struct {
	Country              string
	SamsungNow, AppleNow ReplicateStat
}

// Table1Replicates aggregates Table 1's report columns over replicates.
type Table1Replicates struct {
	Rows  []Table1ReplicateRow
	Total Table1ReplicateRow
}

// Table1Stats computes the across-replicate Table 1 aggregate.
func (s *ReplicateSet) Table1Stats() *Table1Replicates {
	tables := runner.Map(s.Options.Workers, len(s.Campaigns), func(i int) *Table1Result {
		return Table1(s.Campaigns[i])
	})
	res := &Table1Replicates{}
	if len(tables) == 0 {
		return res
	}
	// aggregate folds one row (picked from each replicate's table).
	aggregate := func(pick func(*Table1Result) Table1Row) Table1ReplicateRow {
		apple := make([]float64, len(tables))
		samsung := make([]float64, len(tables))
		for ti, t := range tables {
			apple[ti], samsung[ti] = float64(pick(t).AppleNow), float64(pick(t).SamsungNow)
		}
		return Table1ReplicateRow{Country: pick(tables[0]).Country, AppleNow: newReplicateStat(apple), SamsungNow: newReplicateStat(samsung)}
	}
	for ri := range tables[0].Rows {
		res.Rows = append(res.Rows, aggregate(func(t *Table1Result) Table1Row { return t.Rows[ri] }))
	}
	res.Total = aggregate(func(t *Table1Result) Table1Row { return t.Total })
	return res
}

// Render prints the aggregated report columns.
func (r *Table1Replicates) Render() string {
	var b strings.Builder
	n := 0
	if len(r.Rows) > 0 {
		n = r.Rows[0].AppleNow.N
	}
	fmt.Fprintf(&b, "Table 1 across %d replicates: # Report (mean ± std)\n", n)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Ctry\t# Report Samsung\t# Report Apple")
	for _, row := range append(r.Rows, r.Total) {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", row.Country, row.SamsungNow, row.AppleNow)
	}
	tw.Flush()
	return b.String()
}

// Figure5ReplicatePoint is one (vendor, responsiveness) cell of the
// replicated Figure 5 sweep.
type Figure5ReplicatePoint struct {
	Vendor  trace.Vendor
	Minutes int
	Acc     ReplicateStat
}

// Figure5Replicates is the across-replicate Figure 5 sweep at one radius.
type Figure5Replicates struct {
	RadiusM float64
	Points  []Figure5ReplicatePoint
	// acc backs Acc with O(1) lookups (Render queries every table cell).
	acc map[sweepKey]ReplicateStat
}

// Figure5Stats aggregates the accuracy-vs-responsiveness sweep at one
// radius over all replicates. Each replicate's sweep reads its
// campaign's cached per-vendor analysis indexes, so the whole aggregate
// never rescans a crawl log.
func (s *ReplicateSet) Figure5Stats(radiusM float64) *Figure5Replicates {
	sweeps := runner.Map(s.Options.Workers, len(s.Campaigns), func(i int) *Figure5SweepResult {
		return Figure5Sweep(s.Campaigns[i], radiusM)
	})
	res := &Figure5Replicates{RadiusM: radiusM, acc: make(map[sweepKey]ReplicateStat, len(Vendors)*len(SweepMinutes))}
	for _, v := range Vendors {
		for _, m := range SweepMinutes {
			samples := make([]float64, len(sweeps))
			for i, sw := range sweeps {
				samples[i] = sw.Acc(v, m)
			}
			pt := Figure5ReplicatePoint{Vendor: v, Minutes: m, Acc: newReplicateStat(samples)}
			res.Points = append(res.Points, pt)
			res.acc[sweepKey{v, m}] = pt.Acc
		}
	}
	return res
}

// Acc returns the aggregate for a vendor/minutes pair.
func (r *Figure5Replicates) Acc(v trace.Vendor, minutes int) ReplicateStat {
	if r.acc != nil {
		if a, ok := r.acc[sweepKey{v, minutes}]; ok {
			return a
		}
		return ReplicateStat{Mean: nan(), Std: nan()}
	}
	// Hand-assembled results have no map; fall back to scanning Points.
	for _, p := range r.Points {
		if p.Vendor == v && p.Minutes == minutes {
			return p.Acc
		}
	}
	return ReplicateStat{Mean: nan(), Std: nan()}
}

// Render prints the aggregated sweep, one row per responsiveness value.
func (r *Figure5Replicates) Render() string {
	var b strings.Builder
	n := 0
	if len(r.Points) > 0 {
		n = r.Points[0].Acc.N
	}
	fmt.Fprintf(&b, "Figure 5 (radius %.0f m) across %d replicates: accuracy %% (mean ± std)\n", r.RadiusM, n)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "minutes\tApple\tSamsung\tCombined")
	for _, m := range SweepMinutes {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\n",
			m, r.Acc(trace.VendorApple, m), r.Acc(trace.VendorSamsung, m), r.Acc(trace.VendorCombined, m))
	}
	tw.Flush()
	return b.String()
}

// HeadlineReplicates aggregates the paper's abstract-level numbers.
type HeadlineReplicates struct {
	Acc10Min100M       ReplicateStat
	BacktrackFrac1h10m ReplicateStat
	HomeFilteredFrac   ReplicateStat
}

// HeadlineStats computes the across-replicate headline aggregate.
func (s *ReplicateSet) HeadlineStats() *HeadlineReplicates {
	heads := runner.Map(s.Options.Workers, len(s.Campaigns), func(i int) *HeadlineResult {
		return Headline(s.Campaigns[i])
	})
	pick := func(f func(h *HeadlineResult) float64) ReplicateStat {
		samples := make([]float64, len(heads))
		for i, h := range heads {
			samples[i] = f(h)
		}
		return newReplicateStat(samples)
	}
	return &HeadlineReplicates{
		Acc10Min100M:       pick(func(h *HeadlineResult) float64 { return h.Acc10Min100M }),
		BacktrackFrac1h10m: pick(func(h *HeadlineResult) float64 { return h.BacktrackFrac1h10m * 100 }),
		HomeFilteredFrac:   pick(func(h *HeadlineResult) float64 { return h.HomeFilteredFrac * 100 }),
	}
}

// Render prints the aggregated headline claims.
func (r *HeadlineReplicates) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline claims across %d replicates (mean ± std)\n", r.Acc10Min100M.N)
	fmt.Fprintf(&b, "  combined accuracy, 10 min / 100 m: %s %% (paper: ~55%%)\n", r.Acc10Min100M)
	fmt.Fprintf(&b, "  movements backtrackable at 10 m within 1 h: %s %% (paper: ~50%%)\n", r.BacktrackFrac1h10m)
	fmt.Fprintf(&b, "  data removed by 300 m home filter: %s %% (paper: 65%%)\n", r.HomeFilteredFrac)
	return b.String()
}

// Render prints every aggregated artifact of the replicate sweep.
func (s *ReplicateSet) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Replicate sweep: %d campaigns, seeds %d", s.N(), s.Options.Seed)
	for r := 1; r < s.N(); r++ {
		fmt.Fprintf(&b, "/%d", scenario.ReplicateSeed(s.Options.Seed, r))
	}
	span := time.Duration(0)
	if s.N() > 0 {
		from, to := s.Campaigns[0].From, s.Campaigns[0].To
		span = to.Sub(from)
	}
	fmt.Fprintf(&b, " (%.0f simulated days each)\n\n", span.Hours()/24)
	b.WriteString(s.Table1Stats().Render())
	b.WriteString("\n")
	b.WriteString(s.Figure5Stats(100).Render())
	b.WriteString("\n")
	b.WriteString(s.HeadlineStats().Render())
	return b.String()
}
