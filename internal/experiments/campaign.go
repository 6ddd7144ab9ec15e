// Package experiments regenerates every table and figure in the paper's
// evaluation: Table 1 (dataset summary), Figure 2 (beacon RSSI), Figures
// 3-4 (cafeteria update rates), Figures 5a-f (in-the-wild accuracy),
// Figure 6 (visited hexagons), Figure 7 (accuracy by population density),
// and Figure 8 (accuracy vs radius). Each experiment returns structured
// results plus a text rendering of the same rows/series the paper plots.
package experiments

import (
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/pipeline"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// Options control the in-the-wild campaign used by Table 1 and Figures
// 5-8. Scale trades fidelity for runtime: 1.0 is the paper's 120 days.
type Options struct {
	Seed           int64
	Scale          float64
	DevicesPerCity int
	// FleetScale multiplies every reporting-crowd size (residents,
	// ambient pedestrians, staff, neighbors, co-travelers); 0 or 1 keeps
	// the paper-calibrated fleet. The grid-indexed encounter plane keeps
	// scan cost flat as this grows (see BenchmarkScanOnce).
	FleetScale float64
	// Workers bounds how many independent simulation worlds (countries,
	// replicates, figure computations) run concurrently: 0 means one per
	// CPU, 1 is fully sequential. Results are identical for any value.
	Workers int
	// ScanWorkers region-shards each world's scan tick (0 = serial).
	// Results are identical for any value — see scenario.WildConfig.
	ScanWorkers int
}

// DefaultOptions is sized to regenerate every figure in tens of seconds.
func DefaultOptions() Options {
	return Options{Seed: 1, Scale: 0.25, DevicesPerCity: 500}
}

// wildConfig translates campaign options into the scenario config.
func (o Options) wildConfig() scenario.WildConfig {
	return scenario.WildConfig{
		Seed:           o.Seed,
		Scale:          o.Scale,
		DevicesPerCity: o.DevicesPerCity,
		FleetScale:     o.FleetScale,
		Workers:        o.Workers,
		ScanWorkers:    o.ScanWorkers,
	}
}

// Campaign is one executed in-the-wild campaign with its analysis
// artifacts precomputed, shared by every wild-data experiment.
type Campaign struct {
	Options Options
	// Result holds the per-country outputs; each country's Dataset is
	// its time-sorted ground truth plus distinct crawl records.
	Result *scenario.WildResult
	// Homes are the detected overnight locations across the campaign.
	Homes []geo.LatLon
	// Truth indexes the home-filtered ground truth.
	Truth *analysis.TruthIndex
	// countryTruth holds Truth's view over each country's range.
	countryTruth []*analysis.TruthIndex
	// RemovedFrac is the share of fixes dropped by the home filter (the
	// paper reports 65%).
	RemovedFrac float64
	// Filtered crawl records per vendor (incl. VendorCombined). They
	// hold only distinct reports (the raw crawl log never
	// materializes); every accuracy consumer dedups its input anyway,
	// so this analyzes exactly like the raw log.
	filteredCrawls map[trace.Vendor][]trace.CrawlRecord
	// One columnar analysis index per vendor over (Truth, filtered
	// crawls): the crawl log is deduped and truth-resolved exactly once,
	// then every figure's (bucket, radius, window, classifier) sweep
	// point merges against it.
	indexes  map[trace.Vendor]*analysis.Index
	From, To time.Time
}

// NewCampaign runs the campaign and prepares the shared analysis state.
//
// The campaign streams: scan ticks publish report batches through the
// pipeline while the country engines run, and one CampaignAccumulator
// grows the analysis state from the merged stream — the raw crawl log
// never materializes. The country datasets are reattached from the
// accumulator's per-world data (ground truth in full, crawls as
// distinct reports), so the per-country figures (6, 7) read exactly
// what they would compute from the raw logs.
func NewCampaign(opts Options) *Campaign {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	cfg := opts.wildConfig()
	jobs := scenario.PlanWild(cfg)
	acc := pipeline.NewCampaignAccumulator(len(jobs), opts.Workers)
	pl := pipeline.New(len(jobs), pipeline.Config{}, acc)
	cfg.Stream = pl
	res := scenario.RunWild(cfg)
	if err := pl.Wait(); err != nil {
		// The accumulator does no I/O; an error here is a broken
		// pipeline contract, not a runtime condition.
		panic(err)
	}
	st := acc.State()
	res.Attach(st.Worlds)
	c := &Campaign{
		Options:        opts,
		Result:         res,
		Homes:          st.Homes,
		Truth:          st.Truth,
		RemovedFrac:    st.RemovedFrac,
		filteredCrawls: st.Filtered,
		indexes:        st.Indexes,
	}
	for _, w := range st.Worlds {
		c.countryTruth = append(c.countryTruth, st.Truth.Slice(w.TruthLo, w.TruthHi))
	}
	c.From, c.To = res.Span()
	return c
}

// Crawls returns the home-filtered crawl records for a vendor (including
// the synthesized combined ecosystem).
func (c *Campaign) Crawls(v trace.Vendor) []trace.CrawlRecord { return c.filteredCrawls[v] }

// Index returns the cached analysis index over a vendor's home-filtered
// crawl log. Indexes are immutable and safe to share across the figure
// computations fanning out on the worker pool.
func (c *Campaign) Index(v trace.Vendor) *analysis.Index { return c.indexes[v] }

// Vendors lists the three analysis ecosystems in figure order — the
// canonical trace.AnalysisVendors, shared with the campaign accumulator
// so the figures and the accumulated indexes never drift on the vendor
// set.
var Vendors = trace.AnalysisVendors
