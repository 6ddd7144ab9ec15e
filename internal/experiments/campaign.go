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
	"tagsim/internal/runner"
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
	Result  *scenario.WildResult
	// Merged is the raw merged dataset across countries.
	Merged *analysis.Dataset
	// Homes are the detected overnight locations across the campaign.
	Homes []geo.LatLon
	// Truth indexes the home-filtered ground truth.
	Truth *analysis.TruthIndex
	// RemovedFrac is the share of fixes dropped by the home filter (the
	// paper reports 65%).
	RemovedFrac float64
	// Filtered crawl records per vendor (incl. VendorCombined). In a
	// streamed campaign these hold only distinct reports (the raw crawl
	// log never materialized); every accuracy consumer dedups its input
	// anyway, so the two forms analyze identically.
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
// By default the campaign streams: scan ticks publish report batches
// through the pipeline while the simulation runs, and the analysis
// state grows incrementally from distinct crawl records — the raw crawl
// log never materializes. pipeline.SetStreaming(false) reverts to the
// historical batch path (simulate everything, then analyze), which the
// equivalence tests pin byte-identical figure for figure.
func NewCampaign(opts Options) *Campaign {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if pipeline.Streaming() {
		return newCampaignStreamed(opts)
	}
	return newCampaignFromResult(opts, scenario.RunWild(opts.wildConfig()))
}

// newCampaignStreamed runs the campaign through the streaming pipeline:
// one CampaignAccumulator consumes the merged world streams while the
// country engines are still running, and the Campaign assembles from
// its state. Country datasets are reattached from the accumulator's
// per-world data (ground truth in full, crawls as distinct reports), so
// the per-country figures (6, 7) read exactly what they would have
// computed from the raw logs — every analysis consumer dedups anyway.
func newCampaignStreamed(opts Options) *Campaign {
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
	for i := range res.Countries {
		w := st.Worlds[i]
		res.Countries[i].Dataset = analysis.NewDataset(w.Fixes, w.Crawls)
		res.Countries[i].Homes = w.Homes
	}
	c := &Campaign{
		Options:        opts,
		Result:         res,
		Merged:         st.Merged,
		Homes:          st.Homes,
		Truth:          st.Truth,
		RemovedFrac:    st.RemovedFrac,
		filteredCrawls: st.Filtered,
		indexes:        st.Indexes,
	}
	c.From, c.To = res.Span()
	return c
}

// newCampaignFromResult prepares the shared analysis state over an
// already-simulated campaign (NewCampaign's second half, reused by the
// replicate fan-out so simulation and analysis parallelize separately).
func newCampaignFromResult(opts Options, res *scenario.WildResult) *Campaign {
	merged := res.MergedDataset()

	var homes []geo.LatLon
	for _, c := range res.Countries {
		homes = append(homes, c.Homes...)
	}
	kept, removed := analysis.FilterNearHomes(merged.GroundTruth, homes, 300)

	c := &Campaign{
		Options:        opts,
		Result:         res,
		Merged:         merged,
		Homes:          homes,
		Truth:          analysis.NewTruthIndex(kept),
		RemovedFrac:    removed,
		filteredCrawls: make(map[trace.Vendor][]trace.CrawlRecord),
	}
	// The per-vendor home filter + index builds are independent passes
	// over disjoint outputs; fan them out on the same worker knob.
	type vendorPlane struct {
		crawls []trace.CrawlRecord
		index  *analysis.Index
	}
	planes := runner.Map(opts.Workers, len(Vendors), func(i int) vendorPlane {
		crawls := analysis.FilterCrawlsNearHomes(merged.CrawlsFor(Vendors[i]), homes, 300)
		return vendorPlane{crawls: crawls, index: analysis.NewIndex(c.Truth, crawls)}
	})
	c.indexes = make(map[trace.Vendor]*analysis.Index, len(Vendors))
	for i, v := range Vendors {
		c.filteredCrawls[v] = planes[i].crawls
		c.indexes[v] = planes[i].index
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
// canonical trace.AnalysisVendors, shared with the streaming campaign
// accumulator so the two paths can never drift on the vendor set.
var Vendors = trace.AnalysisVendors
