package experiments

import (
	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/runner"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// batchCampaign is the independent oracle for NewCampaign: it first
// materializes every raw log in the country datasets (the collector of
// scenario.CollectWild keeps them all, undeduped) and only then derives
// the shared analysis state from them — the home filter over the merged
// raw truth, the per-vendor filters over the raw crawl logs. The
// streamed campaign must render every figure byte-identically to it.
func batchCampaign(opts Options) *Campaign {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	res, err := scenario.CollectWild(opts.wildConfig())
	if err != nil {
		panic(err)
	}
	return newCampaignFromResult(opts, res)
}

// newCampaignFromResult prepares the shared analysis state over an
// already-simulated campaign.
func newCampaignFromResult(opts Options, res *scenario.WildResult) *Campaign {
	merged := mergedDataset(res)

	var homes []geo.LatLon
	for _, c := range res.Countries {
		homes = append(homes, c.Homes...)
	}
	kept, removed := analysis.FilterNearHomes(merged.GroundTruth, homes, 300)

	c := &Campaign{
		Options:        opts,
		Result:         res,
		Homes:          homes,
		Truth:          analysis.NewTruthIndex(kept),
		RemovedFrac:    removed,
		filteredCrawls: make(map[trace.Vendor][]trace.CrawlRecord),
	}
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
	// Each country's view is the filter Figure 7 once ran per call.
	for _, cr := range res.Countries {
		kept, _ := analysis.FilterNearHomes(cr.Dataset.GroundTruth, cr.Homes, 300)
		c.countryTruth = append(c.countryTruth, analysis.NewTruthIndex(kept))
	}
	c.From, c.To = res.Span()
	return c
}

// mergedDataset concatenates all countries' data into one dataset (the
// stays are disjoint in time by construction).
func mergedDataset(res *scenario.WildResult) *analysis.Dataset {
	var gt []trace.GroundTruth
	crawls := map[trace.Vendor][]trace.CrawlRecord{}
	for _, c := range res.Countries {
		gt = append(gt, c.Dataset.GroundTruth...)
		for v, recs := range c.Dataset.Crawls {
			crawls[v] = append(crawls[v], recs...)
		}
	}
	return analysis.NewDataset(gt, crawls)
}
