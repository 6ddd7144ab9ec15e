package pipeline

import (
	"fmt"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/runner"
	"tagsim/internal/trace"
)

// WorldData is one world's output as a consumer rebuilt it from the
// stream. The DatasetCollector's holds the raw crawl logs. The
// CampaignAccumulator's crawls are only distinct reports — each
// underlying report once — never the raw crawl log; every analysis
// consumer dedups its input anyway (the dedup is idempotent), so
// figures built from it render byte-identical to datasets built from
// the raw logs.
type WorldData struct {
	// Dataset holds the world's time-sorted ground truth and maps each
	// vendor to its crawl records (the accumulator's are deduped within
	// this world in isolation, matching the per-country dedup Figure 7
	// performs on country datasets).
	Dataset *analysis.Dataset
	// Homes are the participant's detected overnight locations.
	Homes []geo.LatLon
}

// CampaignState is the assembled analysis plane of one streamed
// campaign, built from the live stream.
type CampaignState struct {
	// Worlds holds the per-country data in campaign order.
	Worlds []WorldData
	// Homes concatenates the per-country homes in campaign order.
	Homes []geo.LatLon
	// Truth indexes the home-filtered ground truth of the campaign.
	Truth *analysis.TruthIndex
	// RemovedFrac is the share of fixes dropped by the home filter.
	RemovedFrac float64
	// Merged bundles the campaign's per-vendor distinct crawl records
	// (the raw log's duplicates are already collapsed). It holds no
	// ground truth: the raw fixes live once, in Worlds.
	Merged *analysis.Dataset
	// Filtered maps each ecosystem (including VendorCombined) to its
	// home-filtered distinct crawl records.
	Filtered map[trace.Vendor][]trace.CrawlRecord
	// Indexes maps each ecosystem to its columnar analysis index over
	// (Truth, Filtered).
	Indexes map[trace.Vendor]*analysis.Index
}

// CampaignAccumulator consumes the merged batch stream and builds the
// campaign's analysis state incrementally: crawl records are deduped
// batch by batch (only distinct reports are retained), ground truth
// accumulates per world, and each world's homes are detected the moment
// its stream ends. Close resolves the cross-world parts that need the
// whole campaign — the home filter uses every country's homes, and
// truth resolution needs the final TruthIndex — and fans the per-vendor
// filter+index builds out across the worker pool.
//
// Two dedup scopes run side by side, so both consumers of crawl data
// get exactly what a dedup of the raw logs computes: a campaign-scope
// Deduper per vendor (carried across world boundaries, matching the
// one-pass dedup analysis.NewIndex performs over the merged campaign
// log) and a fresh world-scope Deduper per (world, vendor) (matching the
// isolated per-country dedup of Figure 7's country datasets).
type CampaignAccumulator struct {
	workers int
	worlds  []*worldAcc
	cur     int // world currently streaming (merge delivers in order)
	camp    map[trace.Vendor]*vendorAcc
	state   *CampaignState
}

// vendorAcc is one dedup scope for one vendor.
type vendorAcc struct {
	dedup    *trace.Deduper
	distinct []trace.CrawlRecord
}

func newVendorAcc() *vendorAcc { return &vendorAcc{dedup: trace.NewDeduper()} }

func (va *vendorAcc) add(rec trace.CrawlRecord) {
	if va.dedup.Keep(rec) {
		va.distinct = append(va.distinct, rec)
	}
}

// worldAcc is one world's in-flight accumulation; fixes are in stream
// (upload) order.
type worldAcc struct {
	fixes  []trace.GroundTruth
	homes  []geo.LatLon
	crawls map[trace.Vendor]*vendorAcc
	done   bool
}

// NewCampaignAccumulator builds the consumer for a campaign of the
// given world count. workers bounds the Close-time index-build fan-out
// (0 = one per CPU).
func NewCampaignAccumulator(worlds, workers int) *CampaignAccumulator {
	a := &CampaignAccumulator{
		workers: workers,
		camp:    make(map[trace.Vendor]*vendorAcc),
	}
	for i := 0; i < worlds; i++ {
		a.worlds = append(a.worlds, &worldAcc{crawls: make(map[trace.Vendor]*vendorAcc)})
	}
	return a
}

// Consume implements Consumer.
func (a *CampaignAccumulator) Consume(b Batch) error {
	if b.World < 0 || b.World >= len(a.worlds) {
		return fmt.Errorf("pipeline: batch for world %d, accumulator sized for %d", b.World, len(a.worlds))
	}
	if b.World != a.cur {
		return fmt.Errorf("pipeline: world %d batch while world %d still streaming", b.World, a.cur)
	}
	wa := a.worlds[b.World]
	wa.fixes = append(wa.fixes, b.Fixes...)
	for _, rec := range b.Crawls {
		ca, ok := a.camp[rec.Vendor]
		if !ok {
			ca = newVendorAcc()
			a.camp[rec.Vendor] = ca
		}
		ca.add(rec)
		wv, ok := wa.crawls[rec.Vendor]
		if !ok {
			wv = newVendorAcc()
			wa.crawls[rec.Vendor] = wv
		}
		wv.add(rec)
	}
	if b.Final {
		wa.homes = analysis.DetectHomes(wa.fixes, 300)
		wa.done = true
		a.cur++
	}
	return nil
}

// Name labels this consumer in pipeline stats.
func (a *CampaignAccumulator) Name() string { return "accumulate" }

// Close implements Consumer: it assembles the CampaignState.
func (a *CampaignAccumulator) Close() error {
	for i, wa := range a.worlds {
		if !wa.done {
			return fmt.Errorf("pipeline: world %d stream never finished", i)
		}
	}
	st := &CampaignState{
		Filtered: make(map[trace.Vendor][]trace.CrawlRecord, len(trace.AnalysisVendors)),
		Indexes:  make(map[trace.Vendor]*analysis.Index, len(trace.AnalysisVendors)),
	}
	for _, wa := range a.worlds {
		st.Homes = append(st.Homes, wa.homes...)
	}
	// The 300 m home filter runs world by world in campaign order, so
	// the kept fixes come out in the order a filter over the
	// concatenated stream would keep them and NewTruthIndex's stable
	// sort builds the same index. The stream-order fixes are dropped as
	// soon as the world's sorted dataset exists: the raw truth is never
	// concatenated and stays resident once, in the world datasets.
	var kept []trace.GroundTruth
	total := 0
	for _, wa := range a.worlds {
		for _, f := range wa.fixes {
			if !analysis.NearAnyHome(f.Pos, st.Homes, 300) {
				kept = append(kept, f)
			}
		}
		total += len(wa.fixes)
		crawls := make(map[trace.Vendor][]trace.CrawlRecord, len(wa.crawls))
		for v, wv := range wa.crawls {
			crawls[v] = wv.distinct
		}
		st.Worlds = append(st.Worlds, WorldData{Dataset: analysis.NewDataset(wa.fixes, crawls), Homes: wa.homes})
		wa.fixes, wa.crawls = nil, nil
	}
	if total > 0 {
		st.RemovedFrac = float64(total-len(kept)) / float64(total)
	}
	st.Truth = analysis.NewTruthIndex(kept)
	mergedCrawls := make(map[trace.Vendor][]trace.CrawlRecord, len(a.camp))
	for v, ca := range a.camp {
		mergedCrawls[v] = ca.distinct
	}
	st.Merged = analysis.NewDataset(nil, mergedCrawls)
	// Per-vendor home filter + index builds are independent read-only
	// passes; fan them out on the worker pool.
	type vendorPlane struct {
		crawls []trace.CrawlRecord
		index  *analysis.Index
	}
	planes := runner.Map(a.workers, len(trace.AnalysisVendors), func(i int) vendorPlane {
		crawls := analysis.FilterCrawlsNearHomes(st.Merged.CrawlsFor(trace.AnalysisVendors[i]), st.Homes, 300)
		return vendorPlane{crawls: crawls, index: analysis.NewIndex(st.Truth, crawls)}
	})
	for i, v := range trace.AnalysisVendors {
		st.Filtered[v] = planes[i].crawls
		st.Indexes[v] = planes[i].index
	}
	a.state = st
	return nil
}

// State returns the assembled campaign state. Valid only after the
// pipeline's Wait returned nil.
func (a *CampaignAccumulator) State() *CampaignState { return a.state }
