package pipeline

import (
	"errors"
	"fmt"
	"slices"

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
	// [TruthLo, TruthHi) is the world's range of CampaignState.Truth,
	// its truth filtered by its own homes (zero from DatasetCollector).
	TruthLo, TruthHi int
}

// CampaignState is the assembled analysis plane of one streamed
// campaign, built from the live stream.
type CampaignState struct {
	// Worlds holds the per-country data in campaign order.
	Worlds []WorldData
	// Homes concatenates the per-country homes in campaign order.
	Homes []geo.LatLon
	// Truth indexes the campaign's home-filtered truth: the worlds' ranges.
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

// Close's errors where the worlds' own-home ranges would diverge from
// the stable sort of the fixes kept by every world's homes.
var (
	errCrossWorldHome = errors.New("pipeline: kept fix within 300 m of another world's home")
	errInterleaved    = errors.New("pipeline: world truths interleave")
)

// CampaignAccumulator consumes the merged batch stream and builds the
// campaign's analysis state incrementally: crawl records are deduped
// batch by batch (only distinct reports are retained), ground truth
// accumulates per world, and each world's homes are detected the moment
// its stream ends. Close sorts and home-filters each world's truth, and
// fans the per-vendor filter+index builds out across the worker pool.
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

// addTo adds rec to its vendor's scope in scopes, opening it on first use.
func addTo(scopes map[trace.Vendor]*vendorAcc, rec trace.CrawlRecord) {
	va, ok := scopes[rec.Vendor]
	if !ok {
		va = &vendorAcc{dedup: trace.NewDeduper()}
		scopes[rec.Vendor] = va
	}
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
		addTo(a.camp, rec)
		addTo(wa.crawls, rec)
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
	// Each world's sorted truth is filtered by its own homes; a filter
	// keeps relative order, so the kept fixes stay stable-sorted. This
	// runs here, not at the world's Final, where the sorted copies raised
	// peak RSS while later worlds still simulated.
	var kept []trace.GroundTruth
	total := 0
	for i, wa := range a.worlds {
		crawls := make(map[trace.Vendor][]trace.CrawlRecord, len(wa.crawls))
		for v, wv := range wa.crawls {
			crawls[v] = wv.distinct
		}
		ds := analysis.NewDataset(wa.fixes, crawls)
		wa.fixes, wa.crawls = nil, nil
		lo := len(kept)
		for _, f := range ds.GroundTruth {
			if analysis.NearAnyHome(f.Pos, wa.homes, 300) {
				continue
			}
			// Never near its own world's homes, so this tests the others'.
			if analysis.NearAnyHome(f.Pos, st.Homes, 300) {
				return fmt.Errorf("pipeline: world %d keeps a fix at %v: %w", i, f.T, errCrossWorldHome)
			}
			kept = append(kept, f)
		}
		st.Worlds = append(st.Worlds, WorldData{Dataset: ds, Homes: wa.homes, TruthLo: lo, TruthHi: len(kept)})
		total += len(ds.GroundTruth)
	}
	var err error
	if st.Truth, err = analysis.NewSortedTruthIndex(slices.Clone(kept)); err != nil {
		return fmt.Errorf("%w: %w", errInterleaved, err)
	}
	if total > 0 {
		st.RemovedFrac = float64(total-len(kept)) / float64(total)
	}
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
