package pipeline

import (
	"fmt"
	"io"
	"os"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/runner"
	"tagsim/internal/trace"
)

// WorldData is one world's accumulated campaign output: the compact
// replacement for scenario's in-world dataset retention. Crawls holds
// only distinct reports — each underlying report once — never the raw
// crawl log; every analysis consumer dedups its input anyway (the dedup
// is idempotent), so figures built from WorldData render byte-identical
// to the batch path.
type WorldData struct {
	// Fixes is the world's uploaded ground truth, in fix-time order.
	Fixes []trace.GroundTruth
	// Crawls maps each vendor to its distinct crawl records, deduped
	// within this world in isolation (matching the per-country dedup
	// Figure 7 performs on country datasets).
	Crawls map[trace.Vendor][]trace.CrawlRecord
	// Homes are the participant's detected overnight locations.
	Homes []geo.LatLon
}

// CampaignState is the assembled analysis plane of one streamed
// campaign: everything experiments.Campaign derives from materialized
// datasets, built instead from the live stream.
type CampaignState struct {
	// Worlds holds the per-country data in campaign order.
	Worlds []WorldData
	// Homes concatenates the per-country homes in campaign order.
	Homes []geo.LatLon
	// Truth indexes the home-filtered ground truth of the campaign.
	Truth *analysis.TruthIndex
	// RemovedFrac is the share of fixes dropped by the home filter.
	RemovedFrac float64
	// Merged bundles the campaign's ground truth with the per-vendor
	// distinct crawl records (the raw log's duplicates are already
	// collapsed).
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
// get exactly what the batch path computes: a campaign-scope Deduper
// per vendor (carried across world boundaries, matching the one-pass
// dedup analysis.NewIndex performs over the merged campaign log) and a
// fresh world-scope Deduper per (world, vendor) (matching the isolated
// per-country dedup of Figure 7's country datasets).
type CampaignAccumulator struct {
	workers  int
	worlds   []*worldAcc
	cur      int // world currently streaming (merge delivers in order)
	camp     map[trace.Vendor]*vendorAcc
	spilling bool // ground truth spills to disk (analysis.SetResidentTruth(false))
	state    *CampaignState
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

// worldAcc is one world's in-flight accumulation. In spill mode (see
// analysis.SetResidentTruth) fixes stays nil: ground truth streams to
// an anonymous temp file through the columnar truth writer, and homes
// are detected by the incremental detector as the fixes pass by.
type worldAcc struct {
	fixes  []trace.GroundTruth
	spill  *truthSpillFile
	homes  []geo.LatLon
	crawls map[trace.Vendor]*vendorAcc
	done   bool
}

// truthSpillFile is one world's ground-truth spill: an already-unlinked
// temp file (no disk entry survives a crash) written through the
// columnar writer, plus the streaming home detector fed in lockstep.
type truthSpillFile struct {
	f       *os.File
	w       *TruthWriter
	homeDet *analysis.HomeDetector
	size    int64
}

func newTruthSpillFile() (*truthSpillFile, error) {
	f, err := os.CreateTemp("", "tagsim-truth-*.col")
	if err != nil {
		return nil, fmt.Errorf("pipeline: truth spill: %w", err)
	}
	// Unlink immediately: the fd keeps the data alive and the entry
	// cannot leak, even on a crash.
	os.Remove(f.Name())
	return &truthSpillFile{f: f, w: NewTruthWriter(f, 0), homeDet: analysis.NewHomeDetector(300)}, nil
}

func (ts *truthSpillFile) append(fixes []trace.GroundTruth) error {
	if err := ts.w.Append(fixes...); err != nil {
		return err
	}
	for _, f := range fixes {
		ts.homeDet.Add(f)
	}
	return nil
}

// finish closes the writer and returns a streaming reader over the
// world's spilled fixes.
func (ts *truthSpillFile) finish() error {
	if err := ts.w.Close(); err != nil {
		return err
	}
	size, err := ts.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	ts.size = size
	return nil
}

func (ts *truthSpillFile) reader() (*TruthReader, error) {
	return NewTruthReader(io.NewSectionReader(ts.f, 0, ts.size))
}

// NewCampaignAccumulator builds the consumer for a campaign of the
// given world count. workers bounds the Close-time index-build fan-out
// (0 = one per CPU). The resident-vs-spill mode for ground truth is
// sampled once here from analysis.ResidentTruth, so a mid-campaign
// toggle cannot mix backends.
func NewCampaignAccumulator(worlds, workers int) *CampaignAccumulator {
	a := &CampaignAccumulator{
		workers:  workers,
		camp:     make(map[trace.Vendor]*vendorAcc),
		spilling: !analysis.ResidentTruth(),
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
	if a.spilling {
		if wa.spill == nil {
			ts, err := newTruthSpillFile()
			if err != nil {
				return err
			}
			wa.spill = ts
		}
		if err := wa.spill.append(b.Fixes); err != nil {
			return err
		}
	} else {
		wa.fixes = append(wa.fixes, b.Fixes...)
	}
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
		if a.spilling {
			if wa.spill != nil {
				if err := wa.spill.finish(); err != nil {
					return err
				}
				wa.homes = wa.spill.homeDet.Homes()
			}
		} else {
			wa.homes = analysis.DetectHomes(wa.fixes, 300)
		}
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
			a.closeSpills()
			return fmt.Errorf("pipeline: world %d stream never finished", i)
		}
	}
	st := &CampaignState{
		Filtered: make(map[trace.Vendor][]trace.CrawlRecord, len(trace.AnalysisVendors)),
		Indexes:  make(map[trace.Vendor]*analysis.Index, len(trace.AnalysisVendors)),
	}
	var allFixes []trace.GroundTruth
	mergedCrawls := make(map[trace.Vendor][]trace.CrawlRecord)
	for _, wa := range a.worlds {
		wd := WorldData{Fixes: wa.fixes, Homes: wa.homes, Crawls: make(map[trace.Vendor][]trace.CrawlRecord, len(wa.crawls))}
		for v, wv := range wa.crawls {
			wd.Crawls[v] = wv.distinct
		}
		st.Worlds = append(st.Worlds, wd)
		st.Homes = append(st.Homes, wa.homes...)
		allFixes = append(allFixes, wa.fixes...)
	}
	for v, ca := range a.camp {
		mergedCrawls[v] = ca.distinct
	}
	if a.spilling {
		truth, removed, err := a.mergeSpilledTruth(st.Homes)
		if err != nil {
			return err
		}
		st.Truth = truth
		st.RemovedFrac = removed
		// Raw-fix consumers (hexagon figures, per-country dataset
		// reattachment) see empty ground truth in spill mode; the
		// accuracy plane runs entirely through the TruthIndex and Index
		// columns built below, and the headline's episodes walk the
		// spilled truth through TruthIndex.All.
		st.Merged = analysis.NewDataset(nil, mergedCrawls)
	} else {
		kept, removed := analysis.FilterNearHomes(allFixes, st.Homes, 300)
		st.Truth = analysis.NewTruthIndex(kept)
		st.RemovedFrac = removed
		st.Merged = analysis.NewDataset(allFixes, mergedCrawls)
	}
	// Per-vendor home filter + index builds are independent read-only
	// passes; fan them out like the batch campaign does.
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

// truthCursor walks one world's spilled truth frame by frame.
type truthCursor struct {
	r     *TruthReader
	frame []trace.GroundTruth
	pos   int
}

// head returns the cursor's current fix; ok is false when drained.
func (c *truthCursor) head() (trace.GroundTruth, bool) {
	if c.pos < len(c.frame) {
		return c.frame[c.pos], true
	}
	return trace.GroundTruth{}, false
}

// fill loads frames until the cursor has a head or drains.
func (c *truthCursor) fill() error {
	for c.pos >= len(c.frame) {
		frame, err := c.r.Next()
		if err == io.EOF {
			c.frame, c.pos = nil, 0
			return nil
		}
		if err != nil {
			return err
		}
		c.frame, c.pos = frame, 0
	}
	return nil
}

// ownedSection is a closeable ReaderAt over a spill file: closing the
// truth store (via TruthIndex.Close) releases the fd of the unlinked
// temp file, which is the file's last reference.
type ownedSection struct {
	*io.SectionReader
	f *os.File
}

func (o ownedSection) Close() error { return o.f.Close() }

// mergeSpilledTruth streams every world's spilled ground truth through
// one k-way time-ordered merge, dropping fixes near any campaign home
// (the same 300 m filter the resident path applies), into a final
// sorted columnar log — the file the campaign's disk-backed TruthIndex
// then serves At/HasCoverage queries from. Peak memory is one frame per
// world plus the output frame, regardless of campaign size. Ties on the
// fix instant break by world order, matching the concatenation order
// the resident path sorts.
func (a *CampaignAccumulator) mergeSpilledTruth(homes []geo.LatLon) (*analysis.TruthIndex, float64, error) {
	// The per-world spills are drained by the time the merge returns,
	// and useless if it fails: release their fds on every exit.
	defer a.closeSpills()
	var cursors []*truthCursor
	for _, wa := range a.worlds {
		if wa.spill == nil {
			continue
		}
		r, err := wa.spill.reader()
		if err != nil {
			return nil, 0, err
		}
		c := &truthCursor{r: r}
		if err := c.fill(); err != nil {
			return nil, 0, err
		}
		cursors = append(cursors, c)
	}
	out, err := os.CreateTemp("", "tagsim-truth-merged-*.col")
	if err != nil {
		return nil, 0, fmt.Errorf("pipeline: truth merge: %w", err)
	}
	os.Remove(out.Name())
	w := NewTruthWriter(out, 0)
	var total, kept int
	for {
		best := -1
		var bestT int64
		for i, c := range cursors {
			f, ok := c.head()
			if !ok {
				continue
			}
			if t := f.T.UnixNano(); best == -1 || t < bestT {
				best, bestT = i, t
			}
		}
		if best == -1 {
			break
		}
		c := cursors[best]
		f, _ := c.head()
		c.pos++
		if err := c.fill(); err != nil {
			out.Close()
			return nil, 0, err
		}
		total++
		if analysis.NearAnyHome(f.Pos, homes, 300) {
			continue
		}
		kept++
		if err := w.Append(f); err != nil {
			out.Close()
			return nil, 0, err
		}
	}
	if err := w.Close(); err != nil {
		out.Close()
		return nil, 0, err
	}
	size, err := out.Seek(0, io.SeekCurrent)
	if err != nil {
		out.Close()
		return nil, 0, err
	}
	tf, err := OpenTruthFile(ownedSection{io.NewSectionReader(out, 0, size), out}, size)
	if err != nil {
		out.Close()
		return nil, 0, err
	}
	var removed float64
	if total > 0 {
		removed = float64(total-kept) / float64(total)
	}
	return analysis.NewDiskTruthIndex(tf), removed, nil
}

// closeSpills releases every world's spill fd — the last reference to
// the unlinked file. Safe to call more than once.
func (a *CampaignAccumulator) closeSpills() {
	for _, wa := range a.worlds {
		if wa.spill != nil {
			wa.spill.f.Close()
		}
	}
}

// State returns the assembled campaign state. Valid only after the
// pipeline's Wait returned nil.
func (a *CampaignAccumulator) State() *CampaignState { return a.state }
