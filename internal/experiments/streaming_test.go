package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tagsim/internal/analysis"
	"tagsim/internal/cloud"
	"tagsim/internal/pipeline"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// withStreaming runs fn with the streaming toggle forced to on/off.
func withStreaming(t *testing.T, enabled bool, fn func()) {
	t.Helper()
	was := pipeline.SetStreaming(enabled)
	defer pipeline.SetStreaming(was)
	fn()
}

// TestStreamingCampaignEquivalence is the PR's acceptance gate: a
// campaign streamed through the pipeline must render every table and
// figure byte-identically to the batch path, at any worker count.
func TestStreamingCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	var batch, streamed1, streamed8 string
	withStreaming(t, false, func() { batch = renderWildFigures(NewCampaign(tinyOpts(53, 0))) })
	withStreaming(t, true, func() { streamed1 = renderWildFigures(NewCampaign(tinyOpts(53, 1))) })
	withStreaming(t, true, func() { streamed8 = renderWildFigures(NewCampaign(tinyOpts(53, 8))) })
	if streamed1 != batch {
		t.Errorf("streamed figures diverged from batch path:\nstreamed:\n%s\nbatch:\n%s", streamed1, batch)
	}
	if streamed8 != streamed1 {
		t.Errorf("streamed figures diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", streamed8, streamed1)
	}
}

// TestStreamingCampaignStateEquivalence checks the campaign's shared
// analysis state — not just the rendered figures — between the two
// paths: truth index size, home filter, homes, span.
func TestStreamingCampaignStateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	var batch, streamed *Campaign
	withStreaming(t, false, func() { batch = NewCampaign(tinyOpts(59, 0)) })
	withStreaming(t, true, func() { streamed = NewCampaign(tinyOpts(59, 0)) })
	if got, want := streamed.Truth.Len(), batch.Truth.Len(); got != want {
		t.Errorf("truth fixes: streamed %d, batch %d", got, want)
	}
	if streamed.RemovedFrac != batch.RemovedFrac {
		t.Errorf("removed fraction: streamed %v, batch %v", streamed.RemovedFrac, batch.RemovedFrac)
	}
	if !reflect.DeepEqual(streamed.Homes, batch.Homes) {
		t.Errorf("homes differ: streamed %d, batch %d", len(streamed.Homes), len(batch.Homes))
	}
	if !streamed.From.Equal(batch.From) || !streamed.To.Equal(batch.To) {
		t.Error("campaign spans differ")
	}
	for i := range batch.Result.Countries {
		b, s := &batch.Result.Countries[i], &streamed.Result.Countries[i]
		if !reflect.DeepEqual(s.Dataset.GroundTruth, b.Dataset.GroundTruth) {
			t.Errorf("%s: streamed ground truth differs from batch", b.Spec.Code)
		}
		if s.AppleNow != b.AppleNow || s.SamsungNow != b.SamsungNow {
			t.Errorf("%s: Now counts differ: streamed %d/%d, batch %d/%d",
				b.Spec.Code, s.AppleNow, s.SamsungNow, b.AppleNow, b.SamsungNow)
		}
		// Streamed country datasets hold distinct reports; the batch
		// raw log must collapse to exactly them.
		for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
			want := trace.DistinctReports(b.Dataset.CrawlsFor(v))
			got := s.Dataset.CrawlsFor(v)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: streamed distinct crawls (%d) != dedup of batch raw log (%d)",
					b.Spec.Code, v, len(got), len(want))
			}
		}
	}
	// The per-vendor filtered logs must dedup to the same records.
	for _, v := range Vendors {
		want := trace.DistinctReports(batch.Crawls(v))
		got := streamed.Crawls(v)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed filtered crawls (%d) != dedup of batch filtered crawls (%d)", v, len(got), len(want))
		}
	}
}

// TestStreamingMemoryFootprint measures the campaign-resident heap of
// the two paths: the batch path materializes every raw crawl log (and
// copies it again into the merged dataset), while the streamed path
// retains only distinct reports. Informational — the numbers recorded
// in BENCH_pipeline.json come from a larger run of this measurement —
// but the direction is asserted: streaming must not hold more than the
// batch path it replaces.
func TestStreamingMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	resident := func(enabled bool) (c *Campaign, heap uint64) {
		withStreaming(t, enabled, func() { c = NewCampaign(Options{Seed: 71, Scale: 0.1, DevicesPerCity: 200}) })
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return c, ms.HeapAlloc
	}
	batchC, batchHeap := resident(false)
	rawCrawls := 0
	for _, cr := range batchC.Result.Countries {
		rawCrawls += len(cr.Dataset.Crawls[trace.VendorApple]) + len(cr.Dataset.Crawls[trace.VendorSamsung])
	}
	batchC = nil
	runtime.GC()
	streamC, streamHeap := resident(true)
	distinctCrawls := 0
	for _, cr := range streamC.Result.Countries {
		distinctCrawls += len(cr.Dataset.Crawls[trace.VendorApple]) + len(cr.Dataset.Crawls[trace.VendorSamsung])
	}
	t.Logf("resident heap: batch %.1f MB (%d raw crawl records), streamed %.1f MB (%d distinct records)",
		float64(batchHeap)/(1<<20), rawCrawls, float64(streamHeap)/(1<<20), distinctCrawls)
	if distinctCrawls >= rawCrawls {
		t.Errorf("streaming retained %d crawl records, batch raw log has %d — no dedup happened", distinctCrawls, rawCrawls)
	}
	// Allow a little GC noise, but streaming must not regress memory.
	if float64(streamHeap) > float64(batchHeap)*1.05 {
		t.Errorf("streamed campaign resident heap %.1f MB exceeds batch %.1f MB", float64(streamHeap)/(1<<20), float64(batchHeap)/(1<<20))
	}
	runtime.KeepAlive(streamC)
}

// withResidentTruth runs fn with the truth-spill toggle forced.
func withResidentTruth(t *testing.T, resident bool, fn func()) {
	t.Helper()
	was := analysis.SetResidentTruth(resident)
	defer analysis.SetResidentTruth(was)
	fn()
}

// renderSpillSafeFigures renders the wild-campaign artifacts that read
// ground truth only through the TruthIndex/Index surface (At, coverage,
// speed, and the time-ordered All walk behind the headline's episodes) —
// everything except Figures 6-7, which read per-country raw fixes and
// still need resident truth.
func renderSpillSafeFigures(c *Campaign) string {
	var b strings.Builder
	b.WriteString(Headline(c).Render())
	b.WriteString(Table1(c).Render())
	for _, radius := range []float64{10, 25, 100} {
		b.WriteString(Figure5Sweep(c, radius).Render())
	}
	b.WriteString(Figure5d(c).Render())
	b.WriteString(Figure5e(c).Render())
	b.WriteString(Figure5f(c).Render())
	b.WriteString(Figure8(c).Render())
	return b.String()
}

// TestTruthSpillCampaignEquivalence is the disk-backed-truth acceptance
// gate: a campaign whose ground truth spills to columnar temp files must
// reproduce the resident campaign's analysis state (truth size and span,
// home filter, homes) and render every spill-safe figure byte-identically.
func TestTruthSpillCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	var resident, spilled *Campaign
	withStreaming(t, true, func() {
		withResidentTruth(t, true, func() { resident = NewCampaign(tinyOpts(67, 0)) })
		withResidentTruth(t, false, func() { spilled = NewCampaign(tinyOpts(67, 0)) })
	})
	defer spilled.Truth.Close()

	if got, want := spilled.Truth.Len(), resident.Truth.Len(); got != want {
		t.Errorf("truth fixes: spilled %d, resident %d", got, want)
	}
	sf, st, sok := spilled.Truth.Span()
	rf, rt, rok := resident.Truth.Span()
	if sok != rok || !sf.Equal(rf) || !st.Equal(rt) {
		t.Errorf("truth span: spilled (%v,%v,%v), resident (%v,%v,%v)", sf, st, sok, rf, rt, rok)
	}
	if spilled.RemovedFrac != resident.RemovedFrac {
		t.Errorf("removed fraction: spilled %v, resident %v", spilled.RemovedFrac, resident.RemovedFrac)
	}
	if !reflect.DeepEqual(spilled.Homes, resident.Homes) {
		t.Errorf("homes differ: spilled %d, resident %d", len(spilled.Homes), len(resident.Homes))
	}
	if got, want := renderSpillSafeFigures(spilled), renderSpillSafeFigures(resident); got != want {
		t.Errorf("spill-safe figures diverged:\nspilled:\n%s\nresident:\n%s", got, want)
	}
	// The documented trade: raw fixes are on disk, not in the datasets.
	if len(spilled.Merged.GroundTruth) != 0 {
		t.Errorf("spilled campaign retained %d raw fixes in the merged dataset", len(spilled.Merged.GroundTruth))
	}
}

// TestTruthSpillMemoryFootprint measures the campaign-resident heap with
// truth resident versus spilled. Informational like its streaming
// sibling — BENCH_world.json records the numbers from a larger run — but
// the structural claim is asserted: the spilled campaign holds no raw
// fix slices.
func TestTruthSpillMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	build := func(residentTruth bool) (c *Campaign, heap uint64) {
		withStreaming(t, true, func() {
			withResidentTruth(t, residentTruth, func() {
				c = NewCampaign(Options{Seed: 73, Scale: 0.1, DevicesPerCity: 200})
			})
		})
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return c, ms.HeapAlloc
	}
	residentC, residentHeap := build(true)
	fixes := residentC.Truth.Len()
	residentC = nil
	runtime.GC()
	spilledC, spilledHeap := build(false)
	defer spilledC.Truth.Close()
	if got := spilledC.Truth.Len(); got != fixes {
		t.Errorf("spilled campaign indexed %d fixes, resident %d", got, fixes)
	}
	for _, cr := range spilledC.Result.Countries {
		if len(cr.Dataset.GroundTruth) != 0 {
			t.Errorf("%s: spilled campaign retained %d raw fixes", cr.Spec.Code, len(cr.Dataset.GroundTruth))
		}
	}
	t.Logf("resident heap: truth-resident %.1f MB, truth-spilled %.1f MB (%d fixes on disk)",
		float64(residentHeap)/(1<<20), float64(spilledHeap)/(1<<20), fixes)
	runtime.KeepAlive(spilledC)
}

// liveServices builds fresh serving stores like cmd/tagserve does.
func liveServices(shards int) map[trace.Vendor]*cloud.Service {
	out := map[trace.Vendor]*cloud.Service{}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		out[v] = cloud.NewServiceSharded(v, shards)
	}
	return out
}

// TestStreamingStoreAndDumpEquivalence runs the same campaign twice —
// once streaming into serving stores and a columnar sink at workers=4,
// once at workers=1 with a collector standing in for the batch path —
// and requires byte-identical store snapshots and dump files, plus
// equality with cmd/tagserve's batch restore from the country clouds.
func TestStreamingStoreAndDumpEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation is slow")
	}
	runStreamed := func(workers int) (map[trace.Vendor]*cloud.Service, []byte, *scenario.WildResult) {
		cfg := scenario.WildConfig{Seed: 61, Scale: 0.02, DevicesPerCity: 60, Workers: workers}
		services := liveServices(16)
		var dump bytes.Buffer
		jobs := scenario.PlanWild(cfg)
		pl := pipeline.New(len(jobs), pipeline.Config{},
			pipeline.NewStoreIngester(services), pipeline.NewReportSink(&dump, 256))
		cfg.Stream = pl
		res := scenario.RunWild(cfg)
		if err := pl.Wait(); err != nil {
			t.Fatal(err)
		}
		return services, dump.Bytes(), res
	}
	seq, dumpSeq, _ := runStreamed(1)
	par, dumpPar, res := runStreamed(4)

	if !bytes.Equal(dumpSeq, dumpPar) {
		t.Error("columnar dump bytes differ across worker counts")
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if !reflect.DeepEqual(seq[v].Snapshot(), par[v].Snapshot()) {
			t.Errorf("%s: streamed store snapshot differs across worker counts", v)
		}
	}

	// The batch path: restore each country's accepted cloud state into
	// fresh stores after the fact, exactly like cmd/tagserve's
	// campaign mode. The live-streamed stores must match it.
	batch := liveServices(16)
	for _, cr := range res.Countries {
		for v, svc := range cr.Clouds {
			dst, ok := batch[v]
			if !ok {
				continue
			}
			for _, tagID := range svc.TagIDs() {
				dst.Register(tagID)
				dst.Restore(svc.History(tagID))
			}
		}
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if !reflect.DeepEqual(par[v].Snapshot(), batch[v].Snapshot()) {
			t.Errorf("%s: live-streamed store differs from batch restore", v)
		}
	}

	// The dump decodes, is non-trivial, and holds exactly the reports
	// the clouds accepted.
	reports, err := pipeline.ReadReports(bytes.NewReader(dumpPar))
	if err != nil {
		t.Fatal(err)
	}
	var accepted uint64
	for _, cr := range res.Countries {
		for _, svc := range cr.Clouds {
			a, _ := svc.Stats()
			accepted += a
		}
	}
	if uint64(len(reports)) != accepted {
		t.Errorf("dump holds %d reports, clouds accepted %d", len(reports), accepted)
	}
	if len(reports) == 0 {
		t.Error("empty dump: the campaign accepted no reports?")
	}
}
