package experiments

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tagsim/internal/analysis"
	"tagsim/internal/cloud"
	"tagsim/internal/obs"
	"tagsim/internal/pipeline"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// TestStreamingCampaignEquivalence is the campaign's acceptance gate:
// NewCampaign, which streams every world through the pipeline into the
// accumulator, must render every table and figure byte-identically to
// the batch oracle over the materialized raw logs, at any worker count.
func TestStreamingCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	batch := renderWildFigures(batchCampaign(tinyOpts(53, 0)))
	streamed1 := renderWildFigures(NewCampaign(tinyOpts(53, 1)))
	streamed8 := renderWildFigures(NewCampaign(tinyOpts(53, 8)))
	if streamed1 != batch {
		t.Errorf("streamed figures diverged from the batch oracle:\nstreamed:\n%s\nbatch:\n%s", streamed1, batch)
	}
	if streamed8 != streamed1 {
		t.Errorf("streamed figures diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", streamed8, streamed1)
	}
}

// TestStreamingCampaignStateEquivalence checks the campaign's shared
// analysis state — not just the rendered figures — against the batch
// oracle: truth index contents, home filter, homes, span.
func TestStreamingCampaignStateEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	batch := batchCampaign(tinyOpts(59, 0))
	streamed := NewCampaign(tinyOpts(59, 0))
	if got, want := slices.Collect(streamed.Truth.All()), slices.Collect(batch.Truth.All()); !reflect.DeepEqual(got, want) {
		t.Errorf("truth fixes: streamed %d, batch %d (or same count, different fixes)", len(got), len(want))
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
// the streamed campaign against the batch oracle, which materializes
// every raw crawl log (and copies the logs and the raw truth again into
// its merged dataset), while the streamed campaign retains only
// distinct reports and one copy of the raw truth. Informational, but
// the direction is asserted: streaming must not hold more than the
// batch oracle.
func TestStreamingMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	opts := Options{Seed: 71, Scale: 0.1, DevicesPerCity: 200}
	resident := func(build func(Options) *Campaign) (c *Campaign, heap uint64) {
		c = build(opts)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return c, ms.HeapAlloc
	}
	batchC, batchHeap := resident(batchCampaign)
	rawCrawls := 0
	for _, cr := range batchC.Result.Countries {
		rawCrawls += len(cr.Dataset.Crawls[trace.VendorApple]) + len(cr.Dataset.Crawls[trace.VendorSamsung])
	}
	batchC = nil
	runtime.GC()
	streamC, streamHeap := resident(NewCampaign)
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

// liveServices builds fresh serving stores like cmd/tagserve does.
func liveServices(shards int) map[trace.Vendor]*cloud.Service {
	out := map[trace.Vendor]*cloud.Service{}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		out[v] = cloud.NewServiceSharded(v, shards)
	}
	return out
}

// reportRecorder is a pipeline consumer keeping every registration and
// accepted report of the merged stream, in stream order.
type reportRecorder struct {
	regs    []pipeline.Registration
	reports []trace.Report
}

func (r *reportRecorder) Consume(b pipeline.Batch) error {
	r.regs = append(r.regs, b.Registrations...)
	r.reports = append(r.reports, b.Reports...)
	return nil
}

func (r *reportRecorder) Close() error { return nil }

// TestStreamingStoreAndDumpEquivalence runs the same campaign twice —
// streaming into serving stores and a columnar sink at workers=1 and
// at workers=4 — and requires byte-identical store snapshots and dump
// files, equality with a per-tag restore of every accepted report into
// fresh stores (independent of the ingester's per-vendor batching),
// and a dump holding exactly the accepted reports.
func TestStreamingStoreAndDumpEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation is slow")
	}
	delivered := obs.GetCounter("encounter_delivered_total")
	runStreamed := func(workers int) (map[trace.Vendor]*cloud.Service, []byte, *reportRecorder, uint64) {
		cfg := scenario.WildConfig{Seed: 61, Scale: 0.02, DevicesPerCity: 60, Workers: workers}
		services := liveServices(16)
		var dump bytes.Buffer
		rec := &reportRecorder{}
		jobs := scenario.PlanWild(cfg)
		pl := pipeline.New(len(jobs), pipeline.Config{},
			pipeline.NewStoreIngester(services), pipeline.NewReportSink(&dump, 256), rec)
		cfg.Stream = pl
		before := delivered.Value()
		scenario.RunWild(cfg)
		if err := pl.Wait(); err != nil {
			t.Fatal(err)
		}
		return services, dump.Bytes(), rec, delivered.Value() - before
	}
	seq, dumpSeq, _, _ := runStreamed(1)
	par, dumpPar, rec, accepted := runStreamed(4)

	if !bytes.Equal(dumpSeq, dumpPar) {
		t.Error("columnar dump bytes differ across worker counts")
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if !reflect.DeepEqual(seq[v].Snapshot(), par[v].Snapshot()) {
			t.Errorf("%s: streamed store snapshot differs across worker counts", v)
		}
	}

	// The oracle: register every tag, then restore each tag's whole
	// accepted history (every country's reports, in stream order) in
	// one call, tags in map order, into fresh stores. The live-streamed
	// stores must match it.
	batch := liveServices(16)
	for _, reg := range rec.regs {
		batch[reg.Vendor].Register(reg.TagID)
	}
	perTag := map[string][]trace.Report{}
	for _, r := range rec.reports {
		perTag[r.TagID] = append(perTag[r.TagID], r)
	}
	for _, rs := range perTag {
		batch[rs[0].Vendor].Restore(rs)
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if !reflect.DeepEqual(par[v].Snapshot(), batch[v].Snapshot()) {
			t.Errorf("%s: live-streamed store differs from the per-tag restore", v)
		}
	}

	// The dump decodes, is non-trivial, and holds exactly the reports
	// the clouds accepted, in stream order.
	reports, err := pipeline.ReadReports(bytes.NewReader(dumpPar))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(reports)) != accepted {
		t.Errorf("dump holds %d reports, clouds accepted %d", len(reports), accepted)
	}
	if !reflect.DeepEqual(reports, rec.reports) {
		t.Errorf("dump (%d reports) differs from the accepted stream (%d reports)", len(reports), len(rec.reports))
	}
	if len(reports) == 0 {
		t.Error("empty dump: the campaign accepted no reports?")
	}
}

// TestCountryTruthViews: Figure 7 reads each country's view of the
// campaign's filtered truth. Every view must equal what Figure 7 used
// to compute per call — the country's sorted truth filtered by its own
// homes, indexed anew — at any worker count.
func TestCountryTruthViews(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	removed := 0
	for _, seed := range []int64{47, 53, 59} {
		for _, workers := range []int{1, 8} {
			c := NewCampaign(tinyOpts(seed, workers))
			if len(c.countryTruth) != len(c.Result.Countries) {
				t.Fatalf("seed %d workers %d: %d views for %d countries", seed, workers, len(c.countryTruth), len(c.Result.Countries))
			}
			for i, cr := range c.Result.Countries {
				kept, _ := analysis.FilterNearHomes(cr.Dataset.GroundTruth, cr.Homes, 300)
				if want := analysis.NewTruthIndex(kept); !reflect.DeepEqual(c.countryTruth[i], want) {
					t.Errorf("seed %d workers %d %s: view holds %d fixes, want %d", seed, workers, cr.Spec.Code, c.countryTruth[i].Len(), want.Len())
				}
				removed += len(cr.Dataset.GroundTruth) - len(kept)
			}
		}
	}
	if removed == 0 {
		t.Error("the home filter removed no fix in any country; the views were not exercised")
	}
}
