package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/runner"
	"tagsim/internal/trace"
)

var (
	t0   = time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC)
	base = geo.LatLon{Lat: 24.45, Lon: 54.37}
)

// synthReport fabricates world w's i-th report deterministically.
func synthReport(w, i int) trace.Report {
	at := t0.Add(time.Duration(w)*24*time.Hour + time.Duration(i)*200*time.Second)
	v := trace.VendorApple
	tag := "airtag-1"
	if i%3 == 1 {
		v, tag = trace.VendorSamsung, "smarttag-1"
	}
	return trace.Report{
		T: at.Add(2 * time.Second), HeardAt: at,
		TagID: tag, Vendor: v,
		ReporterID: fmt.Sprintf("w%d-dev%03d", w, i),
		Pos:        geo.Destination(base, float64(i%360), float64(w*100+i)),
		RSSI:       -40 - float64(i%50),
	}
}

func synthFix(w, i int) trace.GroundTruth {
	at := t0.Add(time.Duration(w)*24*time.Hour + time.Duration(i)*5*time.Second)
	return trace.GroundTruth{T: at, Pos: geo.Destination(base, float64(i%360), float64(i)), VantageID: fmt.Sprintf("vp-%d", w), UploadedAt: at.Add(time.Minute)}
}

func synthCrawl(w, i int) trace.CrawlRecord {
	at := t0.Add(time.Duration(w)*24*time.Hour + time.Duration(i)*time.Minute)
	return trace.CrawlRecord{
		CrawlT: at, TagID: "airtag-1", Vendor: trace.VendorApple,
		Pos: geo.Destination(base, float64(i%7)*10, float64(i%11)*50), ReportedAt: at.Add(-time.Minute), AgeMinutes: 1,
	}
}

// collector keeps every batch it sees (batches are immutable).
type collector struct {
	mu      sync.Mutex
	batches []Batch
	closed  bool
}

func (c *collector) Consume(b Batch) error {
	c.mu.Lock()
	c.batches = append(c.batches, b)
	c.mu.Unlock()
	return nil
}

func (c *collector) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// runWorlds drives nWorlds concurrent emitters with nPerWorld reports
// each (plus a few fixes and crawls), sleeping pseudo-randomly to
// shuffle the real-time interleaving between runs.
func runWorlds(p *Pipeline, nWorlds, nPerWorld int, seed int64) {
	var wg sync.WaitGroup
	for w := 0; w < nWorlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			em := p.World(w)
			em.RegisterTag(trace.VendorApple, "airtag-1")
			em.RegisterTag(trace.VendorSamsung, "smarttag-1")
			for i := 0; i < nPerWorld; i++ {
				em.Report(synthReport(w, i))
				if i%5 == 0 {
					em.Fixes([]trace.GroundTruth{synthFix(w, i)})
				}
				if i%7 == 0 {
					em.Crawl(synthCrawl(w, i))
				}
				if rng.Intn(50) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
			em.Close()
		}(w)
	}
	wg.Wait()
}

// TestOrderedMergeDeterminism is the pipeline's core contract: however
// the world goroutines interleave in real time, and however small the
// ahead budget, every consumer sees the same batch stream —
// world-major, seq-contiguous, byte-identical across runs.
func TestOrderedMergeDeterminism(t *testing.T) {
	const nWorlds, nPer = 5, 300
	run := func(seed, aheadBytes int64) []Batch {
		c := &collector{}
		p := New(nWorlds, Config{FlushEvery: 64, AheadBytes: aheadBytes}, c)
		runWorlds(p, nWorlds, nPer, seed)
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		if !c.closed {
			t.Fatal("consumer not closed")
		}
		return c.batches
	}
	a := run(1, 0)
	b := run(99, 0) // different sleep pattern, same logical stream

	// Ordering: world-major, seq contiguous from 0, exactly one Final.
	world, seq := 0, uint64(0)
	for _, batch := range a {
		if batch.World != world || batch.Seq != seq {
			t.Fatalf("batch out of order: world=%d seq=%d, want world=%d seq=%d", batch.World, batch.Seq, world, seq)
		}
		if batch.Final {
			world++
			seq = 0
		} else {
			seq++
		}
	}
	if world != nWorlds {
		t.Fatalf("saw final batches for %d worlds, want %d", world, nWorlds)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("merged batch stream differs between runs with different real-time interleavings")
	}
	// A 1-byte budget lets each world ahead of the cursor queue a
	// single batch before it waits: the most coupled schedule there is.
	for _, seed := range []int64{1, 99} {
		if !reflect.DeepEqual(a, run(seed, 1)) {
			t.Errorf("merged batch stream at a 1-byte ahead budget (seed %d) differs from the default budget's", seed)
		}
	}
}

// gaugeValue reads a gauge from the obs.Default registry's rendering.
func gaugeValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, kv := range strings.Fields(obs.Default.Compact()) {
		if v, ok := strings.CutPrefix(kv, name+"="); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("gauge %s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("gauge %s not registered", name)
	return 0
}

// waitTimeout fails the test if done is not closed within 5 s — the
// failure mode of every pipeline bug this guards is a hang.
func waitTimeout(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish within 5 s", what)
	}
}

// TestWorldsNeverWaitOnTheCursor: worlds 1..N run their whole streams
// to Close before world 0 emits its first batch. With per-world queues
// under the default ahead budget none of them waits on the merge
// cursor; the merged stream is still world-major, and the ahead gauge
// saw their bytes and returns to zero once the stream is merged.
func TestWorldsNeverWaitOnTheCursor(t *testing.T) {
	const nWorlds, nPer = 4, 500
	c := &collector{}
	p := New(nWorlds, Config{FlushEvery: 16}, c)
	ahead := make(chan struct{})
	go func() {
		defer close(ahead)
		var wg sync.WaitGroup
		for w := 1; w < nWorlds; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				em := p.World(w)
				for i := 0; i < nPer; i++ {
					em.Report(synthReport(w, i))
				}
				em.Close()
			}(w)
		}
		wg.Wait()
	}()
	waitTimeout(t, ahead, "worlds ahead of the cursor")
	em := p.World(0)
	for i := 0; i < nPer; i++ {
		em.Report(synthReport(0, i))
	}
	em.Close()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}

	var aheadSum int64
	world := 0
	for _, b := range c.batches {
		if b.World != world {
			t.Fatalf("batch from world %d while merging world %d", b.World, world)
		}
		if b.World > 0 {
			aheadSum += b.bytes()
		}
		if b.Final {
			world++
		}
	}
	if world != nWorlds {
		t.Fatalf("saw final batches for %d worlds, want %d", world, nWorlds)
	}
	if got := gaugeValue(t, "pipeline_ahead_bytes"); got != 0 {
		t.Errorf("pipeline_ahead_bytes = %v after Wait, want 0", got)
	}
	if got := gaugeValue(t, "pipeline_ahead_bytes_peak"); got < float64(aheadSum) {
		t.Errorf("pipeline_ahead_bytes_peak = %v, want at least the %d bytes worlds 1..%d queued", got, aheadSum, nWorlds-1)
	}
}

// TestAbortedWorldFailsPipeline: a world that panics aborts its emitter
// (scenario.CountryJob.Run defers Abort the same way), so the world
// ahead of it, waiting on a 1-byte budget, wakes; runner.Map re-raises
// the panic instead of hanging; the merge stops and still closes the
// consumers, which never see a final batch; and Wait reports the abort.
func TestAbortedWorldFailsPipeline(t *testing.T) {
	c := &collector{}
	p := New(2, Config{FlushEvery: 1, AheadBytes: 1}, c)
	var recovered any
	mapped := make(chan struct{})
	go func() {
		defer close(mapped)
		defer func() { recovered = recover() }()
		runner.Map(2, 2, func(w int) struct{} {
			em := p.World(w)
			defer em.Abort()
			if w == 0 {
				panic("world 0 failed")
			}
			for i := 0; i < 100; i++ {
				em.Report(synthReport(w, i))
			}
			em.Close()
			return struct{}{}
		})
	}()
	waitTimeout(t, mapped, "runner.Map")
	if recovered != "world 0 failed" {
		t.Errorf("runner.Map re-raised %v, want the world's panic", recovered)
	}

	var err error
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		err = p.Wait()
	}()
	waitTimeout(t, waited, "Wait")
	if err == nil || !strings.Contains(err.Error(), "world 0 aborted") {
		t.Errorf("Wait error = %v, want world 0's abort", err)
	}
	if !c.closed {
		t.Error("consumer not closed after the pipeline failed")
	}
	for _, b := range c.batches {
		if b.Final {
			t.Errorf("consumer saw a final batch for world %d of a failed pipeline", b.World)
		}
	}
	if got := gaugeValue(t, "pipeline_ahead_bytes"); got != 0 {
		t.Errorf("pipeline_ahead_bytes = %v after a failed pipeline, want 0", got)
	}
}

// TestEmitterFlushBoundaries pins the deterministic count-based
// batching: FlushEvery records per batch, remainder in the final batch.
func TestEmitterFlushBoundaries(t *testing.T) {
	c := &collector{}
	p := New(1, Config{FlushEvery: 10}, c)
	em := p.World(0)
	for i := 0; i < 25; i++ {
		em.Report(synthReport(0, i))
	}
	em.Close()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(c.batches))
	for i, b := range c.batches {
		sizes[i] = b.Len()
	}
	if want := []int{10, 10, 5}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("batch sizes = %v, want %v", sizes, want)
	}
	if !c.batches[2].Final || c.batches[0].Final || c.batches[1].Final {
		t.Error("only the last batch must be Final")
	}
}

// TestEmptyWorldStillFinal: a world with nothing to say still emits its
// end-of-world marker so consumers can account for every world.
func TestEmptyWorldStillFinal(t *testing.T) {
	c := &collector{}
	p := New(2, Config{}, c)
	go func() { p.World(1).Close() }()
	p.World(0).Report(synthReport(0, 0))
	p.World(0).Close()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(c.batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(c.batches))
	}
	if !c.batches[0].Final || !c.batches[1].Final {
		t.Error("both worlds must emit a Final batch")
	}
	if c.batches[1].Len() != 0 {
		t.Error("empty world's final batch must be empty")
	}
}

// failingConsumer errors on the first Consume; Close must still run and
// the pipeline must keep draining (no stuck emitters).
type failingConsumer struct {
	closed bool
}

func (f *failingConsumer) Consume(Batch) error { return errors.New("disk full") }
func (f *failingConsumer) Close() error {
	f.closed = true
	return nil
}

func TestConsumerErrorPropagates(t *testing.T) {
	f := &failingConsumer{}
	ok := &collector{}
	p := New(3, Config{FlushEvery: 8}, f, ok)
	runWorlds(p, 3, 100, 7)
	err := p.Wait()
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("Wait error = %v, want disk full", err)
	}
	if !f.closed {
		t.Error("failing consumer must still be closed")
	}
	// The healthy consumer saw the complete stream regardless.
	finals := 0
	for _, b := range ok.batches {
		if b.Final {
			finals++
		}
	}
	if finals != 3 {
		t.Errorf("healthy consumer saw %d finals, want 3", finals)
	}
}

// TestStoreIngesterMatchesDirectRestore: streaming reports through the
// pipeline into serving stores must produce the exact snapshot a direct
// ordered restore produces.
func TestStoreIngesterMatchesDirectRestore(t *testing.T) {
	const nWorlds, nPer = 4, 250
	newServices := func() map[trace.Vendor]*cloud.Service {
		return map[trace.Vendor]*cloud.Service{
			trace.VendorApple:   cloud.NewService(trace.VendorApple),
			trace.VendorSamsung: cloud.NewService(trace.VendorSamsung),
		}
	}
	streamed := newServices()
	si := NewStoreIngester(streamed)
	p := New(nWorlds, Config{FlushEvery: 32}, si)
	runWorlds(p, nWorlds, nPer, 3)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if si.Ingested() == 0 {
		t.Fatal("no reports ingested")
	}

	direct := newServices()
	direct[trace.VendorApple].Register("airtag-1")
	direct[trace.VendorSamsung].Register("smarttag-1")
	for w := 0; w < nWorlds; w++ {
		var perVendor [2][]trace.Report
		for i := 0; i < nPer; i++ {
			r := synthReport(w, i)
			perVendor[r.Vendor] = append(perVendor[r.Vendor], r)
		}
		direct[trace.VendorApple].Restore(perVendor[trace.VendorApple])
		direct[trace.VendorSamsung].Restore(perVendor[trace.VendorSamsung])
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		got, want := streamed[v].Snapshot(), direct[v].Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed snapshot differs from direct restore", v)
		}
	}
}

// TestCampaignAccumulatorDistinct: the accumulator must retain exactly
// the distinct crawl records — per world in isolation, and campaign-
// wide with dedup state carried across world boundaries.
func TestCampaignAccumulatorDistinct(t *testing.T) {
	const nWorlds = 3
	acc := NewCampaignAccumulator(nWorlds, 1)
	p := New(nWorlds, Config{FlushEvery: 16}, acc)
	perWorld := make([][]trace.CrawlRecord, nWorlds)
	var all []trace.CrawlRecord
	var wg sync.WaitGroup
	for w := 0; w < nWorlds; w++ {
		recs := make([]trace.CrawlRecord, 0, 120)
		for i := 0; i < 120; i++ {
			recs = append(recs, synthCrawl(w, i/3)) // repeats: crawler re-observing one report
		}
		perWorld[w] = recs
		all = append(all, recs...)
		wg.Add(1)
		go func(w int, recs []trace.CrawlRecord) {
			defer wg.Done()
			em := p.World(w)
			for i, rec := range recs {
				em.Crawl(rec)
				if i%10 == 0 {
					em.Fixes([]trace.GroundTruth{synthFix(w, i)})
				}
			}
			em.Close()
		}(w, recs)
	}
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	st := acc.State()
	if st == nil {
		t.Fatal("no state after Wait")
	}
	for w := 0; w < nWorlds; w++ {
		want := trace.DistinctReports(perWorld[w])
		got := st.Worlds[w].Dataset.Crawls[trace.VendorApple]
		if !reflect.DeepEqual(got, want) {
			t.Errorf("world %d distinct crawls: got %d, want %d", w, len(got), len(want))
		}
	}
	if got, want := st.Merged.Crawls[trace.VendorApple], trace.DistinctReports(all); !reflect.DeepEqual(got, want) {
		t.Errorf("campaign distinct crawls: got %d, want %d", len(got), len(want))
	}
	// The raw fixes are held once, in the world datasets.
	fixes := 0
	for _, wd := range st.Worlds {
		fixes += len(wd.Dataset.GroundTruth)
	}
	if fixes != nWorlds*12 || len(st.Merged.GroundTruth) != 0 {
		t.Errorf("world datasets hold %d fixes (want %d), merged dataset %d (want 0)", fixes, nWorlds*12, len(st.Merged.GroundTruth))
	}
	if st.Truth == nil || st.Indexes[trace.VendorCombined] == nil {
		t.Error("truth index and combined analysis index must be built")
	}
}
