// Package pipeline is the streaming campaign pipeline: the live data
// path connecting the radio plane to the serving store, the analysis
// plane, and disk while the simulation is still running.
//
// Each simulation world (a country's stay) owns a WorldEmitter. The
// world's single-goroutine engine publishes records into it as they
// happen — cloud-accepted reports, uploaded ground-truth fixes, crawl
// records — and the emitter flushes them as seq-stamped batches onto
// the world's own queue. A merge stage drains the queues strictly in
// world-index order and fans every batch out to the registered
// consumers, each running on its own goroutine behind its own bounded
// channel: the store ingester feeds the sharded serving store, the
// campaign accumulator grows the analysis state, and the columnar sink
// streams the report log to disk.
//
// Determinism: a world's batch sequence is a pure function of its seed
// (the engine is single-goroutine and the flush threshold is a record
// count, never a wall clock), and the merge releases worlds in index
// order, so the merged stream every consumer sees is byte-identical at
// any worker count and any ahead budget — the pipeline extends the
// runner package's worker-invariance contract to streaming consumers.
//
// Backpressure and deadlock-freedom: the world at the merge cursor
// appends to its queue and never waits. A world ahead of the cursor
// appends too, and then waits only while the bytes queued by all worlds
// ahead of the cursor exceed Config.AheadBytes; it resumes when the
// cursor advances (which moves a whole world's bytes out of the ahead
// sum). Ahead-of-cursor memory therefore stays within the budget plus
// one batch per running world. The cursor world's queue holds only what
// the merge has not yet handed to the consumers, so it grows only while
// a consumer is slower than the simulation. runner.Map claims jobs in
// index order, so the cursor world has always started; it never waits
// on the budget, and consumers never wait on worlds, so the merge
// always makes progress until the cursor world's final batch, and then
// the cursor advances. Every waiting world is strictly ahead of the
// cursor and waits only on the cursor's progress. No cycle, no
// deadlock. A world that cannot finish its stream (its goroutine
// panicked) aborts its emitter instead: the pipeline fails, every
// waiter wakes, the merge stops and closes the consumers, and Wait
// returns the error.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/trace"
)

// Process-wide pipeline series in the obs.Default registry: merged
// batches and records by kind, aggregated across every pipeline in the
// process. A -metrics-every snapshot differencing pipeline_reports_total
// is the live reports/s gauge for a headless campaign.
var (
	obsBatches = obs.GetCounter("pipeline_batches_total")
	obsReports = obs.GetCounter("pipeline_reports_total")
	obsFixes   = obs.GetCounter("pipeline_fixes_total")
	obsCrawls  = obs.GetCounter("pipeline_crawls_total")
)

// aheadBytes and aheadPeak are the process-wide ahead-of-cursor
// buffer gauges: the batch bytes every pipeline's worlds hold queued
// past their merge cursors right now, and the most ever held at once.
// A peak near Config.AheadBytes means worlds did wait on the budget.
var aheadBytes, aheadPeak atomic.Int64

func init() {
	obs.Default.GaugeFunc("pipeline_ahead_bytes", func() float64 { return float64(aheadBytes.Load()) })
	obs.Default.GaugeFunc("pipeline_ahead_bytes_peak", func() float64 { return float64(aheadPeak.Load()) })
}

// Registration announces a tag paired to a vendor cloud, so consumers
// (the store ingester in particular) know the tag universe even before
// its first report — a tag with zero accepted reports still exists in
// the serving store.
type Registration struct {
	Vendor trace.Vendor
	TagID  string
}

// Batch is one ordered emission unit from one world: everything the
// world published since the previous flush, in emission order. Batches
// are immutable once emitted and may be shared by every consumer.
type Batch struct {
	// World is the emitting world's index (campaign country order).
	World int
	// Seq is the world's batch sequence number, contiguous from 0.
	Seq uint64
	// Final marks the world's last batch; exactly one per world.
	Final bool

	Registrations []Registration
	// Reports are cloud-accepted reports in acceptance order.
	Reports []trace.Report
	// Fixes are uploaded ground-truth fixes in fix-time order.
	Fixes []trace.GroundTruth
	// Crawls are crawl records in poll order (vendors interleaved; each
	// record carries its vendor).
	Crawls []trace.CrawlRecord
}

// Len returns the number of records in the batch (registrations aside).
func (b *Batch) Len() int { return len(b.Reports) + len(b.Fixes) + len(b.Crawls) }

// Record sizes for the ahead budget: the in-memory struct size of each
// record kind (strings count by their headers only).
const (
	reportBytes = int64(unsafe.Sizeof(trace.Report{}))
	fixBytes    = int64(unsafe.Sizeof(trace.GroundTruth{}))
	crawlBytes  = int64(unsafe.Sizeof(trace.CrawlRecord{}))
)

// bytes is the batch's weight against the ahead budget.
func (b *Batch) bytes() int64 {
	return int64(len(b.Reports))*reportBytes + int64(len(b.Fixes))*fixBytes + int64(len(b.Crawls))*crawlBytes
}

// Consumer receives the merged, ordered batch stream. Consume runs on
// the consumer's own goroutine (batches arrive strictly in (world, seq)
// order); Close runs after the last batch, even when an earlier Consume
// failed, so it can release resources either way.
type Consumer interface {
	Consume(b Batch) error
	Close() error
}

// Config sizes the pipeline's buffers. The zero value uses defaults.
type Config struct {
	// FlushEvery is the per-world record count that triggers a batch
	// flush (default 512). It tunes batch granularity and backpressure
	// only — consumers that persist bytes (ReportSink) re-frame the
	// stream at their own threshold, so dump bytes never depend on it.
	FlushEvery int
	// AheadBytes bounds the batch bytes queued by the worlds ahead of
	// the merge cursor, summed over all of them (default 32 MiB). A
	// world ahead of the cursor waits while the sum exceeds it; the
	// cursor world never waits. Bytes count records at their struct
	// size, so the bound does not depend on FlushEvery. It trades
	// memory for overlap only: the merged stream is the same at any
	// value.
	AheadBytes int64
	// ConsumerBuffer is each consumer channel's batch capacity
	// (default 8).
	ConsumerBuffer int
}

// defaultAheadBytes is Config.AheadBytes' default: above the whole
// Scale 0.1 campaign stream (~22 MB), so at that size no world ever
// waits, while larger campaigns stay capped.
const defaultAheadBytes = 32 << 20

func (c *Config) defaults() {
	if c.FlushEvery <= 0 {
		c.FlushEvery = 512
	}
	if c.AheadBytes <= 0 {
		c.AheadBytes = defaultAheadBytes
	}
	if c.ConsumerBuffer <= 0 {
		c.ConsumerBuffer = 8
	}
}

// Pipeline coordinates the world emitters, the ordered merge, and the
// consumer fan-out. Create one with New, hand World(i) to each world,
// and Wait after every world has closed its emitter.
type Pipeline struct {
	cfg      Config
	emitters []*WorldEmitter
	runners  []*consumerRunner
	done     chan struct{}
	waitOnce sync.Once
	waitErr  error

	// mu guards every emitter's queue and the fields below. ready wakes
	// the merge when the cursor world queues a batch; room wakes the
	// worlds ahead of the cursor when it advances. A failure wakes both.
	mu     sync.Mutex
	ready  sync.Cond
	room   sync.Cond
	cursor int   // world the merge is draining
	ahead  int64 // bytes queued by worlds past the cursor
	failed error // first abort; stops the merge
}

// consumerRunner drives one consumer on its own goroutine. sent /
// consumed / records are the observability plane's lag accounting:
// sent is bumped by the merge as it dispatches, consumed and records by
// the runner as it finishes each batch, so sent-consumed is the
// consumer's batch lag (queued plus in-flight) at any instant.
type consumerRunner struct {
	c        Consumer
	name     string
	op       string // "pipeline.consume.<name>", precomputed off the hot loop
	ch       chan Batch
	done     chan struct{}
	err      error
	sent     atomic.Uint64
	consumed atomic.Uint64
	records  atomic.Uint64
	hist     *obs.Histogram
	th       *otrace.Threshold
}

// run is the consumer's batch loop. Each batch is one self-rooted
// trace on the pipeline plane (the runner goroutine has no request to
// attach to) carrying the batch's record count and the consumer's
// batch lag behind the merge as attributes — so a captured slow batch
// shows whether the consumer was already drowning when it started.
func (r *consumerRunner) run() {
	defer close(r.done)
	for b := range r.ch {
		if r.err != nil {
			r.consumed.Add(1)
			continue // drain so the merge never blocks on a failed consumer
		}
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		tr := otrace.Begin(otrace.PlanePipeline, r.op)
		tr.SetAttrs(0, int64(b.Len()), int64(r.sent.Load()-r.consumed.Load()))
		r.err = r.c.Consume(b)
		r.consumed.Add(1)
		r.records.Add(uint64(b.Len()))
		// Capture before this batch's own sample feeds the histogram —
		// a new-max batch must clear the p99 of the batches before it.
		tr.End(r.th)
		obs.Since(r.hist, t0)
	}
	if cerr := r.c.Close(); r.err == nil {
		r.err = cerr
	}
}

// New builds a pipeline for the given number of worlds and starts the
// merge and consumer goroutines. Every world emitter must eventually be
// closed (worlds with nothing to say still Close), or Wait blocks.
func New(worlds int, cfg Config, consumers ...Consumer) *Pipeline {
	cfg.defaults()
	p := &Pipeline{cfg: cfg, done: make(chan struct{})}
	p.ready.L, p.room.L = &p.mu, &p.mu
	for i := 0; i < worlds; i++ {
		p.emitters = append(p.emitters, &WorldEmitter{p: p, world: i, flushEvery: cfg.FlushEvery})
	}
	for i, c := range consumers {
		name := fmt.Sprintf("consumer%d", i)
		if n, ok := c.(interface{ Name() string }); ok {
			name = n.Name()
		}
		r := &consumerRunner{c: c, name: name, op: "pipeline.consume." + name,
			ch: make(chan Batch, cfg.ConsumerBuffer), done: make(chan struct{})}
		r.hist = obs.Default.Histogram("pipeline_consume_seconds", obs.L("consumer", name))
		r.th = otrace.NewThreshold(otrace.PlanePipeline, r.hist, 0)
		p.runners = append(p.runners, r)
		go r.run()
	}
	go p.merge()
	return p
}

// merge drains the world queues strictly in index order, validates
// the (world, seq, final) framing, and fans each batch out to every
// consumer channel. It stops early, still closing the consumers, when
// the pipeline fails.
func (p *Pipeline) merge() {
	defer close(p.done)
	defer func() {
		for _, r := range p.runners {
			close(r.ch)
		}
	}()
	for w, em := range p.emitters {
		if w > 0 {
			p.advance(w)
		}
		for nextSeq, final := uint64(0), false; !final; nextSeq++ {
			b, ok := p.pop(em)
			if !ok {
				return
			}
			if b.World != w || b.Seq != nextSeq {
				// A broken emitter contract is a programming error, not
				// a runtime condition to limp through.
				panic(fmt.Sprintf("pipeline: world %d emitted batch (world=%d seq=%d final=%v), want seq %d",
					w, b.World, b.Seq, b.Final, nextSeq))
			}
			final = b.Final
			obsBatches.Inc()
			obsReports.Add(uint64(len(b.Reports)))
			obsFixes.Add(uint64(len(b.Fixes)))
			obsCrawls.Add(uint64(len(b.Crawls)))
			for _, r := range p.runners {
				r.sent.Add(1)
				r.ch <- b
			}
		}
	}
}

// advance moves the merge cursor on to world w: w's queued bytes leave
// the ahead sum, and the worlds waiting on the budget re-check it.
func (p *Pipeline) advance(w int) {
	p.mu.Lock()
	p.cursor = w
	p.addAhead(-p.emitters[w].queued)
	p.room.Broadcast()
	p.mu.Unlock()
}

// pop takes the cursor world's next batch, waiting until it has one;
// ok is false once the pipeline has failed.
func (p *Pipeline) pop(em *WorldEmitter) (b Batch, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(em.queue) == 0 && p.failed == nil {
		p.ready.Wait()
	}
	if p.failed != nil {
		return Batch{}, false
	}
	b = em.queue[0]
	em.queue[0] = Batch{} // drop the queue's reference for the GC
	em.queue = em.queue[1:]
	em.queued -= b.bytes()
	return b, true
}

// enqueue appends a sealed batch to its world's queue. The cursor world
// returns at once; a world ahead of the cursor then waits while the
// ahead sum exceeds the budget. After a failure batches are dropped:
// the merge has stopped and nothing would ever drain them.
func (p *Pipeline) enqueue(e *WorldEmitter, b Batch) {
	n := b.bytes()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return
	}
	e.queue = append(e.queue, b)
	e.queued += n
	if e.world == p.cursor {
		p.ready.Signal()
		return
	}
	p.addAhead(n)
	for e.world > p.cursor && p.ahead > p.cfg.AheadBytes && p.failed == nil {
		p.room.Wait()
	}
}

// fail stops the pipeline with err (the first failure wins): queued
// batches are dropped, their bytes released, and the merge and every
// waiting world wake.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return
	}
	p.failed = err
	p.addAhead(-p.ahead)
	for _, em := range p.emitters {
		em.queue, em.queued = nil, 0
	}
	p.ready.Broadcast()
	p.room.Broadcast()
}

// addAhead moves the ahead sum by n, here and in the process gauges.
// Callers hold p.mu.
func (p *Pipeline) addAhead(n int64) {
	if n == 0 {
		return
	}
	p.ahead += n
	now := aheadBytes.Add(n)
	for peak := aheadPeak.Load(); now > peak; peak = aheadPeak.Load() {
		if aheadPeak.CompareAndSwap(peak, now) {
			break
		}
	}
}

// World returns world i's emitter. Each emitter belongs to exactly one
// world goroutine and is not safe for concurrent use.
func (p *Pipeline) World(i int) *WorldEmitter { return p.emitters[i] }

// Worlds returns the number of worlds the pipeline was sized for.
func (p *Pipeline) Worlds() int { return len(p.emitters) }

// ConsumerStats is one consumer's point-in-time progress through the
// merged stream: how many batches and records it has finished, how many
// sit in its channel right now, and its total batch lag behind the
// merge (queued plus in-flight).
type ConsumerStats struct {
	Name       string
	Batches    uint64
	Records    uint64
	QueueDepth int
	Lag        uint64
}

// ConsumerStats snapshots every consumer's progress, in registration
// order. Safe to call while the pipeline runs — each field loads
// atomically (fields are not mutually consistent mid-batch). Consumers
// that implement Name() string report it; others get "consumerN".
func (p *Pipeline) ConsumerStats() []ConsumerStats {
	out := make([]ConsumerStats, len(p.runners))
	for i, r := range p.runners {
		sent, consumed := r.sent.Load(), r.consumed.Load()
		lag := uint64(0)
		if sent > consumed { // racing loads: dispatch may land between them
			lag = sent - consumed
		}
		out[i] = ConsumerStats{
			Name:       r.name,
			Batches:    consumed,
			Records:    r.records.Load(),
			QueueDepth: len(r.ch),
			Lag:        lag,
		}
	}
	return out
}

// Wait blocks until every world's stream has been merged and every
// consumer has consumed it and closed, then returns the pipeline's
// abort error, if a world aborted, joined with the consumer errors (in
// registration order). It is safe to call more than once.
func (p *Pipeline) Wait() error {
	p.waitOnce.Do(func() {
		<-p.done
		p.mu.Lock()
		errs := []error{p.failed}
		p.mu.Unlock()
		for _, r := range p.runners {
			<-r.done
			if r.err != nil {
				errs = append(errs, r.err)
			}
		}
		p.waitErr = errors.Join(errs...)
	})
	return p.waitErr
}

// WorldEmitter is one world's publishing end of the pipeline. All
// methods must be called from the world's own (single) goroutine; the
// world's queue, guarded by the pipeline's lock, is the
// cross-goroutine handoff.
type WorldEmitter struct {
	p          *Pipeline
	world      int
	flushEvery int
	seq        uint64
	cur        Batch
	closed     bool

	// Guarded by p.mu: batches sealed but not yet merged, and their
	// bytes.
	queue  []Batch
	queued int64
}

// RegisterTag announces a (vendor, tag) pairing to the consumers.
func (e *WorldEmitter) RegisterTag(v trace.Vendor, tagID string) {
	e.cur.Registrations = append(e.cur.Registrations, Registration{Vendor: v, TagID: tagID})
}

// Report publishes one cloud-accepted report.
func (e *WorldEmitter) Report(r trace.Report) {
	e.cur.Reports = append(e.cur.Reports, r)
	e.maybeFlush()
}

// Fixes publishes a batch of uploaded ground-truth fixes. The slice is
// copied; callers may reuse it.
func (e *WorldEmitter) Fixes(fs []trace.GroundTruth) {
	e.cur.Fixes = append(e.cur.Fixes, fs...)
	e.maybeFlush()
}

// Crawl publishes one crawl record.
func (e *WorldEmitter) Crawl(rec trace.CrawlRecord) {
	e.cur.Crawls = append(e.cur.Crawls, rec)
	e.maybeFlush()
}

func (e *WorldEmitter) maybeFlush() {
	if e.cur.Len() >= e.flushEvery {
		e.flush(false)
	}
}

// flush seals the current batch and queues it (waiting on the ahead
// budget if this world is past the merge cursor).
func (e *WorldEmitter) flush(final bool) {
	if e.closed {
		panic("pipeline: WorldEmitter used after Close")
	}
	b := e.cur
	b.World, b.Seq, b.Final = e.world, e.seq, final
	e.seq++
	e.cur = Batch{}
	e.p.enqueue(e, b)
}

// Close flushes whatever remains as the world's final batch (possibly
// empty — consumers still need the end-of-world marker). Must be called
// exactly once, after the world finished.
func (e *WorldEmitter) Close() {
	if e.closed {
		panic("pipeline: WorldEmitter closed twice")
	}
	e.flush(true)
	e.closed = true
}

// Abort ends the world's stream without a final batch: the pipeline
// fails, the merge stops and closes the consumers (none sees a final
// batch for this world), and Wait returns an error. It is a no-op after
// Close, so a world defers it to cover every exit that skips Close —
// a panic above all, which would otherwise leave the merge, and every
// world waiting on the budget, blocked forever.
func (e *WorldEmitter) Abort() {
	if e.closed {
		return
	}
	e.p.fail(fmt.Errorf("pipeline: world %d aborted before closing its stream", e.world))
	e.closed = true
}
