package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/load"
	"tagsim/internal/obs"
	"tagsim/internal/serve"
	"tagsim/internal/stats"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// serveSpec is one serving workload: two vendor stores holding tags x
// reports, queried by a closed loop of two clients over loopback HTTP.
type serveSpec struct {
	name                   string
	tags, reports          int
	warmup, chunk          int
	zipfS                  float64
	mix                    load.Mix
	p99Limit               time.Duration
	tiered                 bool
	loadMemtable, memtable int64
}

// hotSpec: every tag resident and fewer tags than cache slots; the
// writes are the load generator's own, almost all refused by the rate
// cap.
func hotSpec(s sizes) serveSpec {
	return serveSpec{
		name: "serve-hot", tags: s.HotTags, reports: s.HotReports, warmup: s.HotWarmup, chunk: s.HotChunk,
		zipfS: 1.2, mix: load.ReadMix(90), p99Limit: s.HotP99,
	}
}

// coldSpec: tiered stores with four times more tags than cache slots, a
// flatter popularity curve, and writes the benchmark spaces past the
// rate cap so that most are accepted and drive flushes and compaction.
func coldSpec(s sizes) serveSpec {
	return serveSpec{
		name: "serve-cold", tags: s.ColdTags, reports: s.ColdReports, warmup: s.ColdWarmup, chunk: s.ColdChunk,
		zipfS: 1.05, mix: load.Mix{LastKnown: 40, History: 25, Track: 15, Report: 20}, p99Limit: s.ColdP99,
		tiered: true, loadMemtable: s.ColdLoadMem, memtable: s.ColdMem,
	}
}

var (
	vendors = []trace.Vendor{trace.VendorApple, trace.VendorSamsung}
	// dataEpoch is when the stored histories start.
	dataEpoch = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	// reporterIDs are the crowd devices synthesized reports name.
	reporterIDs = func() []string {
		out := make([]string, 64)
		for i := range out {
			out[i] = fmt.Sprintf("dev-%02d", i)
		}
		return out
	}()
)

// reportGap spaces one tag's synthesized reports past the vendors'
// 192 s rate cap (cloud.DefaultMinUpdateInterval) even after jitter.
const reportGap = 200 * time.Second

const nOps = int(load.OpReport) + 1

// servedOps are the operations the serving workloads issue.
var servedOps = []load.Op{load.OpLastKnown, load.OpHistory, load.OpTrack, load.OpReport}

func tagVendor(i int) trace.Vendor { return vendors[i%len(vendors)] }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// tagReport is the k-th report of tag i under seed: times reportGap
// apart plus up to 5 s of jitter, at a seed-derived position.
func tagReport(seed int64, names []string, i, k int) trace.Report {
	h := mix64(mix64(mix64(uint64(seed))^uint64(i)) ^ uint64(k))
	t := dataEpoch.Add(time.Duration(k)*reportGap + time.Duration(h%uint64(5*time.Second)))
	return trace.Report{
		T: t, HeardAt: t, TagID: names[i], Vendor: tagVendor(i),
		ReporterID: reporterIDs[(h>>32)%uint64(len(reporterIDs))],
		Pos:        geo.LatLon{Lat: 48.8 + float64(h%100000)/1e6, Lon: 2.3 + float64((h>>20)%100000)/1e6},
		RSSI:       -50 - float64((h>>48)%40),
	}
}

func tagIndex(tag string) int {
	i, _ := strconv.Atoi(tag[len("tag-"):])
	return i
}

// stack is one set-up serving workload: the stores, the query API on a
// loopback listener, and the client.
type stack struct {
	spec   serveSpec
	seed   int64
	names  []string
	svcs   map[trace.Vendor]*cloud.Service
	srv    *serve.Server
	ts     *httptest.Server
	target *benchTarget
	dir    string // tiered store directory
}

func (st *stack) services() []*cloud.Service {
	return []*cloud.Service{st.svcs[trace.VendorApple], st.svcs[trace.VendorSamsung]}
}

// openStores opens the two vendor stores: in memory, or tiered under
// st.dir with the given memtable size.
func (st *stack) openStores(shards int, memtable int64) error {
	st.svcs = map[trace.Vendor]*cloud.Service{}
	for _, v := range vendors {
		if !st.spec.tiered {
			st.svcs[v] = cloud.NewServiceSharded(v, shards)
			continue
		}
		svc, err := cloud.NewServicePersistent(v, shards, store.Tiering{Dir: filepath.Join(st.dir, v.String()), MemtableBytes: memtable})
		if err != nil {
			return err
		}
		st.svcs[v] = svc
	}
	return nil
}

func (st *stack) closeStores() error {
	var first error
	for _, svc := range st.svcs {
		if err := svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setUp builds the stores, loads every tag's history, starts the query
// API and warms it up with the load generator.
func (st *stack) setUp(workdir string, shards int) error {
	st.names = make([]string, st.spec.tags)
	for i := range st.names {
		st.names[i] = fmt.Sprintf("tag-%05d", i)
	}
	memtable := int64(0)
	if st.spec.tiered {
		dir, err := os.MkdirTemp(workdir, "serve-cold-")
		if err != nil {
			return err
		}
		st.dir = dir
		memtable = st.spec.loadMemtable
	}
	if err := st.openStores(shards, memtable); err != nil {
		return err
	}
	batch := make([]trace.Report, st.spec.reports)
	for i := range st.names {
		for k := range batch {
			batch[k] = tagReport(st.seed, st.names, i, k)
		}
		st.svcs[tagVendor(i)].Restore(batch)
	}
	if st.spec.tiered {
		// Bulk-loaded through the WAL with a large memtable, flushed and
		// compacted, then reopened with the serving memtable, which the
		// measured writes fill several times over.
		for _, svc := range st.services() {
			if err := svc.Flush(); err != nil {
				return err
			}
			if err := svc.CompactNow(); err != nil {
				return err
			}
		}
		if err := st.closeStores(); err != nil {
			return err
		}
		if err := st.openStores(shards, st.spec.memtable); err != nil {
			return err
		}
	}
	st.srv = serve.NewServer(st.svcs)
	st.ts = httptest.NewServer(st.srv)
	st.target = &benchTarget{http: load.NewHTTPTarget(st.ts.URL)}
	if st.spec.tiered {
		st.target.writes = newColdWriter(st.seed, st.names, st.spec.reports)
	}
	_, err := load.Run(st.loadConfig(st.spec.warmup, st.seed<<20), st.target)
	st.target.reset()
	return err
}

func (st *stack) loadConfig(requests int, seed int64) load.Config {
	return load.Config{Workers: workers, Requests: requests, Seed: seed, Tags: st.names, ZipfS: st.spec.zipfS, Mix: st.spec.mix}
}

// tearDown stops the server and closes and removes the stores.
func (st *stack) tearDown() {
	if st.ts != nil {
		st.target.http.Client.CloseIdleConnections()
		st.ts.Close()
	}
	if st.spec.tiered && st.svcs != nil {
		_ = st.closeStores() // the directory is removed next
		os.RemoveAll(st.dir)
	}
	*st = stack{spec: st.spec, seed: st.seed}
}

// benchTarget is the load generator's target: the query API over HTTP,
// with the benchmark's own writes on serve-cold. It times every request
// and, in a traced run, records a client span and the (op, tag) plan.
type benchTarget struct {
	http   *load.HTTPTarget
	writes *coldWriter // nil: the load generator's report synth

	mu     sync.Mutex
	lat    [nOps][]float64 // every request's latency by operation, ms
	recent []float64       // latencies since the last drain, ms
	plan   []planned
	acked  atomic.Int64 // writes the server acknowledged as accepted
	rec    *recorder
	parent int
}

type planned struct {
	op  load.Op
	tag string
}

func (t *benchTarget) reset() {
	t.mu.Lock()
	t.lat = [nOps][]float64{}
	t.recent = nil
	t.plan = nil
	t.mu.Unlock()
	t.acked.Store(0)
}

// Do implements load.Target.
func (t *benchTarget) Do(op load.Op, tag string) (int, error) {
	start := time.Now()
	var n int
	var err error
	if op == load.OpReport && t.writes != nil {
		n, err = postReport(t.http, t.writes.next(tag))
	} else {
		n, err = t.http.Do(op, tag)
	}
	end := time.Now()
	if op == load.OpReport && n == 1 {
		t.acked.Add(1)
	}
	l := ms(end.Sub(start))
	t.mu.Lock()
	t.lat[op] = append(t.lat[op], l)
	t.recent = append(t.recent, l)
	if t.rec != nil {
		t.plan = append(t.plan, planned{op, tag})
	}
	t.mu.Unlock()
	if t.rec != nil {
		t.rec.add(t.parent, loadSpans[op], start, end)
	}
	return n, err
}

// loadSpans names the client span of each operation.
var loadSpans = func() (names [nOps]string) {
	for op := range names {
		names[op] = "load." + load.Op(op).String()
	}
	return names
}()

// drain returns the latencies recorded since the last drain.
func (t *benchTarget) drain() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.recent
	t.recent = nil
	return l
}

// coldWriter continues each tag's report sequence, so a write lands
// reportGap after the tag's previous one and passes the rate cap.
type coldWriter struct {
	seed  int64
	names []string
	seq   []atomic.Int64 // per tag: the next report's index
}

func newColdWriter(seed int64, names []string, loaded int) *coldWriter {
	w := &coldWriter{seed: seed, names: names, seq: make([]atomic.Int64, len(names))}
	for i := range w.seq {
		w.seq[i].Store(int64(loaded))
	}
	return w
}

func (w *coldWriter) next(tag string) trace.Report {
	i := tagIndex(tag)
	return tagReport(w.seed, w.names, i, int(w.seq[i].Add(1)-1))
}

// postReport sends one report to POST /v1/report; an accepted write
// counts one report.
func postReport(t *load.HTTPTarget, rep trace.Report) (int, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return 0, err
	}
	resp, err := t.Client.Post(t.Base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v serve.IngestResponse
	err = json.NewDecoder(resp.Body).Decode(&v)
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/v1/report: status %d", resp.StatusCode)
	}
	if err != nil {
		return 0, fmt.Errorf("/v1/report: %w", err)
	}
	if v.Accepted {
		return 1, nil
	}
	return 0, nil
}

// serverCounts are the query API's per-endpoint request counters by
// status class.
type serverCounts struct{ ok, bad [nOps]uint64 }

func (st *stack) serverCounts() serverCounts {
	var c serverCounts
	for op := load.Op(0); int(op) < nOps; op++ {
		ep := obs.L("endpoint", op.String())
		c.ok[op] = st.srv.Metrics().Counter("serve_requests_total", ep, obs.L("code", "2xx")).Value()
		for _, code := range []string{"3xx", "4xx", "5xx"} {
			c.bad[op] += st.srv.Metrics().Counter("serve_requests_total", ep, obs.L("code", code)).Value()
		}
	}
	return c
}

func (st *stack) accepted() (acc, rej uint64) {
	for _, svc := range st.services() {
		a, r := svc.Stats()
		acc += a
		rej += r
	}
	return acc, rej
}

// chunks drives the load generator in chunk-request runs, seeded
// seed<<20 + 1, +2, ..., until budget is spent (or exactly n runs when
// n > 0). Each run is one unit of measured work, timed by the load
// generator from its first request to its last. It returns the per-op
// request counts and the failures.
func (st *stack) chunks(r *run, budget time.Duration, n int) (perOp [nOps]int, errs int, err error) {
	i := 0
	unit := func() (time.Duration, error) {
		i++
		res, err := load.Run(st.loadConfig(st.spec.chunk, st.seed<<20+int64(i)), st.target)
		if err != nil {
			return 0, err
		}
		for op, c := range res.PerOp {
			perOp[op] += c
		}
		errs += res.Errors
		r.opLatencies(st.target.drain())
		return res.Elapsed, nil
	}
	if n > 0 {
		for i < n {
			if _, err := unit(); err != nil {
				return perOp, errs, err
			}
		}
		return perOp, errs, nil
	}
	err = r.measure(budget, unit)
	return perOp, errs, err
}

func runServeHot(r *run) error  { return runServe(r, hotSpec(r.cfg.sizes)) }
func runServeCold(r *run) error { return runServe(r, coldSpec(r.cfg.sizes)) }

// runServe measures a serving workload: set up, then closed-loop load
// until the time budget is spent, then the output checks.
func runServe(r *run, spec serveSpec) error {
	st := &stack{spec: spec, seed: r.cfg.seed}
	defer st.tearDown()
	if err := r.setUp(st.tearDown, func() error { return st.setUp(r.cfg.workdir, r.cfg.sizes.Shards) }); err != nil {
		return err
	}
	if r.cfg.trace {
		return traceServe(r, st)
	}
	sc0 := st.serverCounts()
	acc0, _ := st.accepted()
	perOp, errs, err := st.chunks(r, r.cfg.seconds, 0)
	if err != nil {
		return err
	}
	r.checkServed(st, perOp, errs, sc0, acc0)
	p99 := median(r.p99s)
	r.check(p99 <= ms(spec.p99Limit), "p99 %.3f ms over %s's limit of %v", p99, spec.name, spec.p99Limit)
	r.logf("%s: p99 %.3f ms, the median over %d runs of %d requests", spec.name, p99, len(r.units), spec.chunk)
	r.checkAnswers(st)
	if spec.tiered {
		for _, svc := range st.services() {
			ts := svc.TierStats()
			r.logf("tier %s: %d flushes, %d compactions, %d segments (%d bytes)", svc.Vendor(), ts.Flushes, ts.Compactions, ts.Segments, ts.SegmentBytes)
		}
		if _, err := r.checkDurable(st); err != nil {
			return err
		}
	}
	return nil
}

func percentile(xs []float64, p float64) float64 { return finite(stats.Percentile(xs, p)) }

// checkServed compares what the clients saw with what the server and
// stores counted over the same window: every request answered 200,
// the server counted each planned request on its endpoint, and every
// write the clients saw accepted is in the stores.
func (r *run) checkServed(st *stack, perOp [nOps]int, errs int, before serverCounts, acc0 uint64) {
	total := 0
	for _, c := range perOp {
		total += c
	}
	r.attempted += total
	r.failed += errs
	if errs > 0 {
		r.logf("check FAILED: %d of %d requests failed", errs, total)
	}
	after := st.serverCounts()
	for op := load.Op(0); int(op) < nOps; op++ {
		got := after.ok[op] - before.ok[op]
		r.check(got == uint64(perOp[op]), "%s: server answered %d with 2xx, clients issued %d", op, got, perOp[op])
		r.check(after.bad[op] == before.bad[op], "%s: %d non-2xx answers", op, after.bad[op]-before.bad[op])
	}
	acc1, _ := st.accepted()
	r.check(acc1-acc0 == uint64(st.target.acked.Load()), "stores accepted %d writes, clients saw %d accepted", acc1-acc0, st.target.acked.Load())
}

// checkAnswers compares the query API's answers for a sample of tags —
// the hottest and a seed-drawn spread — with the stores read directly.
func (r *run) checkAnswers(st *stack) {
	combined := cloud.Combined(st.services())
	n := len(st.names)
	for j := 0; j < 32 && j < n; j++ {
		for _, i := range []int{j, int(mix64(uint64(st.seed)^uint64(j)) % uint64(n))} {
			tag := st.names[i]
			var lk serve.LastKnownResponse
			err := getJSON(st, "/v1/lastknown?tag="+url.QueryEscape(tag), &lk)
			pos, at, found := combined.LastSeen(tag)
			r.check(err == nil && lk.Found == found && lk.Pos == pos && lk.SeenAt.Equal(at),
				"lastknown %s: got %+v (err %v), stores say %v %v %v", tag, lk, err, pos, at, found)
			want, _ := json.Marshal(serve.HistoryResponse{TagID: tag, Vendor: trace.VendorCombined.String(),
				Reports: combined.MergedHistoryTail(tag, load.HistoryCap)})
			got, err := get(st, "/v1/history?limit="+strconv.Itoa(load.HistoryCap)+"&tag="+url.QueryEscape(tag))
			r.check(err == nil && bytes.Equal(bytes.TrimSpace(got), want), "history %s differs from the stores (err %v)", tag, err)
		}
	}
}

func get(st *stack, path string) ([]byte, error) {
	resp, err := st.target.http.Client.Get(st.target.http.Base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d", resp.StatusCode)
	}
	return b, err
}

func getJSON(st *stack, path string, v any) error {
	b, err := get(st, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// checkDurable closes both tiered stores, reopens the directory and
// requires the same snapshot; it returns the reopen time.
func (r *run) checkDurable(st *stack) (time.Duration, error) {
	st.target.http.Client.CloseIdleConnections()
	st.ts.Close()
	st.ts = nil // tearDown closes the reopened stores
	before := make([]string, 0, len(vendors))
	for _, svc := range st.services() {
		before = append(before, snapshotDigest(svc.Snapshot()))
	}
	if err := st.closeStores(); err != nil {
		return 0, err
	}
	t := time.Now()
	err := st.openStores(r.cfg.sizes.Shards, st.spec.memtable)
	recover := time.Since(t)
	if err != nil {
		return 0, err
	}
	for i, svc := range st.services() {
		got := snapshotDigest(svc.Snapshot())
		r.check(got == before[i], "%s store reopened as %s, closed as %s", vendors[i], got, before[i])
	}
	r.logf("durability: both stores reopened in %v", recover.Round(time.Microsecond))
	return recover, nil
}

// snapshotDigest hashes every field of a store snapshot.
func snapshotDigest(s store.Snapshot) string {
	h := sha256.New()
	var b []byte
	putTime := func(t time.Time) { b = binary.LittleEndian.AppendUint64(b, uint64(t.UnixNano())) }
	putF := func(f float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f)) }
	putS := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b = binary.LittleEndian.AppendUint64(b, s.Accepted)
	b = binary.LittleEndian.AppendUint64(b, s.Rejected)
	for _, t := range s.Tags {
		putS(t.ID)
		putF(t.Pos.Lat)
		putF(t.Pos.Lon)
		putTime(t.At)
		b = append(b, byte(len(t.History)>>8), byte(len(t.History)))
		if t.HasLast {
			b = append(b, 1)
		}
		for _, rep := range t.History {
			putTime(rep.T)
			putTime(rep.HeardAt)
			putS(rep.TagID)
			b = append(b, byte(rep.Vendor))
			putS(rep.ReporterID)
			putF(rep.Pos.Lat)
			putF(rep.Pos.Lon)
			putF(rep.RSSI)
		}
		h.Write(b)
		b = b[:0]
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (st *stack) tierStats() store.TierStats {
	var sum store.TierStats
	for _, svc := range st.services() {
		ts := svc.TierStats()
		sum.Segments += ts.Segments
		sum.SegmentBytes += ts.SegmentBytes
		sum.Flushes += ts.Flushes
		sum.Compactions += ts.Compactions
		sum.CompactedBytes += ts.CompactedBytes
		sum.WALFsyncs += ts.WALFsyncs
		sum.ReadErrors += ts.ReadErrors
		sum.Quarantined += ts.Quarantined
	}
	return sum
}

func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{SumNs: b.SumNs - a.SumNs}
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
		d.Count += d.Buckets[i]
	}
	return d
}

// traceServe runs the same chunks untraced, traced with a client span
// per request, and untraced again (the untraced wall is the mean of the
// two, so the stores' growth under the writes cancels out of the
// tracing overhead), then replays the traced requests in process
// against the calls the handlers make, one at a time, timing each
// layer.
func traceServe(r *run, st *stack) error {
	t := time.Now()
	if _, _, err := st.chunks(r, r.cfg.seconds/3, 0); err != nil {
		return err
	}
	untraced := time.Since(t)
	n := len(r.units)

	hist := func() (out [nOps]obs.HistogramSnapshot) {
		for op := load.Op(0); int(op) < nOps; op++ {
			out[op] = st.srv.Metrics().Histogram("serve_latency_seconds", obs.L("endpoint", op.String())).Snapshot()
		}
		return out
	}
	tierHists := []string{"store_flush_seconds", "store_compaction_seconds", "store_wal_fsync_seconds"}
	tierSums := func() []time.Duration {
		out := make([]time.Duration, len(tierHists))
		for i, name := range tierHists {
			out[i] = obs.Default.Histogram(name).Sum()
		}
		return out
	}
	walBytes := obs.Default.Counter("store_wal_bytes")

	rec := r.rec
	st.target.reset()
	sc0, h0, cs0, ts0, tier0, wal0 := st.serverCounts(), hist(), st.srv.CacheStats(), st.tierStats(), tierSums(), walBytes.Value()
	acc0, rej0 := st.accepted()
	rt0 := takeRT()
	root := rec.begin(-1, "bench.serve")
	st.target.rec, st.target.parent = rec, root
	perOp, errs, err := st.chunks(r, 0, n)
	rec.end(root)
	st.target.rec = nil
	if err != nil {
		return err
	}
	rt1 := takeRT()
	h1, cs1, ts1, tier1, wal1 := hist(), st.srv.CacheStats(), st.tierStats(), tierSums(), walBytes.Value()
	acc1, rej1 := st.accepted()
	r.checkServed(st, perOp, errs, sc0, acc0)
	lats, plan := st.target.lat, st.target.plan
	t = time.Now()
	if _, _, err := st.chunks(r, 0, n); err != nil {
		return err
	}
	untraced = (untraced + time.Since(t)) / 2

	p := newProfile(rec.snapshot())
	rs, err := r.traceLayers(p, "bench.serve", untraced)
	if err != nil {
		return err
	}
	wall := rs.dur()
	var clientSum, handlerSum time.Duration
	total := 0
	for _, op := range servedOps {
		lat := lats[op]
		total += len(lat)
		r.layers["load."+op.String()+".count"] = float64(len(lat))
		r.layers["load."+op.String()+".p50_ms"] = percentile(lat, 50)
		r.layers["load."+op.String()+".p99_ms"] = percentile(lat, 99)
		clientSum += p.byName["load."+op.String()].sum
		d := histDelta(h0[op], h1[op])
		handlerSum += time.Duration(d.SumNs)
		r.layers["serve."+op.String()+".p50_ms"] = d.Quantile(50) / 1e6
		r.layers["serve."+op.String()+".p99_ms"] = d.Quantile(99) / 1e6
	}
	r.layers["serve.handler_share"] = float64(handlerSum) / float64(max(clientSum, 1))
	hits, misses := cs1.Hits-cs0.Hits, cs1.Misses-cs0.Misses
	r.layers["cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	r.layers["cache.fills"] = float64(cs1.Fills - cs0.Fills)
	r.layers["cache.invalidations"] = float64(cs1.Invalidations - cs0.Invalidations)
	acc, rej := float64(acc1-acc0), float64(rej1-rej0)
	r.layers["store.accepted"] = acc
	r.layers["store.rejected"] = rej
	r.layers["store.accept_ratio"] = acc / max(acc+rej, 1)
	if st.spec.tiered {
		wal := float64(wal1 - wal0)
		r.layers["tier.flushes"] = float64(ts1.Flushes - ts0.Flushes)
		r.layers["tier.compactions"] = float64(ts1.Compactions - ts0.Compactions)
		r.layers["tier.compacted_bytes"] = float64(ts1.CompactedBytes - ts0.CompactedBytes)
		r.layers["tier.wal_bytes"] = wal
		r.layers["tier.wal_fsyncs"] = float64(ts1.WALFsyncs - ts0.WALFsyncs)
		r.layers["tier.segments"] = float64(ts1.Segments)
		r.layers["tier.segment_bytes"] = float64(ts1.SegmentBytes)
		r.layers["tier.read_errors"] = float64(ts1.ReadErrors - ts0.ReadErrors)
		r.layers["tier.quarantined"] = float64(ts1.Quarantined - ts0.Quarantined)
		r.layers["tier.flush_share"] = share(tier1[0]-tier0[0], wall)
		r.layers["tier.compaction_share"] = share(tier1[1]-tier0[1], wall)
		r.layers["tier.wal_fsync_share"] = share(tier1[2]-tier0[2], wall)
		// Bytes written to disk per byte logged: the WAL itself plus the
		// segments flushes and compactions wrote (live growth plus what
		// compaction replaced).
		segWritten := float64(ts1.SegmentBytes-ts0.SegmentBytes) + float64(ts1.CompactedBytes-ts0.CompactedBytes)
		r.layers["tier.write_amp"] = (wal + segWritten) / math.Max(wal, 1)
	}
	r.runtimeLayers(rt0, rt1, total)

	r.replay(st, plan)
	if st.spec.tiered {
		recover, err := r.checkDurable(st)
		if err != nil {
			return err
		}
		r.layers["tier.recover_ms"] = ms(recover) / float64(len(vendors))
	}
	return nil
}

// replay issues the traced requests again in process, one at a time,
// against the calls the handlers make: the hot-tag cache (a fresh one
// over the same stores, each call named a hit or a miss by whether it
// had to fill), the uncached combined store reads it saves, and the
// vendor store's ingest for writes.
func (r *run) replay(st *stack, plan []planned) {
	plan = plan[:min(len(plan), r.cfg.sizes.ReplayOps)]
	rec := r.rec
	cache := cloud.NewHotCache(st.svcs, 0)
	combined := cloud.Combined(st.services())
	root := rec.begin(-1, "bench.replay")
	timed := func(parent int, name string, fn func()) {
		f0 := cache.Stats().Fills
		t0 := time.Now()
		fn()
		t1 := time.Now()
		if strings.HasPrefix(name, "cache.") {
			if cache.Stats().Fills > f0 {
				name += "_miss"
			} else {
				name += "_hit"
			}
		}
		rec.add(parent, name, t0, t1)
	}
	for i, p := range plan {
		id := rec.begin(root, "replay."+p.op.String())
		switch p.op {
		case load.OpLastKnown:
			timed(id, "cache.lastknown", func() { cache.LastSeen(p.tag) })
			timed(id, "store.lastknown", func() { combined.LastSeen(p.tag) })
		case load.OpHistory:
			timed(id, "cache.history", func() { cache.HistoryTail(p.tag, load.HistoryCap) })
			timed(id, "store.history", func() { combined.MergedHistoryTail(p.tag, load.HistoryCap) })
		case load.OpTrack:
			timed(id, "cache.track", func() { cache.Track(p.tag) })
			timed(id, "store.track", func() { combined.MergedHistory(p.tag) })
		case load.OpReport:
			var rep trace.Report
			if st.target.writes != nil {
				rep = st.target.writes.next(p.tag)
			} else {
				// The load generator's synth: now-stamped, vendors in turn.
				now := time.Now()
				rep = trace.Report{T: now, HeardAt: now, TagID: p.tag, Vendor: vendors[i%len(vendors)], ReporterID: "load/writer", RSSI: -60}
			}
			timed(id, "store.ingest", func() { st.svcs[rep.Vendor].Ingest(rep) })
		}
		rec.end(id)
	}
	rec.end(root)
	p := newProfile(rec.snapshot())
	for _, name := range []string{
		"cache.lastknown_hit", "cache.lastknown_miss", "cache.history_hit", "cache.history_miss",
		"cache.track_hit", "cache.track_miss", "store.lastknown", "store.history", "store.track", "store.ingest",
	} {
		r.layers[name+"_us"] = p.byName[name].meanUs()
	}
	r.logf("replay: %d requests in process", len(plan))
}
