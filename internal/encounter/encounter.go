// Package encounter is the radio plane of the simulation: on a fixed scan
// cadence it determines which reporting devices are within range of each
// tag, whether they decode a beacon (radio model x scan duty cycle),
// whether their vendor strategy reports it, and schedules the report's
// delivery to the vendor cloud after the upload delay.
//
// Beacon emission is modeled statistically (expected beacons per scan
// window) rather than as one event per beacon — at 0.5-2 s advertising
// intervals over 120 simulated days, per-beacon events would dominate the
// event queue without changing any measured quantity.
//
// With Config.ScanWorkers > 1 a single world's tick is sharded across
// regions: tags are grouped by the band of fleet grid rows under their
// current position, each band scans on a pooled worker, and report
// deliveries are deferred and replayed in global tag order. Tags are the
// unit of parallelism because each (tag, tick) owns an independent named
// RNG stream; within one tag the draw sequence is data-dependent and
// inherently serial. The engine breaks same-time event ties by insertion
// order, so the in-order replay makes the sharded schedule — and
// therefore the whole simulation output — byte-identical to the serial
// path at any worker count (see the region equivalence tests, which
// compare ScanWorkers > 1 against the serial ScanWorkers <= 1 tick).
package encounter

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"tagsim/internal/ble"
	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/runner"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// Config parameterizes the radio plane.
type Config struct {
	// ScanInterval is the encounter evaluation cadence (default 30 s).
	ScanInterval time.Duration
	// MaxRangeM bounds the candidate search radius (default 120 m,
	// slightly beyond the best tag's decodable range).
	MaxRangeM float64
	// CrossEcosystem makes every reporting device report both vendors'
	// tags — the paper's hypothetical unified ecosystem, used by the
	// ablation benches. The paper's own "combined" analysis instead
	// merges the two co-located tags' histories after the fact.
	CrossEcosystem bool
	// Receiver is the scanning radio model (defaults to a typical phone).
	Receiver ble.Receiver
	// ScanWorkers shards the scan tick across fleet regions on a reusable
	// worker pool (<= 1 runs the serial tick, the reference the sharded
	// tick is tested against). Output is byte-identical at any value;
	// see the package comment.
	ScanWorkers int
	// ScanRegions overrides how many row bands the fleet is cut into
	// (0 = 4x ScanWorkers, clamped to the rows its homes span). More
	// regions than workers lets the in-order job claim balance uneven
	// tag clustering.
	ScanRegions int
}

func (c *Config) defaults() {
	if c.ScanInterval <= 0 {
		c.ScanInterval = 30 * time.Second
	}
	if c.MaxRangeM <= 0 {
		c.MaxRangeM = 120
	}
	if c.Receiver == (ble.Receiver{}) {
		c.Receiver = ble.DefaultReceiver
	}
}

// scanScratch is one worker's private hot-path state: the candidate
// index buffer with the query that filled it, the reusable reseedable
// RNG stream, and a fleet query stream with its own scratch. scratch[0]
// serves the serial path.
type scanScratch struct {
	buf    []int32
	asked  bool       // buf holds the answer for bufPos at bufAt
	bufPos geo.LatLon // tag position of the query behind buf
	bufAt  time.Time  // scan instant of the query behind buf
	stream *sim.Stream
	search *device.Searcher
}

// pendingReport is one report whose delivery scheduling was deferred by
// a scan worker, to be replayed in tag order on the engine goroutine.
type pendingReport struct {
	rep trace.Report
	svc *cloud.Service
}

// Plane wires tags, a device fleet, and vendor clouds together.
type Plane struct {
	cfg      Config
	bandDeg  float64 // geo.LatBandDeg(cfg.MaxRangeM)
	engine   *sim.Engine
	fleet    *device.Fleet
	tags     []*tag.Tag
	services map[trace.Vendor]*cloud.Service
	devs     []*device.Device // fleet.Devices(), cached for index lookups

	// Counters are atomics so a live serve loop (or a -metrics-every
	// logger) can read Stats concurrently with a running scan loop, and
	// so sharded scan workers can bump them without coordination (adds
	// commute, so totals match the serial path exactly).
	ticks     atomic.Uint64
	heard     atomic.Uint64
	reported  atomic.Uint64
	delivered atomic.Uint64

	// Scan hot-path state, all plane-owned so a tick allocates nothing:
	// tickKey is the RFC3339Nano scan instant formatted once per tick;
	// tagSeed caches each tag's "encounter/<id>/" stream-seed prefix, so
	// the per-(tag, tick) seed is tickKey hashed onto the cached prefix —
	// the exact seed the historical RNG(name) derivation produced;
	// beaconRem carries the fractional expected-beacon mass between
	// ticks per tag; elig holds each tag's per-device next-eligible
	// reporting instants (plane-owned, keyed by device index, so
	// concurrently scanned tags never share mutable device state).
	tickKey   []byte
	tagSeed   []sim.StreamSeed
	beaconRem []float64
	elig      []map[int32]int64
	scratch   []scanScratch

	// emitNow schedules a report immediately (serial path); emitLater
	// defers it into pending for the in-order replay (sharded path).
	// Both are bound once at construction so ticks allocate nothing.
	emitNow   func(ti int, pr pendingReport)
	emitLater func(ti int, pr pendingReport)

	// Region sharding state (pool == nil means the plane always scans
	// serially): tags are bucketed into regionTags by the band under
	// their precomputed tagPos, jobs lists the non-empty bands, and
	// pending holds each tag's deferred deliveries until the replay.
	pool       *runner.Pool
	regions    device.Regions
	tagPos     []geo.LatLon
	regionTags [][]int
	jobs       []int
	pending    [][]pendingReport
}

// New builds a radio plane. Services are keyed by tag vendor; a tag whose
// vendor has no service still generates encounters but its reports go
// nowhere (used by ablations).
func New(cfg Config, e *sim.Engine, fleet *device.Fleet, tags []*tag.Tag, services map[trace.Vendor]*cloud.Service) *Plane {
	cfg.defaults()
	tagSeed := make([]sim.StreamSeed, len(tags))
	for i, tg := range tags {
		tagSeed[i] = e.StreamSeed().String("encounter/").String(tg.ID).String("/")
	}
	p := &Plane{
		cfg:       cfg,
		bandDeg:   geo.LatBandDeg(cfg.MaxRangeM),
		engine:    e,
		fleet:     fleet,
		tags:      tags,
		services:  services,
		devs:      fleet.Devices(),
		tickKey:   make([]byte, 0, len(time.RFC3339Nano)),
		tagSeed:   tagSeed,
		beaconRem: make([]float64, len(tags)),
		elig:      make([]map[int32]int64, len(tags)),
	}
	for i := range p.elig {
		p.elig[i] = make(map[int32]int64)
	}
	p.emitNow = p.deliverNow
	p.emitLater = p.deferDelivery

	workers := cfg.ScanWorkers
	if workers > len(tags) {
		workers = len(tags) // a worker per tag saturates the parallelism
	}
	if workers > 1 {
		nRegions := cfg.ScanRegions
		if nRegions <= 0 {
			nRegions = 4 * workers
		}
		if regions := fleet.Regions(nRegions); regions.Count() > 1 {
			p.regions = regions
			p.pool = runner.NewPool(workers)
			p.tagPos = make([]geo.LatLon, len(tags))
			p.regionTags = make([][]int, regions.Count())
			p.pending = make([][]pendingReport, len(tags))
		}
	}
	nScratch := 1
	if p.pool != nil {
		nScratch = p.pool.Workers()
	}
	p.scratch = make([]scanScratch, nScratch)
	for i := range p.scratch {
		p.scratch[i] = scanScratch{
			buf:    make([]int32, 0, 256),
			stream: sim.NewStream(),
			search: fleet.Searcher(),
		}
	}
	return p
}

// Attach starts the scan loop at start; the returned function stops it.
func (p *Plane) Attach(start time.Time) (stop func()) {
	return p.engine.EveryFixed(start, p.cfg.ScanInterval, p.ScanOnce)
}

// Close releases the scan pool's worker goroutines (no-op for serial
// planes). The plane must not scan after Close.
func (p *Plane) Close() {
	if p.pool != nil {
		p.pool.Close()
	}
}

// Process-wide radio-plane series in the obs.Default registry,
// aggregated across every live Plane (a campaign builds one per world).
var (
	obsTicks      = obs.GetCounter("encounter_ticks_total")
	obsHeard      = obs.GetCounter("encounter_heard_total")
	obsReported   = obs.GetCounter("encounter_reported_total")
	obsDelivered  = obs.GetCounter("encounter_delivered_total")
	obsRegionScan = obs.GetHistogram("encounter_region_scan_seconds")
)

// ScanOnce evaluates one encounter window at the given virtual time.
func (p *Plane) ScanOnce(now time.Time) {
	p.ticks.Add(1)
	obsTicks.Inc()
	// One formatting of the scan instant serves every tag this tick; it
	// is the per-tick suffix of each tag's RNG stream name.
	p.tickKey = now.UTC().AppendFormat(p.tickKey[:0], time.RFC3339Nano)
	if p.pool != nil {
		p.scanSharded(now)
		return
	}
	ws := &p.scratch[0]
	for i, tg := range p.tags {
		p.scanTag(ws, i, tg, now, tg.Pos(now), p.emitNow)
	}
}

// scanSharded runs one tick across the region pool. Tag positions are
// resolved up front (mobility models are pure functions of time, but
// resolving them once keeps the region assignment in one place), tags
// are bucketed by region band, and the non-empty bands are claimed
// in order by the pooled workers. Every per-tag effect (RNG draws,
// beacon accounting, eligibility slots) is owned by exactly one worker
// this tick; the only cross-tag effect — report delivery scheduling —
// is deferred and replayed in tag order below.
func (p *Plane) scanSharded(now time.Time) {
	for i, tg := range p.tags {
		p.tagPos[i] = tg.Pos(now)
	}
	for r := range p.regionTags {
		p.regionTags[r] = p.regionTags[r][:0]
	}
	for i := range p.tags {
		r := p.regions.Of(p.tagPos[i])
		p.regionTags[r] = append(p.regionTags[r], i)
	}
	p.jobs = p.jobs[:0]
	for r, ts := range p.regionTags {
		if len(ts) > 0 {
			p.jobs = append(p.jobs, r)
		}
	}
	p.pool.Run(len(p.jobs), func(worker, job int) {
		start := time.Now()
		ws := &p.scratch[worker]
		for _, ti := range p.regionTags[p.jobs[job]] {
			p.scanTag(ws, ti, p.tags[ti], now, p.tagPos[ti], p.emitLater)
		}
		obsRegionScan.Observe(time.Since(start))
	})
	// Replay deferred deliveries in global tag order. The engine breaks
	// same-time ties by insertion sequence, and ScanOnce runs atomically
	// within one engine event, so scheduling here in (tag, candidate)
	// order reproduces the serial path's event order exactly.
	for ti := range p.pending {
		for _, pr := range p.pending[ti] {
			p.schedule(pr)
		}
		p.pending[ti] = p.pending[ti][:0]
	}
}

// scanTag evaluates one tag's scan window on the given worker scratch.
// Reports pass through emit: immediate scheduling on the serial path,
// deferred on the sharded path. The draw sequence is identical either
// way — emit performs no RNG draws.
//
// Many candidates are out of range: the fleet bounds them by where they
// can be during the hour, not where they are now. No draw happens
// before the range test, so a candidate outside the tag's latitude band
// (geo.LatBandDeg) is dropped before the haversine, and the (tag, tick)
// stream is seeded only when the first candidate passes; neither
// shortcut changes a draw.
func (p *Plane) scanTag(ws *scanScratch, ti int, tg *tag.Tag, now time.Time, tagPos geo.LatLon, emit func(int, pendingReport)) {
	beacons := tg.ExpectedBeacons(p.cfg.ScanInterval)
	// Count whole beacons and carry the fractional mass to the next tick,
	// so e.g. 22.5 expected beacons per window accounts 45 over two ticks
	// instead of truncating to 44.
	whole, frac := math.Modf(beacons + p.beaconRem[ti])
	p.beaconRem[ti] = frac
	tg.CountBeacons(uint64(whole))

	// Tags carried together (a campaign's AirTag and SmartTag ride one
	// itinerary) ask the fleet the same question in the same tick; the
	// worker answers it once. The fleet is immutable, so equal queries
	// have equal answers.
	if !ws.asked || tagPos != ws.bufPos || !now.Equal(ws.bufAt) {
		ws.buf = ws.search.NearIndices(tagPos, now, p.cfg.MaxRangeM, ws.buf[:0])
		ws.asked, ws.bufPos, ws.bufAt = true, tagPos, now
	}
	if len(ws.buf) == 0 {
		return
	}
	var rng *rand.Rand
	elig := p.elig[ti]
	for _, di := range ws.buf {
		dev := p.devs[di]
		if !dev.Reports(tg.Profile.Vendor, p.cfg.CrossEcosystem) {
			continue
		}
		devPos := dev.Pos(now)
		if math.Abs(devPos.Lat-tagPos.Lat) > p.bandDeg {
			continue
		}
		d := geo.Distance(devPos, tagPos)
		if d > p.cfg.MaxRangeM {
			continue
		}
		if rng == nil {
			rng = ws.stream.Reseed(p.tagSeed[ti].Bytes(p.tickKey).Seed())
		}
		decodeProb := tg.Profile.Channel.DecodeProb(d, p.cfg.Receiver)
		hearProb := dev.Strategy.HearProb(beacons, decodeProb)
		if rng.Float64() >= hearProb {
			continue
		}
		p.heard.Add(1)
		obsHeard.Inc()
		cur := elig[di]
		next, delay, ok := dev.ReportDecision(now, cur, rng)
		if next != cur {
			elig[di] = next
		}
		if !ok {
			continue
		}
		p.reported.Add(1)
		obsReported.Inc()
		// The reported location is the device's GPS fix at hear time —
		// the approximation the paper identifies as the dominant error
		// source (up to the full Bluetooth range).
		fix := dev.GPSFix(now, rng)
		rssi := tg.Profile.Channel.SampleRSSI(d, 0, rng)
		rep := trace.Report{
			T:          now.Add(delay),
			HeardAt:    now,
			TagID:      tg.ID,
			Vendor:     tg.Profile.Vendor,
			ReporterID: dev.ID,
			Pos:        fix,
			RSSI:       rssi,
		}
		svc := p.services[tg.Profile.Vendor]
		if svc == nil {
			continue
		}
		emit(ti, pendingReport{rep: rep, svc: svc})
	}
}

// deliverNow schedules the report's delivery immediately (serial path).
func (p *Plane) deliverNow(ti int, pr pendingReport) { p.schedule(pr) }

// deferDelivery queues the report for the tag-order replay. Workers
// write disjoint pending slots (each tag belongs to exactly one region
// per tick), so no locking is needed.
func (p *Plane) deferDelivery(ti int, pr pendingReport) {
	p.pending[ti] = append(p.pending[ti], pr)
}

// schedule registers the report's cloud delivery with the engine.
func (p *Plane) schedule(pr pendingReport) {
	rep, svc := pr.rep, pr.svc
	p.engine.Schedule(rep.T, func() {
		if svc.Ingest(rep) {
			p.delivered.Add(1)
			obsDelivered.Inc()
		}
	})
}

// scanStreamName is the per-(tag, scan instant) RNG stream name, so scan
// outcomes do not depend on how many other entities drew from a shared
// stream earlier. The hot path never builds this string — it extends the
// cached per-tag seed prefix with the tick key instead — but the name is
// the frozen contract both derivations must match (see TestScanStream).
func scanStreamName(tagID string, now time.Time) string {
	return "encounter/" + tagID + "/" + now.UTC().Format(time.RFC3339Nano)
}

// Stats returns plane counters: beacons heard, reports attempted (passed
// the vendor strategy), and reports accepted by the clouds. Safe to call
// concurrently with a running scan loop — each load is atomic (the three
// are not mutually consistent mid-tick).
func (p *Plane) Stats() (heard, reported, delivered uint64) {
	return p.heard.Load(), p.reported.Load(), p.delivered.Load()
}

// Ticks returns the number of scan windows evaluated so far. Safe for
// concurrent use.
func (p *Plane) Ticks() uint64 { return p.ticks.Load() }

// ExpectedHearProb exposes the plane's hear-probability computation for
// calibration tests: the probability a single device at distance d hears
// the tag within one scan interval. Distances beyond the plane's search
// radius return zero, exactly as the simulation behaves.
func (p *Plane) ExpectedHearProb(tg *tag.Tag, d float64) float64 {
	if d > p.cfg.MaxRangeM {
		return 0
	}
	return p.hearProbUngated(tg, d)
}

func (p *Plane) hearProbUngated(tg *tag.Tag, d float64) float64 {
	decodeProb := tg.Profile.Channel.DecodeProb(d, p.cfg.Receiver)
	beacons := tg.ExpectedBeacons(p.cfg.ScanInterval)
	// Use a representative strategy duty cycle (both vendors scan 1 s in
	// 10 s).
	s := device.AppleStrategy()
	return s.HearProb(beacons, decodeProb)
}

// MaxUsefulRange returns the distance beyond which the hear probability
// per scan drops below eps for the tag, clamped to the plane's search
// radius (encounters past MaxRangeM never happen regardless of the
// radio). Useful for sizing MaxRangeM.
func (p *Plane) MaxUsefulRange(tg *tag.Tag, eps float64) float64 {
	lo, hi := 1.0, 1000.0
	if p.hearProbUngated(tg, hi) > eps {
		return math.Min(hi, p.cfg.MaxRangeM)
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if p.hearProbUngated(tg, mid) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Min((lo+hi)/2, p.cfg.MaxRangeM)
}
