// The hot-tag cache of the query plane. The serving workload the load
// harness models — and the tag-popularity regime the tagging literature
// measures — is Zipf: a handful of hot tags absorb most of the query
// mass. At the same time the vendor rate cap (Figure 4's plateau) keeps
// any one tag's state changing at most every ~3 minutes. Both skews
// point the same way: a small, bounded, direct-mapped cache in front of
// the cross-vendor merge answers the overwhelming majority of
// /v1/lastknown, /v1/track, and capped /v1/history queries without
// touching the stores at
// all, and stays exactly fresh because every entry is keyed to the
// store shard epochs it was computed under — any write to a tag's shard
// bumps the epoch and the entry stops matching.
//
// Direct-mapped replacement is deliberately Zipf-aware: a cold tag that
// collides with a hot one steals the slot for a single fill, and the
// next hot-tag query immediately takes it back, so hot tags dominate
// slot residency in proportion to their query share without any
// LRU bookkeeping on the read path.
package cloud

import (
	"sync/atomic"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// DefaultHotCacheSlots sizes NewHotCache's slot array when given
// n <= 0. With Zipf-skewed popularity a few hundred tags carry most of
// the query mass, but a direct-mapped cache needs slack well beyond the
// hot set: two hot tags sharing a slot evict each other on every
// alternation, so the array is sized 4096 — several times any realistic
// hot set — to keep such collisions rare while staying bounded (the
// slot array is 64KiB of pointers).
const DefaultHotCacheSlots = 4096

// hotCacheDisabled bypasses the cache (every query recomputes against
// the stores) — the escape hatch the cached-vs-direct equivalence
// tests and benchmarks toggle, and tagserve -no-cache sets.
var hotCacheDisabled atomic.Bool

// SetHotCache toggles hot-tag caching (default on). It returns the
// previous setting.
func SetHotCache(enabled bool) (was bool) { return !hotCacheDisabled.Swap(!enabled) }

// HotCacheEnabled reports whether hot-tag caching is enabled.
func HotCacheEnabled() bool { return !hotCacheDisabled.Load() }

// hotEntry is one immutable cache fill: everything the combined-view
// last-known, track, and capped-history queries need for one tag, valid
// exactly while the summed shard epochs of the backing stores still
// equal epoch. The track and history window are filled lazily (a
// last-known query pays for neither merge), hasTrack/hasHist keeping
// "not computed" apart from "known tag, empty result". The history
// window is cached at one limit per entry — the companion app's history
// pane asks for the same newest-N window every time, so a second limit
// on the same hot tag simply refills.
type hotEntry struct {
	tag       string
	epoch     uint64
	known     bool
	found     bool
	pos       geo.LatLon
	at        time.Time
	hasTrack  bool
	track     []trace.Report
	hasHist   bool
	histLimit int
	hist      []trace.Report
}

// HotCache is a bounded, epoch-validated cache over the combined
// (freshest-wins) view of a set of vendor services. All methods are
// safe for unsynchronized concurrent use: slots are atomic pointers to
// immutable entries, so the read path is two atomic loads plus one
// epoch recheck per backing store, and concurrent fills simply
// last-write-win.
type HotCache struct {
	svcs     []*Service // sorted by vendor, for deterministic probes
	combined Combined
	mask     uint64
	slots    []atomic.Pointer[hotEntry]

	// Effectiveness counters (obs-gated atomics, one add per probe on
	// the hot path). A probe is a hit when it returns a valid entry and
	// a miss otherwise; misses where the slot held this very tag under a
	// stale epoch additionally count as invalidations — the share of
	// misses caused by writes rather than by collisions or cold slots.
	// Fills count entry publications, including lazy track/history
	// upgrades of a hit.
	hits          obs.Counter
	misses        obs.Counter
	fills         obs.Counter
	invalidations obs.Counter
}

// CacheStats is a point-in-time copy of a HotCache's effectiveness
// counters — the decomposition of the cached read path's speedup that
// /v1/stats and /metrics surface.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Fills         uint64 `json:"fills"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats returns the cache's counters. Loads are individually atomic,
// not mutually consistent under concurrent probes.
func (c *HotCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Fills:         c.fills.Value(),
		Invalidations: c.invalidations.Value(),
	}
}

// NewHotCache builds a cache with the given slot count (rounded up to a
// power of two; n <= 0 means DefaultHotCacheSlots) over the services.
func NewHotCache(services map[trace.Vendor]*Service, slots int) *HotCache {
	if slots <= 0 {
		slots = DefaultHotCacheSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	c := &HotCache{mask: uint64(n - 1), slots: make([]atomic.Pointer[hotEntry], n)}
	for _, svc := range services {
		c.svcs = append(c.svcs, svc)
	}
	sortServices(c.svcs)
	c.combined = Combined(c.svcs)
	return c
}

// epochAt sums the tag's shard epoch across every backing store, for a
// hash precomputed with store.TagHash. Each term is monotonic, so the
// sum is too: equal sums mean no term — no shard — changed, which is
// what makes it a sound validity key.
func (c *HotCache) epochAt(h uint64) uint64 {
	var e uint64
	for _, svc := range c.svcs {
		e += svc.TagEpochAt(h)
	}
	return e
}

// knownDirect probes the services in sorted vendor order, stopping at
// the first hit — the deterministic unknown-tag probe.
func (c *HotCache) knownDirect(tagID string) bool {
	for _, svc := range c.svcs {
		if svc.Known(tagID) {
			return true
		}
	}
	return false
}

// probe hashes the tag once (store.TagHash addresses both the slot and
// every store's shard epoch) and returns the slot, the tag's entry if
// it is present and still valid under the current epoch, and that epoch
// (read before any state, so a fill stored under it can never be
// fresher than it claims).
// The probe outcome lands on the request trace as an untimed event —
// cache hits are the ~600ns fast path and cannot afford clock reads —
// with the slot index as A1 and, on a miss, whether it was an epoch
// invalidation (A2=1) rather than a collision or cold slot.
func (c *HotCache) probe(tagID string, tr *otrace.Trace) (slot *atomic.Pointer[hotEntry], e *hotEntry, epoch uint64) {
	h := store.TagHash(tagID)
	slot = &c.slots[h&c.mask]
	epoch = c.epochAt(h)
	if e = slot.Load(); e != nil && e.tag == tagID && e.epoch == epoch {
		c.hits.Inc()
		tr.Event(otrace.PlaneCache, "cache.hit", int64(h&c.mask), 0)
		return slot, e, epoch
	}
	var inval int64
	if e != nil && e.tag == tagID {
		c.invalidations.Inc()
		inval = 1
	}
	c.misses.Inc()
	tr.Event(otrace.PlaneCache, "cache.miss", int64(h&c.mask), inval)
	return slot, nil, epoch
}

// LastSeen answers the combined-view last-known query through the
// cache: the freshest fix across vendors plus whether any vendor knows
// the tag at all (the query API's 404 distinction). A miss fills the
// slot; the entry is served only while the backing shards' epochs still
// match, so a cached answer is never staler than the epoch it was
// published under.
func (c *HotCache) LastSeen(tagID string) (pos geo.LatLon, at time.Time, found, known bool) {
	return c.LastSeenTraced(tagID, nil)
}

// LastSeenTraced is LastSeen recording onto a request trace (nil tr
// traces nothing): the probe outcome as an event, and a miss's fill as
// a timed cache.fill.lastseen span.
func (c *HotCache) LastSeenTraced(tagID string, tr *otrace.Trace) (pos geo.LatLon, at time.Time, found, known bool) {
	if hotCacheDisabled.Load() {
		if !c.knownDirect(tagID) {
			return pos, at, false, false
		}
		pos, at, found = c.combined.LastSeen(tagID)
		return pos, at, found, true
	}
	slot, e, epoch := c.probe(tagID, tr)
	if e == nil {
		sp := tr.Start(otrace.PlaneCache, "cache.fill.lastseen", 0, 0)
		e = &hotEntry{tag: tagID, epoch: epoch, known: c.knownDirect(tagID)}
		if e.known {
			e.pos, e.at, e.found = c.combined.LastSeen(tagID)
		}
		slot.Store(e)
		c.fills.Inc()
		tr.Finish(sp)
	}
	return e.pos, e.at, e.found, e.known
}

// Track answers the cross-vendor track query through the cache: the
// merged, time-sorted report history across vendors (nil when the tag
// has none), plus the known flag. A track fill also carries the
// last-known fix, so a hot tag's /v1/lastknown and /v1/track share one
// entry.
func (c *HotCache) Track(tagID string) (track []trace.Report, known bool) {
	return c.TrackTraced(tagID, nil)
}

// TrackTraced is Track recording onto a request trace (nil tr traces
// nothing). The fill span's A1 is the merged track length; the merge
// itself threads tr down into each store's read path.
func (c *HotCache) TrackTraced(tagID string, tr *otrace.Trace) (track []trace.Report, known bool) {
	if hotCacheDisabled.Load() {
		if !c.knownDirect(tagID) {
			return nil, false
		}
		return c.combined.MergedHistoryTraced(tagID, tr), true
	}
	slot, e, epoch := c.probe(tagID, tr)
	if e == nil || !e.hasTrack {
		sp := tr.Start(otrace.PlaneCache, "cache.fill.track", 0, 0)
		ne := &hotEntry{tag: tagID, epoch: epoch, hasTrack: true}
		if e != nil { // valid fill: keep what it has, add the track
			ne.known, ne.found, ne.pos, ne.at = e.known, e.found, e.pos, e.at
			ne.hasHist, ne.histLimit, ne.hist = e.hasHist, e.histLimit, e.hist
		} else if ne.known = c.knownDirect(tagID); ne.known {
			ne.pos, ne.at, ne.found = c.combined.LastSeen(tagID)
		}
		if ne.known {
			ne.track = c.combined.MergedHistoryTraced(tagID, tr)
		}
		slot.Store(ne)
		c.fills.Inc()
		tr.SetAttrs(sp, int64(len(ne.track)), 0)
		tr.Finish(sp)
		e = ne
	}
	return e.track, e.known
}

// HistoryTail answers the capped merged-history query through the
// cache: Combined.MergedHistoryTail plus the known flag. One history
// window is cached per entry, keyed by its limit; the returned slice is
// shared with later hits and must not be mutated.
func (c *HotCache) HistoryTail(tagID string, limit int) (hist []trace.Report, known bool) {
	return c.HistoryTailTraced(tagID, limit, nil)
}

// HistoryTailTraced is HistoryTail recording onto a request trace (nil
// tr traces nothing). The fill span carries the requested limit (A1)
// and the rows returned (A2); the tail merge threads tr down into each
// store's memtable view and segment reads — the path a cold-history
// capture shows as cache.miss → cache.fill.history → store.memtable →
// store.pread/store.decode.
func (c *HotCache) HistoryTailTraced(tagID string, limit int, tr *otrace.Trace) (hist []trace.Report, known bool) {
	if hotCacheDisabled.Load() {
		if !c.knownDirect(tagID) {
			return nil, false
		}
		return c.combined.MergedHistoryTailTraced(tagID, limit, tr), true
	}
	slot, e, epoch := c.probe(tagID, tr)
	if e == nil || !e.hasHist || e.histLimit != limit {
		sp := tr.Start(otrace.PlaneCache, "cache.fill.history", int64(limit), 0)
		ne := &hotEntry{tag: tagID, epoch: epoch, hasHist: true, histLimit: limit}
		if e != nil { // valid fill: keep what it has, add the window
			ne.known, ne.found, ne.pos, ne.at = e.known, e.found, e.pos, e.at
			ne.hasTrack, ne.track = e.hasTrack, e.track
		} else if ne.known = c.knownDirect(tagID); ne.known {
			ne.pos, ne.at, ne.found = c.combined.LastSeen(tagID)
		}
		if ne.known {
			ne.hist = c.combined.MergedHistoryTailTraced(tagID, limit, tr)
		}
		slot.Store(ne)
		c.fills.Inc()
		tr.SetAttrs(sp, int64(limit), int64(len(ne.hist)))
		tr.Finish(sp)
		e = ne
	}
	return e.hist, e.known
}

// Known answers the cached unknown-tag probe: a valid entry's verdict
// when one exists, otherwise the direct sorted-order probe (without
// filling — pure existence checks shouldn't evict a hot fill).
func (c *HotCache) Known(tagID string) bool {
	if !hotCacheDisabled.Load() {
		if _, e, _ := c.probe(tagID, nil); e != nil {
			return e.known
		}
	}
	return c.knownDirect(tagID)
}
