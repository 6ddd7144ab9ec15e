// Package store is the serving-side report store behind the vendor
// clouds: a sharded map of per-tag state that stays correct under
// GOMAXPROCS concurrent writers while preserving, shard count for shard
// count, the exact accept/reject semantics the single-goroutine
// simulation depends on — and whose read path takes no locks at all.
//
// Layout: tags are hashed (FNV-1a) onto a power-of-two number of
// shards; each shard serializes its writers with its own mutex, so
// writers to different tags contend only when they collide on a shard.
// Per-tag state carries the rate-cap clock (the paper's Figure 4
// plateau is enforced here), the last-known location, and a bounded
// history ring. The accept/reject counters are atomics bumped while the
// shard lock is held, which makes Snapshot — which takes every shard
// lock in index order — a fully consistent point-in-time read: counters
// and histories always agree inside one snapshot.
//
// Read path: every write publishes the tag's state as an immutable
// epoch view (tagView) behind an atomic pointer, and each shard keeps a
// copy-on-write read map from tag ID to its state cell, so LastSeen /
// Known / History / RecentHistory never take the shard mutex. New tags
// land in a writer-owned dirty map first and are promoted wholesale
// into a fresh read map after enough reader misses — the sync.Map
// amortization, specialized to a keyspace that never deletes — so in
// steady state (the Zipf-hot query mix, where the tag universe is
// settled) readers touch two atomic loads and nothing else, and read
// throughput scales with cores instead of flattening on the shard
// locks. A tag's views are published in write order, so a reader can
// never observe last-seen time move backward. Each shard also carries
// an epoch counter bumped on every state change; the query plane's
// hot-tag cache validates entries against it. The tests keep a
// mutex-guarded reader as the oracle the lock-free path is compared
// against (byte-identical, raced in CI).
//
// Determinism: acceptance of a report depends only on that tag's prior
// state, never on shard count or on other tags, so any single-writer
// ingest order produces byte-identical state at every shard count.
package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/geo"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/trace"
)

// DefaultShards is the shard count New uses when given n <= 0: enough
// to spread an 8-16 client load without bloating the tiny per-world
// stores the simulation creates.
const DefaultShards = 8

// Store is a sharded concurrent report store for one vendor cloud.
//
// The three policy fields mirror the historical cloud.Service knobs and
// must be set before the store is shared across goroutines; after that
// they are read-only.
type Store struct {
	// MinUpdateInterval is the per-tag accepted-report spacing (the
	// ingestion rate cap). Zero still rejects non-advancing timestamps.
	MinUpdateInterval time.Duration
	// KeepHistory retains accepted reports per tag (the crawlers rebuild
	// history themselves, but experiments read it for ground-truth joins).
	KeepHistory bool
	// HistoryLimit bounds the retained history per tag to the most
	// recent N accepted reports. 0 keeps everything — the historical
	// behavior, which experiments that join full histories rely on.
	HistoryLimit int
	// Retention generalizes HistoryLimit into the storage engine's
	// policy (keep-N and keep-window compose; see Retention). A zero
	// value defers to HistoryLimit.
	Retention Retention

	shards   []shard
	mask     uint64
	accepted atomic.Uint64
	rejected atomic.Uint64
	// tier is the persistence layer (WAL, segments, compaction) behind
	// stores built with Open; nil for in-memory stores, and every tier
	// branch below compiles down to one nil check.
	tier *tier
}

// readView is a shard's atomically published tag map. The map itself is
// immutable once published; only the per-tag state cells it points to
// evolve (through their own atomic views). amended means the shard's
// dirty map holds tags this map does not, so a reader that misses here
// must fall back to the lock before concluding the tag is unknown.
type readView struct {
	tags    map[string]*tagState
	amended bool
}

// shard is one lock domain of the tag space. Writers (Ingest, Restore,
// Register) serialize on mu; readers go through read and only fall back
// to mu for tags newer than the last promotion. The trailing padding
// sizes the struct to a 64-byte cache line, keeping neighboring shards'
// hot fields from false-sharing under contention.
type shard struct {
	mu sync.Mutex
	// read is the lock-free view of the shard's tag set.
	read atomic.Pointer[readView]
	// dirty, when non-nil, is a superset of read.tags including tags
	// added since the last promotion. Guarded by mu; promoted wholesale
	// (becoming the new read map) after misses reader fallbacks.
	dirty  map[string]*tagState
	misses int
	// epoch counts this shard's state changes (accepted ingests,
	// restores, registrations). The hot-tag cache above the store keys
	// its entries on it: any bump invalidates every cached answer for
	// tags on this shard.
	epoch atomic.Uint64
	// accepted/rejected mirror the store totals per shard, feeding the
	// observability plane's per-shard series (hot-shard skew is invisible
	// in the totals). Bumped under mu like the totals.
	accepted atomic.Uint64
	rejected atomic.Uint64
	// flushDirty, in tiered stores, is the set of tags whose state
	// changed since the last flush — the flush's work list. Guarded by
	// mu; nil when clean.
	flushDirty map[string]struct{}
	_          [8]byte
}

// tagState is one tag's state cell. The mutable fields are owned by the
// shard's writers (guarded by its mutex); view is the immutable
// epoch-view readers load instead.
type tagState struct {
	lastPos geo.LatLon
	lastAt  time.Time
	hasLast bool
	hist    []trace.Report
	histAt  int // ring write index once len(hist) == HistoryLimit
	// persisted counts the tag's history rows flushed to segments; the
	// ring holds only rows newer than that. Always 0 in-memory.
	persisted uint64
	view      atomic.Pointer[tagView]
}

// tagView is the immutable per-tag state record the lock-free read path
// serves from. Writers build a fresh one after every mutation and
// publish it with an atomic pointer swap; the hist backing array is
// never written in place at an index a published view covers (appends
// land past every published length, ring overwrites copy first), so
// readers may slice it freely.
type tagView struct {
	lastPos geo.LatLon
	lastAt  time.Time
	hasLast bool
	hist    []trace.Report
	histAt  int
	// persisted is the tag's on-disk row count as of this view. Readers
	// fetch disk rows by persisted-sequence range [persisted-n,
	// persisted), which is what keeps a flush racing a lock-free read
	// harmless: a stale view's rows are still in its ring, and any
	// newer disk copies sit above its persisted bound, outside the
	// requested range.
	persisted uint64
}

// publish snapshots the mutable state into a fresh immutable view. Must
// be called with the shard lock held, after every mutation.
func (st *tagState) publish() {
	st.view.Store(&tagView{
		lastPos: st.lastPos, lastAt: st.lastAt, hasLast: st.hasLast,
		hist: st.hist[:len(st.hist):len(st.hist)], histAt: st.histAt,
		persisted: st.persisted,
	})
}

func (st *tagState) appendHistory(r trace.Report, limit int) {
	if limit <= 0 || len(st.hist) < limit {
		st.hist = append(st.hist, r)
		return
	}
	// The ring is full: copy before overwriting, because published views
	// share the current backing array and their readers hold no lock.
	h := make([]trace.Report, limit)
	copy(h, st.hist)
	h[st.histAt] = r
	st.hist = h
	st.histAt = (st.histAt + 1) % limit
}

// historyCopy returns the retained reports oldest-first.
func (st *tagState) historyCopy() []trace.Report {
	return ringCopy(st.hist, st.histAt, -1)
}

// ringCopy copies the newest limit reports out of a history ring,
// oldest-first (limit < 0 or >= len: everything). A nil return means no
// history at all; limit 0 against a non-empty ring is an empty non-nil
// slice, so callers can keep the two apart.
func ringCopy(hist []trace.Report, histAt, limit int) []trace.Report {
	if len(hist) == 0 {
		return nil
	}
	if limit < 0 || limit > len(hist) {
		limit = len(hist)
	}
	out := make([]trace.Report, 0, limit)
	// Oldest-first order is hist[histAt:] then hist[:histAt]; the newest
	// limit entries start at offset len-limit of that sequence.
	start := histAt + len(hist) - limit
	if start >= len(hist) {
		return append(out, hist[start-len(hist):histAt]...)
	}
	out = append(out, hist[start:]...)
	return append(out, hist[:histAt]...)
}

// New creates a store with the given shard count, rounded up to a power
// of two; n <= 0 means DefaultShards. Policy fields start at their zero
// values (no rate cap beyond monotonicity, no history).
func New(nShards int) *Store {
	if nShards <= 0 {
		nShards = DefaultShards
	}
	n := 1
	for n < nShards {
		n <<= 1
	}
	s := &Store{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].read.Store(&readView{tags: map[string]*tagState{}})
	}
	return s
}

// NumShards returns the (power-of-two) shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// TagHash is the FNV-1a hash the store shards tags by. It is exported
// so layered read-side structures (the query plane's hot-tag cache) can
// hash a tag once and address both their own slots and every store's
// shard epoch (TagEpochAt) with the same value.
func TagHash(tagID string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tagID); i++ {
		h ^= uint64(tagID[i])
		h *= 1099511628211
	}
	return h
}

// shardFor hashes a tag ID onto its shard.
func (s *Store) shardFor(tagID string) *shard {
	return &s.shards[TagHash(tagID)&s.mask]
}

// stateLocked returns the tag's state cell, creating it if needed. The
// shard lock must be held. Creation goes through the dirty map so the
// published read map stays immutable.
func (sh *shard) stateLocked(tagID string) (st *tagState, created bool) {
	rv := sh.read.Load()
	if st, ok := rv.tags[tagID]; ok {
		return st, false
	}
	if sh.dirty == nil {
		sh.dirty = make(map[string]*tagState, len(rv.tags)+1)
		for k, v := range rv.tags {
			sh.dirty[k] = v
		}
		sh.read.Store(&readView{tags: rv.tags, amended: true})
	}
	if st, ok := sh.dirty[tagID]; ok {
		return st, false
	}
	st = &tagState{}
	st.view.Store(&tagView{})
	sh.dirty[tagID] = st
	return st, true
}

// getLocked returns the tag's state cell or nil. The shard lock must be
// held.
func (sh *shard) getLocked(tagID string) *tagState {
	if st, ok := sh.read.Load().tags[tagID]; ok {
		return st
	}
	return sh.dirty[tagID]
}

// allLocked returns the shard's complete tag map (the dirty superset
// when one exists). The shard lock must be held; callers must not
// mutate the result.
func (sh *shard) allLocked() map[string]*tagState {
	if sh.dirty != nil {
		return sh.dirty
	}
	return sh.read.Load().tags
}

// lookup is the lock-free tag resolution: a hit in the read map (or a
// miss with no amendments pending) answers without the mutex; otherwise
// the reader falls back to the lock and counts a miss toward the next
// wholesale promotion of the dirty map.
func (sh *shard) lookup(tagID string) *tagState {
	rv := sh.read.Load()
	st, ok := rv.tags[tagID]
	if ok || !rv.amended {
		return st
	}
	sh.mu.Lock()
	rv = sh.read.Load()
	if st, ok = rv.tags[tagID]; !ok && rv.amended {
		st = sh.dirty[tagID]
		sh.misses++
		if sh.misses >= len(sh.dirty) {
			sh.read.Store(&readView{tags: sh.dirty})
			sh.dirty = nil
			sh.misses = 0
		}
	}
	sh.mu.Unlock()
	return st
}

// Register creates state for a tag (idempotent). Tags must be
// registered before they can be crawled; Ingest auto-registers.
func (s *Store) Register(tagID string) {
	sh := s.shardFor(tagID)
	sh.mu.Lock()
	if _, created := sh.stateLocked(tagID); created {
		sh.epoch.Add(1)
		if s.tier != nil {
			s.tier.logRegister(sh, tagID)
		}
	}
	sh.mu.Unlock()
}

// seenAt is the timestamp rate capping and display use: the report's
// observation time (HeardAt), falling back to the acceptance time T.
func seenAt(r trace.Report) time.Time {
	if r.HeardAt.IsZero() {
		return r.T
	}
	return r.HeardAt
}

// Ingest applies the per-tag rate cap and, if the report is accepted,
// updates the tag's last location and history. It returns whether the
// report was accepted. Reports observed earlier than the tag's current
// state are rejected (out-of-order uploads never regress the last-seen
// time). Safe for concurrent use; writers to the same tag serialize on
// the tag's shard.
func (s *Store) Ingest(r trace.Report) bool {
	at := seenAt(r)
	sh := s.shardFor(r.TagID)
	sh.mu.Lock()
	st, created := sh.stateLocked(r.TagID)
	if st.hasLast && (!at.After(st.lastAt) || at.Sub(st.lastAt) < s.MinUpdateInterval) {
		s.rejected.Add(1)
		sh.rejected.Add(1)
		if created {
			sh.epoch.Add(1)
		}
		if s.tier != nil {
			s.tier.logReject(r.TagID)
		}
		sh.mu.Unlock()
		return false
	}
	st.lastPos = r.Pos
	st.lastAt = at
	st.hasLast = true
	if s.KeepHistory {
		st.appendHistory(r, s.keepLast())
	}
	st.publish()
	sh.epoch.Add(1)
	s.accepted.Add(1)
	sh.accepted.Add(1)
	if s.tier != nil {
		s.tier.logApply(sh, r, s.KeepHistory)
	}
	sh.mu.Unlock()
	if s.tier != nil {
		s.tier.maybeFlush(s)
	}
	return true
}

// Restore loads already-accepted reports — a cloud history or a trace
// dump — without re-applying the rate cap, counting each as accepted.
// The last-known location only ever advances, so restoring several
// time-disjoint dumps in any order leaves the freshest fix on top.
// Per-tag history lands in the order given; feed time-sorted input
// when order matters.
func (s *Store) Restore(reports []trace.Report) {
	for _, r := range reports {
		at := seenAt(r)
		sh := s.shardFor(r.TagID)
		sh.mu.Lock()
		st, _ := sh.stateLocked(r.TagID)
		if !st.hasLast || at.After(st.lastAt) {
			st.lastPos = r.Pos
			st.lastAt = at
			st.hasLast = true
		}
		if s.KeepHistory {
			st.appendHistory(r, s.keepLast())
		}
		st.publish()
		sh.epoch.Add(1)
		s.accepted.Add(1)
		sh.accepted.Add(1)
		if s.tier != nil {
			s.tier.logApply(sh, r, s.KeepHistory)
		}
		sh.mu.Unlock()
		if s.tier != nil {
			s.tier.maybeFlush(s)
		}
	}
}

// Known reports whether the tag is registered (explicitly or by a past
// ingest) — the distinction the query API uses between "no location
// found" for a paired tag and a 404 for a tag that does not exist.
func (s *Store) Known(tagID string) bool {
	return s.shardFor(tagID).lookup(tagID) != nil
}

// LastSeen returns the tag's last reported location and when it was
// observed. ok is false when the tag is unknown or has no reports yet.
// The lock-free path serves the tag's latest published epoch view, so
// two sequential reads can never see the last-seen time move backward.
func (s *Store) LastSeen(tagID string) (pos geo.LatLon, at time.Time, ok bool) {
	if st := s.shardFor(tagID).lookup(tagID); st != nil {
		if v := st.view.Load(); v.hasLast {
			return v.lastPos, v.lastAt, true
		}
	}
	return pos, at, false
}

// TagEpochAt returns the current epoch of the shard holding the tag
// whose TagHash is h: a counter bumped on every state change (accepted
// ingest, restore, or registration) landing there. Caches key their
// entries on it — equal epochs guarantee nothing about the tag changed
// in between. Epochs are per shard, so an unrelated colliding tag's
// write also invalidates (conservative, never stale).
func (s *Store) TagEpochAt(h uint64) uint64 {
	return s.shards[h&s.mask].epoch.Load()
}

// History returns a copy of the retained accepted reports for a tag,
// oldest first (nil for an unknown or history-less tag).
func (s *Store) History(tagID string) []trace.Report {
	return s.RecentHistory(tagID, -1)
}

// RecentHistory returns a copy of the newest limit retained reports for
// a tag, oldest-first (limit < 0: everything, i.e. History). A capped
// query copies only those limit entries out of the ring, and in a
// tiered store touches only the segment frames holding the remainder.
// nil means no history at all; limit 0 against a tag with history is an
// empty non-nil slice.
func (s *Store) RecentHistory(tagID string, limit int) []trace.Report {
	return s.RecentHistoryTraced(tagID, limit, nil)
}

// RecentHistoryTraced is RecentHistory recording its memtable merge
// and any segment preads as spans on tr (nil tr traces nothing) — the
// entry point the traced serve/cache read path threads through.
func (s *Store) RecentHistoryTraced(tagID string, limit int, tr *otrace.Trace) []trace.Report {
	if st := s.shardFor(tagID).lookup(tagID); st != nil {
		v := st.view.Load()
		return s.visibleHistory(tagID, v.persisted, v.hist, v.histAt, v.lastAt, limit, tr)
	}
	return nil
}

// visibleHistory assembles the newest-limit reports the Retention
// policy leaves visible for one tag, oldest-first: ring rows as far as
// they reach, persisted (segment) rows for the remainder. It is the
// single read path shared by the lock-free views and Snapshot —
// in-memory stores (persisted 0) reduce to the historical ringCopy.
func (s *Store) visibleHistory(tagID string, persisted uint64, hist []trace.Report, histAt int, lastAt time.Time, limit int, tr *otrace.Trace) []trace.Report {
	total := int(persisted) + len(hist)
	if total == 0 {
		return nil
	}
	if k := s.keepLast(); k > 0 && total > k {
		total = k
	}
	n := total
	if limit >= 0 && limit < n {
		n = limit
	}
	var out []trace.Report
	switch need := n - len(hist); {
	case n == 0:
		out = make([]trace.Report, 0)
	case need <= 0:
		// Ring-only: the memtable merge is an untimed event span — this
		// is the cached fill's hot path, too cheap to bill clock reads.
		tr.Event(otrace.PlaneStore, "store.memtable", int64(n), 0)
		out = ringCopy(hist, histAt, n)
	default:
		// The merge needs disk: a timed span, with the segment pread and
		// frame-decode spans nesting under it.
		sp := tr.Start(otrace.PlaneStore, "store.memtable", int64(len(hist)), int64(need))
		out = make([]trace.Report, 0, n)
		out = s.tier.readDisk(tagID, persisted, need, out, tr)
		out = append(out, ringCopy(hist, histAt, -1)...)
		tr.Finish(sp)
	}
	if w := s.Retention.KeepWindow; w > 0 {
		out = trimWindow(out, lastAt, w)
	}
	return out
}

// TagIDs returns the registered tags in sorted order.
func (s *Store) TagIDs() []string {
	out := make([]string, 0, s.NumTags())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.allLocked() {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// NumTags returns the number of registered tags.
func (s *Store) NumTags() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.allLocked())
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the accept/reject counters. The two loads are
// individually atomic but not mutually consistent under concurrent
// ingest; use Snapshot for a consistent pair.
func (s *Store) Stats() (accepted, rejected uint64) {
	return s.accepted.Load(), s.rejected.Load()
}

// ShardStats is one shard's slice of the store counters — the unit the
// observability plane exports so hot-shard skew (a Zipf head hashing
// onto one shard) shows up in monitoring instead of averaging away.
type ShardStats struct {
	Accepted uint64
	Rejected uint64
	Epoch    uint64
	Tags     int
}

// ShardStats returns shard i's counters. The atomics load lock-free;
// the tag count briefly takes the shard lock (scrape path, not hot
// path). Panics if i is out of range, like a slice index.
func (s *Store) ShardStats(i int) ShardStats {
	sh := &s.shards[i]
	sh.mu.Lock()
	tags := len(sh.allLocked())
	sh.mu.Unlock()
	return ShardStats{
		Accepted: sh.accepted.Load(),
		Rejected: sh.rejected.Load(),
		Epoch:    sh.epoch.Load(),
		Tags:     tags,
	}
}

// TagSnapshot is one tag's state inside a Snapshot.
type TagSnapshot struct {
	ID      string
	Pos     geo.LatLon
	At      time.Time
	HasLast bool
	History []trace.Report
}

// Snapshot is a consistent point-in-time view of the whole store:
// counters and per-tag state captured under all shard locks, tags in
// sorted order — deterministic for deterministic ingest sequences.
type Snapshot struct {
	Accepted, Rejected uint64
	Tags               []TagSnapshot
}

// Snapshot captures the store. It locks every shard (in index order, so
// concurrent snapshots cannot deadlock), meaning no ingest is mid-flight
// while the copy is taken: inside one snapshot, Accepted always equals
// the reports reflected in the tag states.
func (s *Store) Snapshot() Snapshot {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	snap := Snapshot{Accepted: s.accepted.Load(), Rejected: s.rejected.Load()}
	for i := range s.shards {
		for id, st := range s.shards[i].allLocked() {
			snap.Tags = append(snap.Tags, TagSnapshot{
				ID: id, Pos: st.lastPos, At: st.lastAt, HasLast: st.hasLast,
				History: s.visibleHistory(id, st.persisted, st.hist, st.histAt, st.lastAt, -1, nil),
			})
		}
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	sort.Slice(snap.Tags, func(i, j int) bool { return snap.Tags[i].ID < snap.Tags[j].ID })
	return snap
}
