package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/runner"
	"tagsim/internal/trace"
)

// The tiered persistent store stacks three layers under the unchanged
// Store API:
//
//	WAL (durability)  →  memtable (the existing sharded store)  →
//	immutable columnar segments (history at rest)
//
// Every write appends to the WAL, then mutates the memtable exactly as
// the in-memory store would. When the memtable's retained history (or
// the WAL) crosses its byte threshold, a flush drains every dirty tag's
// ring into one immutable segment, rotates the WAL, and commits the new
// shape in the manifest — so a restart opens the manifest, rebuilds the
// tag universe from segment indexes alone (no data frames), and replays
// only the WAL tail. Background size-tiered compaction merges adjacent
// segments and physically drops rows the Retention policy makes
// invisible. Resident memory per tag is its state cell plus whatever
// landed since the last flush; full history lives on disk.
//
// Read merging is the subtle part, and it is coordinated by one number:
// tagView.persisted, the count of the tag's history rows on disk. A
// reader serving the newest n rows takes the ring first and fetches the
// remainder — persisted-sequence range [persisted-need, persisted) —
// from the segment list, newest segment first. Flush publishes the new
// segment list BEFORE bumping persisted and truncating rings, so a
// racing lock-free reader sees either the old view (ring still holds
// the rows; extra disk copies are above its persisted bound and
// filtered out by the seq range) or the new view (rows now below the
// bound and on disk) — never a gap, with no read-side locks or retries.
// Tiering configures a tiered store. The policy fields mirror the Store
// fields of the same names; they live here too because Open must know
// them before WAL replay, not after.
type Tiering struct {
	// Dir is the store directory (manifest, WAL, segments). Empty means
	// in-memory only — Open degenerates to New.
	Dir string
	// MemtableBytes is the flush threshold on retained in-memory history
	// (default 8 MiB). The WAL also forces a flush at 4x this, so a
	// history-less store's log stays bounded too.
	MemtableBytes int64
	// WALSyncBytes is the fsync batch size (default 1 MiB): the WAL is
	// fsynced every time this many bytes accumulate, trading a bounded
	// crash-loss window for not paying an fsync per report.
	WALSyncBytes int64
	// Retention is the per-tag history visibility and compaction policy.
	Retention Retention
	// MinUpdateInterval and KeepHistory are Store's policy knobs.
	MinUpdateInterval time.Duration
	KeepHistory       bool
	// CompactFanin is how many adjacent segments one compaction merges
	// (default 4, min 2).
	CompactFanin int
	// CompactWorkers sizes the runner.Pool decoding tag runs during
	// compaction (default min(4, GOMAXPROCS)).
	CompactWorkers int
	// DisableCompaction keeps segments as flushed (tests, forensics).
	DisableCompaction bool
}

// manifestName is the store directory's root file: the manifest is the
// single source of truth for which WAL and segments are live, and it
// only ever changes by atomic rename.
const manifestName = "MANIFEST.json"

// tierManifest is the on-disk manifest. Accepted/Rejected (and the
// per-shard splits) are the counter totals as of the WAL's creation —
// the replay base the WAL tail's records add onto.
type tierManifest struct {
	Gen           uint64   `json:"gen"`
	WAL           string   `json:"wal"`
	NShards       int      `json:"nshards"`
	Accepted      uint64   `json:"accepted"`
	Rejected      uint64   `json:"rejected"`
	ShardAccepted []uint64 `json:"shard_accepted,omitempty"`
	ShardRejected []uint64 `json:"shard_rejected,omitempty"`
	Segments      []string `json:"segments"`
}

// segmentList is the atomically swapped set of live segments, oldest
// first. The slice is immutable once published.
type segmentList struct {
	segs []*segment
}

// tier is the persistence state hanging off a tiered Store.
type tier struct {
	cfg           Tiering
	dir           string
	walFlushBytes uint64

	// list is the live segment set (lock-free loads). listMu guards
	// swaps, the manifest, and the obsolete set. Lock order: shard locks
	// may be held when listMu is taken, never the reverse.
	list   atomic.Pointer[segmentList]
	listMu sync.Mutex
	man    tierManifest
	// obsolete holds replaced/quarantined segments whose files are gone
	// or renamed but whose handles racing readers may still hold; they
	// close with the store.
	obsolete []*segment

	wal      atomic.Pointer[walWriter]
	walName  string // guarded by flushMu
	walBytes atomic.Uint64
	memBytes atomic.Uint64

	// flushMu single-flights flushes; compactMu single-flights
	// compaction passes (background loop vs CompactNow).
	flushMu   sync.Mutex
	compactMu sync.Mutex

	// walRecords/walFsyncs accumulate the totals of retired WALs so the
	// exported counters stay monotonic across rotations (the active
	// writer's own counts reset with each rotation).
	walRecords atomic.Uint64
	walFsyncs  atomic.Uint64

	flushes        atomic.Uint64
	compactions    atomic.Uint64
	compactedBytes atomic.Uint64
	quarantined    atomic.Uint64
	readErrs       atomic.Uint64

	pool      *runner.Pool
	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closed    atomic.Bool

	errMu    sync.Mutex
	firstErr error
}

// setErr records the first persistence failure. The store keeps serving
// from memory after one (degraded durability beats refusing reads); the
// error surfaces through TierErr and the stats plane.
func (t *tier) setErr(err error) {
	if err == nil {
		return
	}
	t.errMu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.errMu.Unlock()
}

// TierErr returns the tier's first persistence failure, if any (nil for
// in-memory stores).
func (s *Store) TierErr() error {
	if s.tier == nil {
		return nil
	}
	s.tier.errMu.Lock()
	defer s.tier.errMu.Unlock()
	return s.tier.firstErr
}

// Tiered reports whether this store persists to disk.
func (s *Store) Tiered() bool { return s.tier != nil }

// TierStats is the storage tier's counter snapshot for the stats plane.
type TierStats struct {
	Enabled        bool   `json:"enabled"`
	Dir            string `json:"dir,omitempty"`
	Segments       int    `json:"segments"`
	SegmentBytes   int64  `json:"segment_bytes"`
	MemtableBytes  uint64 `json:"memtable_bytes"`
	WALBytes       uint64 `json:"wal_bytes"`
	WALRecords     uint64 `json:"wal_records"`
	WALFsyncs      uint64 `json:"wal_fsyncs"`
	Flushes        uint64 `json:"flushes"`
	Compactions    uint64 `json:"compactions"`
	CompactedBytes uint64 `json:"compacted_bytes"`
	Quarantined    uint64 `json:"quarantined"`
	ReadErrors     uint64 `json:"read_errors"`
	Err            string `json:"err,omitempty"`
}

// TierStats snapshots the storage tier (zero-valued, Enabled false, for
// in-memory stores).
func (s *Store) TierStats() TierStats {
	t := s.tier
	if t == nil {
		return TierStats{}
	}
	st := TierStats{
		Enabled:        true,
		Dir:            t.dir,
		MemtableBytes:  t.memBytes.Load(),
		Flushes:        t.flushes.Load(),
		Compactions:    t.compactions.Load(),
		CompactedBytes: t.compactedBytes.Load(),
		Quarantined:    t.quarantined.Load(),
		ReadErrors:     t.readErrs.Load(),
	}
	for _, seg := range t.list.Load().segs {
		st.Segments++
		st.SegmentBytes += seg.size
	}
	if w := t.wal.Load(); w != nil {
		bytes, records, fsyncs := w.stats()
		st.WALBytes = bytes
		st.WALRecords = t.walRecords.Load() + records
		st.WALFsyncs = t.walFsyncs.Load() + fsyncs
	}
	if err := s.TierErr(); err != nil {
		st.Err = err.Error()
	}
	return st
}

// Open creates or recovers a tiered store in cfg.Dir with the given
// shard count. With no directory it returns a plain in-memory store carrying the same policy, which is
// what makes the tiered engine a drop-in layer rather than a fork.
func Open(nShards int, cfg Tiering) (*Store, error) {
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = 8 << 20
	}
	if cfg.WALSyncBytes <= 0 {
		cfg.WALSyncBytes = 1 << 20
	}
	if cfg.CompactFanin < 2 {
		cfg.CompactFanin = 4
	}
	if cfg.CompactWorkers <= 0 {
		cfg.CompactWorkers = min(4, runtime.GOMAXPROCS(0))
	}
	s := New(nShards)
	s.MinUpdateInterval = cfg.MinUpdateInterval
	s.KeepHistory = cfg.KeepHistory
	s.Retention = cfg.Retention
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	t := &tier{
		cfg: cfg, dir: cfg.Dir,
		walFlushBytes: 4 * uint64(cfg.MemtableBytes),
		compactCh:     make(chan struct{}, 1),
		done:          make(chan struct{}),
	}
	t.list.Store(&segmentList{})
	if err := t.recover(s); err != nil {
		return nil, err
	}
	s.tier = t
	t.pool = runner.NewPool(cfg.CompactWorkers)
	if !cfg.DisableCompaction {
		t.wg.Add(1)
		go t.compactLoop(s)
		t.kickCompactor()
	}
	return s, nil
}

func segFileName(gen uint64) string { return fmt.Sprintf("seg-%08d.seg", gen) }
func walFileName(gen uint64) string { return fmt.Sprintf("wal-%08d.wal", gen) }

// recover loads the manifest (or initializes a fresh directory),
// rebuilds the tag universe from segment indexes, and replays the WAL
// tail into the memtable.
func (t *tier) recover(s *Store) error {
	mpath := filepath.Join(t.dir, manifestName)
	data, err := os.ReadFile(mpath)
	if errors.Is(err, fs.ErrNotExist) {
		// Fresh directory: gen 1, empty WAL, no segments.
		t.man = tierManifest{Gen: 1, WAL: walFileName(1), NShards: len(s.shards)}
		w, err := createWAL(filepath.Join(t.dir, t.man.WAL), uint64(t.cfg.WALSyncBytes))
		if err != nil {
			return err
		}
		t.wal.Store(w)
		t.walName = t.man.WAL
		t.walBytes.Store(uint64(len(walMagic)))
		return t.writeManifest()
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &t.man); err != nil {
		return fmt.Errorf("store: manifest %s: %w", mpath, err)
	}
	// Open the manifest's segments, quarantining any that fail their
	// checksum or shape validation: a corrupt segment is renamed aside
	// and counted, never served.
	var segs []*segment
	names := t.man.Segments[:0:0]
	for _, name := range t.man.Segments {
		path := filepath.Join(t.dir, name)
		seg, err := openSegment(path)
		if err != nil {
			os.Rename(path, path+".quarantine")
			t.quarantined.Add(1)
			t.setErr(fmt.Errorf("store: quarantined segment %s: %w", name, err))
			continue
		}
		segs = append(segs, seg)
		names = append(names, name)
	}
	t.man.Segments = names
	t.list.Store(&segmentList{segs: segs})
	t.sweepOrphans()
	// Rebuild the tag universe from segment indexes, oldest to newest so
	// later entries override: persisted row counts, last-seen state, and
	// registration — no data frame is read.
	for _, seg := range segs {
		for i := range seg.entries {
			e := &seg.entries[i]
			sh := s.shardFor(e.tag)
			st, _ := sh.stateLocked(e.tag)
			if end := e.startSeq + uint64(e.rowCount); end > st.persisted {
				st.persisted = end
			}
			if e.hasLast {
				at := decTime(e.lastAt)
				if !st.hasLast || at.After(st.lastAt) {
					st.lastPos, st.lastAt, st.hasLast = e.lastPos, at, true
				}
			}
			st.publish()
			sh.epoch.Add(1)
		}
	}
	// Counters resume from the manifest's replay base.
	s.accepted.Store(t.man.Accepted)
	s.rejected.Store(t.man.Rejected)
	if t.man.NShards == len(s.shards) &&
		len(t.man.ShardAccepted) == len(s.shards) && len(t.man.ShardRejected) == len(s.shards) {
		for i := range s.shards {
			s.shards[i].accepted.Store(t.man.ShardAccepted[i])
			s.shards[i].rejected.Store(t.man.ShardRejected[i])
		}
	}
	// Replay the WAL tail: every record was already accepted (or
	// rejected) once, so replay applies unconditionally — identical
	// prior state makes the original decisions self-consistent.
	walPath := filepath.Join(t.dir, t.man.WAL)
	records, lastGood, err := walReplay(walPath)
	if err != nil {
		return err
	}
	for _, rec := range records {
		sh := s.shardFor(rec.tagID)
		switch rec.kind {
		case walApply:
			r := rec.report
			at := seenAt(r)
			st, _ := sh.stateLocked(rec.tagID)
			if !st.hasLast || at.After(st.lastAt) {
				st.lastPos, st.lastAt, st.hasLast = r.Pos, at, true
			}
			if s.KeepHistory {
				st.appendHistory(r, s.keepLast())
				t.memBytes.Add(reportBytes(r))
			}
			st.publish()
			sh.epoch.Add(1)
			s.accepted.Add(1)
			sh.accepted.Add(1)
			sh.markDirtyLocked(rec.tagID)
		case walRegister:
			if _, created := sh.stateLocked(rec.tagID); created {
				sh.epoch.Add(1)
			}
			sh.markDirtyLocked(rec.tagID)
		case walReject:
			s.rejected.Add(1)
			sh.rejected.Add(1)
		}
	}
	w, err := openWALAppend(walPath, lastGood, uint64(t.cfg.WALSyncBytes))
	if err != nil {
		return err
	}
	t.wal.Store(w)
	t.walName = t.man.WAL
	t.walBytes.Store(uint64(lastGood))
	return nil
}

// sweepOrphans removes store files the manifest does not reference:
// temp files and the orphans a crash between a rename and the manifest
// commit leaves behind (their contents are still covered by the WAL the
// manifest does reference). Quarantined files are kept for forensics.
func (t *tier) sweepOrphans() {
	live := map[string]bool{manifestName: true, t.man.WAL: true}
	for _, name := range t.man.Segments {
		live[name] = true
	}
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return
	}
	for _, de := range entries {
		name := de.Name()
		if live[name] || strings.HasSuffix(name, ".quarantine") {
			continue
		}
		if strings.HasSuffix(name, ".tmp") ||
			(strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")) ||
			(strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal")) {
			os.Remove(filepath.Join(t.dir, name))
		}
	}
}

// writeManifest atomically replaces the manifest (temp + rename + dir
// sync). Callers hold listMu or have exclusive access (recovery).
func (t *tier) writeManifest() error {
	data, err := json.MarshalIndent(&t.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(t.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(t.dir, manifestName)); err != nil {
		return err
	}
	return syncDir(t.dir)
}

// reportBytes approximates a report's resident cost in a history ring —
// the struct plus its string payloads — for the flush threshold.
func reportBytes(r trace.Report) uint64 {
	return uint64(96 + len(r.TagID) + len(r.ReporterID))
}

// markDirtyLocked records that a tag's state changed since the last
// flush. The shard lock must be held.
func (sh *shard) markDirtyLocked(tagID string) {
	if sh.flushDirty == nil {
		sh.flushDirty = make(map[string]struct{})
	}
	sh.flushDirty[tagID] = struct{}{}
}

// logApply write-ahead-logs an accepted (or restored) report and does
// the memtable-side accounting. The shard lock must be held, which is
// what keeps a tag's WAL record order equal to its apply order.
func (t *tier) logApply(sh *shard, r trace.Report, retained bool) {
	total, err := t.wal.Load().append(walRecord{kind: walApply, report: r})
	t.walBytes.Store(total)
	t.setErr(err)
	sh.markDirtyLocked(r.TagID)
	if retained {
		t.memBytes.Add(reportBytes(r))
	}
}

// logRegister write-ahead-logs a registration. Shard lock held.
func (t *tier) logRegister(sh *shard, tagID string) {
	total, err := t.wal.Load().append(walRecord{kind: walRegister, tagID: tagID})
	t.walBytes.Store(total)
	t.setErr(err)
	sh.markDirtyLocked(tagID)
}

// logReject write-ahead-logs a rejected report (counters replay from
// these; no state changes). Shard lock held.
func (t *tier) logReject(tagID string) {
	total, err := t.wal.Load().append(walRecord{kind: walReject, tagID: tagID})
	t.walBytes.Store(total)
	t.setErr(err)
}

// maybeFlush flushes when the memtable or WAL crosses its threshold.
// Non-blocking: if a flush is already running, the thresholds are its
// problem. Callers must not hold any shard lock.
func (t *tier) maybeFlush(s *Store) {
	if t.memBytes.Load() < uint64(t.cfg.MemtableBytes) && t.walBytes.Load() < t.walFlushBytes {
		return
	}
	if !t.flushMu.TryLock() {
		return
	}
	defer t.flushMu.Unlock()
	if t.memBytes.Load() < uint64(t.cfg.MemtableBytes) && t.walBytes.Load() < t.walFlushBytes {
		return
	}
	t.setErr(t.flush(s))
}

// Flush forces a flush of the memtable to a new segment and rotates the
// WAL (no-op for in-memory stores). Graceful shutdown calls it so a
// restart replays nothing.
func (s *Store) Flush() error {
	t := s.tier
	if t == nil {
		return nil
	}
	t.flushMu.Lock()
	defer t.flushMu.Unlock()
	err := t.flush(s)
	t.setErr(err)
	return err
}

// flushTag is one dirty tag's state captured for the segment writer.
type flushTag struct {
	id   string
	st   *tagState
	rows []trace.Report
}

// flush drains every dirty tag's ring into one immutable segment,
// publishes it, truncates the rings, rotates the WAL, and commits the
// manifest. It runs under every shard lock: writers pause for the
// drain, but lock-free readers never block — the publish order (segment
// list first, then per-tag persisted bumps) keeps them consistent
// throughout, as described at the top of this file. Caller holds
// flushMu. The wrapper times the whole flush into its histogram and a
// self-rooted tier trace (flushes are background work with no request
// to hang spans off).
func (t *tier) flush(s *Store) error {
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}
	tr := otrace.Begin(otrace.PlaneTier, "tier.flush")
	err := t.flushTraced(s, tr)
	obs.Since(obsFlushHist, t0)
	tr.End(flushThreshold)
	return err
}

func (t *tier) flushTraced(s *Store, tr *otrace.Trace) error {
	drain := tr.Start(otrace.PlaneTier, "flush.drain", 0, 0)
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	var tags []flushTag
	for i := range s.shards {
		sh := &s.shards[i]
		for id := range sh.flushDirty {
			st := sh.getLocked(id)
			tags = append(tags, flushTag{id: id, st: st, rows: st.historyCopy()})
		}
	}
	if len(tags) == 0 && t.walBytes.Load() < t.walFlushBytes {
		tr.Finish(drain)
		return nil
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].id < tags[j].id })
	tr.SetAttrs(drain, int64(len(tags)), int64(t.memBytes.Load()))
	tr.Finish(drain)

	t.listMu.Lock()
	defer t.listMu.Unlock()
	t.man.Gen++
	gen := t.man.Gen

	var seg *segment
	if len(tags) > 0 {
		rows := 0
		for _, ft := range tags {
			rows += len(ft.rows)
		}
		write := tr.Start(otrace.PlaneTier, "flush.segment", int64(len(tags)), int64(rows))
		name := segFileName(gen)
		path := filepath.Join(t.dir, name)
		w, err := createSegment(path)
		if err != nil {
			return err
		}
		for _, ft := range tags {
			st := ft.st
			if err := w.addTag(ft.id, st.persisted, ft.rows, st.lastPos, st.lastAt, st.hasLast); err != nil {
				w.abort()
				return err
			}
		}
		if err := w.finish(); err != nil {
			return err
		}
		if seg, err = openSegment(path); err != nil {
			os.Remove(path)
			return fmt.Errorf("store: flushed segment failed validation: %w", err)
		}
		// Publish the segment list first …
		old := t.list.Load().segs
		segs := make([]*segment, 0, len(old)+1)
		segs = append(segs, old...)
		segs = append(segs, seg)
		t.list.Store(&segmentList{segs: segs})
		t.man.Segments = append(t.man.Segments, name)
		// … then move the rows below each tag's persisted bound and
		// truncate the rings.
		for _, ft := range tags {
			st := ft.st
			st.persisted += uint64(len(ft.rows))
			st.hist, st.histAt = nil, 0
			st.publish()
		}
		tr.Finish(write)
	}
	for i := range s.shards {
		s.shards[i].flushDirty = nil
	}
	t.memBytes.Store(0)

	// Rotate the WAL: records up to here are covered by the segments.
	rotate := tr.Start(otrace.PlaneTier, "flush.rotate", 0, 0)
	oldWAL, oldWALName := t.wal.Load(), t.walName
	newName := walFileName(gen)
	w, err := createWAL(filepath.Join(t.dir, newName), uint64(t.cfg.WALSyncBytes))
	if err != nil {
		return err
	}
	t.wal.Store(w)
	t.walName = newName
	t.walBytes.Store(uint64(len(walMagic)))
	oldWAL.close()
	_, records, fsyncs := oldWAL.stats()
	t.walRecords.Add(records)
	t.walFsyncs.Add(fsyncs)

	// Commit. Counters read under every shard lock are a consistent
	// replay base. The old WAL is deleted only after the manifest that
	// stops referencing it is durable.
	t.man.WAL = newName
	t.man.Accepted = s.accepted.Load()
	t.man.Rejected = s.rejected.Load()
	t.man.NShards = len(s.shards)
	t.man.ShardAccepted = t.man.ShardAccepted[:0]
	t.man.ShardRejected = t.man.ShardRejected[:0]
	for i := range s.shards {
		t.man.ShardAccepted = append(t.man.ShardAccepted, s.shards[i].accepted.Load())
		t.man.ShardRejected = append(t.man.ShardRejected, s.shards[i].rejected.Load())
	}
	if err := t.writeManifest(); err != nil {
		return err
	}
	os.Remove(filepath.Join(t.dir, oldWALName))
	tr.Finish(rotate)
	t.flushes.Add(1)
	obsFlushes.Inc()
	t.kickCompactor()
	return nil
}

// Sync forces the WAL's buffered records to disk — the group-commit
// barrier (no-op for in-memory stores).
func (s *Store) Sync() error {
	if s.tier == nil {
		return nil
	}
	return s.tier.wal.Load().sync()
}

// Close flushes, stops the compactor, and releases every file handle.
// The manifest it leaves behind restarts warm with an empty WAL tail.
// Safe to call once; reads after Close may serve stale or fail.
func (s *Store) Close() error {
	t := s.tier
	if t == nil {
		return nil
	}
	if t.closed.Swap(true) {
		return nil
	}
	close(t.done)
	t.wg.Wait()
	err := s.Flush()
	if w := t.wal.Load(); w != nil {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}
	t.pool.Close()
	t.listMu.Lock()
	for _, seg := range t.list.Load().segs {
		seg.close()
	}
	for _, seg := range t.obsolete {
		seg.close()
	}
	t.obsolete = nil
	t.listMu.Unlock()
	return err
}

// readDisk appends the tag's persisted rows with sequence numbers in
// [hi-need, hi) to out, oldest-first, scanning the segment list newest
// first. A segment that fails its CRC is quarantined and its rows
// omitted (counted in ReadErrors) — corrupt bytes are never served.
func (t *tier) readDisk(tagID string, hi uint64, need int, out []trace.Report, tr *otrace.Trace) []trace.Report {
	if t == nil || need <= 0 || hi == 0 {
		return out
	}
	lo := uint64(0)
	if uint64(need) < hi {
		lo = hi - uint64(need)
	}
	segs := t.list.Load().segs
	var chunks [][]trace.Report
	for i := len(segs) - 1; i >= 0 && hi > lo; i-- {
		seg := segs[i]
		e := seg.lookup(tagID)
		if e == nil {
			continue
		}
		s0, s1 := e.startSeq, e.startSeq+uint64(e.rowCount)
		if s0 >= hi || s1 <= lo {
			continue
		}
		a, b := max(s0, lo), min(s1, hi)
		rows, err := seg.readTagRange(e, a, b, tr)
		if err != nil {
			tr.Event(otrace.PlaneTier, "tier.quarantine", int64(i), 0)
			t.readErrs.Add(1)
			t.setErr(err)
			t.quarantine(seg)
			continue
		}
		if len(rows) > 0 {
			chunks = append(chunks, rows)
		}
		hi = a
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		out = append(out, chunks[i]...)
	}
	return out
}

// quarantine removes a segment from the live list and renames its file
// aside. Racing readers holding the old list keep their (open, renamed)
// handle; the store serves the surviving rows.
func (t *tier) quarantine(bad *segment) {
	// Every quarantine is an incident: the self-rooted trace captures
	// unconditionally (quarantineThreshold is a zero floor, no p99).
	qtr := otrace.Begin(otrace.PlaneTier, "tier.quarantine")
	defer qtr.End(quarantineThreshold)
	t.listMu.Lock()
	defer t.listMu.Unlock()
	cur := t.list.Load().segs
	idx := -1
	for i, seg := range cur {
		if seg == bad {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already quarantined or compacted away
	}
	segs := make([]*segment, 0, len(cur)-1)
	segs = append(segs, cur[:idx]...)
	segs = append(segs, cur[idx+1:]...)
	t.list.Store(&segmentList{segs: segs})
	names := make([]string, 0, len(segs))
	for _, seg := range segs {
		names = append(names, seg.name)
	}
	t.man.Segments = names
	path := filepath.Join(t.dir, bad.name)
	os.Rename(path, path+".quarantine")
	t.obsolete = append(t.obsolete, bad)
	t.quarantined.Add(1)
	obsQuarantines.Inc()
	qtr.SetAttrs(0, int64(bad.size), int64(bad.rows))
	t.setErr(t.writeManifest())
}

// kickCompactor nudges the background loop (non-blocking).
func (t *tier) kickCompactor() {
	select {
	case t.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop is the background compactor goroutine.
func (t *tier) compactLoop(s *Store) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case <-t.compactCh:
			t.compactPass(s)
		}
	}
}

// CompactNow runs compaction to quiescence synchronously (no-op for
// in-memory stores) — the deterministic entry point tests and the
// bench harness use instead of waiting on the background loop.
func (s *Store) CompactNow() error {
	if s.tier == nil {
		return nil
	}
	s.tier.compactPass(s)
	return s.TierErr()
}

// compactPass merges segment runs until no eligible run remains.
func (t *tier) compactPass(s *Store) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	for {
		run := t.pickRun()
		if run == nil {
			return
		}
		if err := t.compact(s, run); err != nil {
			t.setErr(err)
			return
		}
	}
}

// pickRun chooses the next adjacent run to merge: the cheapest
// CompactFanin-window whose sizes stay within an 8x spread (the
// size-tiered criterion — young small segments merge with their peers,
// not with one settled giant), or the oldest window once the list has
// doubled past the fan-in regardless of spread.
func (t *tier) pickRun() []*segment {
	segs := t.list.Load().segs
	fanin := t.cfg.CompactFanin
	if len(segs) < fanin {
		return nil
	}
	best, bestBytes := -1, int64(0)
	for i := 0; i+fanin <= len(segs); i++ {
		var total, mn, mx int64
		for j := i; j < i+fanin; j++ {
			sz := segs[j].size
			total += sz
			if j == i || sz < mn {
				mn = sz
			}
			if sz > mx {
				mx = sz
			}
		}
		if mx <= 8*mn && (best < 0 || total < bestBytes) {
			best, bestBytes = i, total
		}
	}
	if best < 0 {
		if len(segs) < 2*fanin {
			return nil
		}
		best = 0
	}
	run := make([]*segment, fanin)
	copy(run, segs[best:best+fanin])
	return run
}

// mergedTag is one tag's compacted run: surviving rows (oldest-first),
// the persisted-sequence number of the first survivor, and the last-seen
// state carried forward from the run's newest entry.
type mergedTag struct {
	tag      string
	startSeq uint64
	rows     []trace.Report
	lastAt   time.Time
	lastPos  geo.LatLon
	hasLast  bool
}

// compact merges one adjacent run into a single segment, dropping rows
// the Retention policy has already made invisible. Reader safety of the
// drop: a reader's visibility floor is computed from its (current,
// newer-or-equal) memtable state, so it is always at or above the floor
// used here — a dropped row is one no read could have returned.
func (t *tier) compact(s *Store, run []*segment) error {
	var t0 time.Time
	if obs.Enabled() {
		t0 = time.Now()
	}
	var runBytes int64
	for _, seg := range run {
		runBytes += seg.size
	}
	tr := otrace.Begin(otrace.PlaneTier, "tier.compact")
	tr.SetAttrs(0, int64(len(run)), runBytes)
	err := t.compactTraced(s, run, tr)
	obs.Since(obsCompactHist, t0)
	tr.End(compactThreshold)
	return err
}

func (t *tier) compactTraced(s *Store, run []*segment, tr *otrace.Trace) error {
	full := t.list.Load().segs
	// Union of the run's tags, sorted (entry lists are sorted, so a
	// merge would do; the simple collect+sort is not the hot path).
	var tags []string
	seen := make(map[string]struct{})
	for _, seg := range run {
		for i := range seg.entries {
			if _, ok := seen[seg.entries[i].tag]; !ok {
				seen[seg.entries[i].tag] = struct{}{}
				tags = append(tags, seg.entries[i].tag)
			}
		}
	}
	sort.Strings(tags)

	t.listMu.Lock()
	t.man.Gen++
	gen := t.man.Gen
	t.listMu.Unlock()
	name := segFileName(gen)
	path := filepath.Join(t.dir, name)
	w, err := createSegment(path)
	if err != nil {
		return err
	}
	keep := s.keepLast()
	window := s.Retention.KeepWindow

	// Decode and trim tag runs in parallel (bounded chunks), append to
	// the writer sequentially — the writer is single-stream by design.
	// The pool workers get no trace handle (a Trace is single-goroutine);
	// the merge span bounds the whole parallel phase instead.
	merge := tr.Start(otrace.PlaneTier, "compact.merge", int64(len(tags)), 0)
	const chunk = 512
	for base := 0; base < len(tags); base += chunk {
		n := min(chunk, len(tags)-base)
		slots := make([]mergedTag, n)
		errs := make([]error, n)
		t.pool.Run(n, func(_, j int) {
			slots[j], errs[j] = mergeTagRun(run, full, tags[base+j], keep, window)
		})
		for j := 0; j < n; j++ {
			if errs[j] != nil {
				w.abort()
				return errs[j]
			}
			m := &slots[j]
			if err := w.addTag(m.tag, m.startSeq, m.rows, m.lastPos, m.lastAt, m.hasLast); err != nil {
				w.abort()
				return err
			}
		}
	}
	if err := w.finish(); err != nil {
		return err
	}
	seg, err := openSegment(path)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("store: compacted segment failed validation: %w", err)
	}
	tr.SetAttrs(merge, int64(len(tags)), seg.size)
	tr.Finish(merge)

	// Swap the run for the merged segment at the same list position.
	swap := tr.Start(otrace.PlaneTier, "compact.swap", 0, 0)
	defer tr.Finish(swap)
	t.listMu.Lock()
	defer t.listMu.Unlock()
	cur := t.list.Load().segs
	idx := -1
	for i := range cur {
		if cur[i] == run[0] {
			idx = i
			break
		}
	}
	ok := idx >= 0 && idx+len(run) <= len(cur)
	for i := 0; ok && i < len(run); i++ {
		ok = cur[idx+i] == run[i]
	}
	if !ok {
		// The run changed under us (a quarantine); drop this output and
		// let the next pass re-pick.
		seg.close()
		os.Remove(path)
		return nil
	}
	segs := make([]*segment, 0, len(cur)-len(run)+1)
	segs = append(segs, cur[:idx]...)
	segs = append(segs, seg)
	segs = append(segs, cur[idx+len(run):]...)
	t.list.Store(&segmentList{segs: segs})
	names := make([]string, 0, len(segs))
	for _, sg := range segs {
		names = append(names, sg.name)
	}
	t.man.Segments = names
	if err := t.writeManifest(); err != nil {
		return err
	}
	var reclaimed int64
	for _, old := range run {
		reclaimed += old.size
		os.Remove(filepath.Join(t.dir, old.name))
		t.obsolete = append(t.obsolete, old)
	}
	t.compactions.Add(1)
	obsCompactions.Inc()
	t.compactedBytes.Add(uint64(reclaimed))
	return nil
}

// mergeTagRun concatenates one tag's rows across the run (oldest
// first), then drops the prefix below the retention floor. The floor's
// ceilings — the tag's highest persisted sequence and newest last-seen
// instant — come from the full segment list, so a run that holds only
// a tag's old middle rows is trimmed against the tag's true horizon,
// not its own.
func mergeTagRun(run, full []*segment, tag string, keep int, window time.Duration) (mergedTag, error) {
	m := mergedTag{tag: tag}
	type tagChunk struct {
		start uint64
		rows  []trace.Report
	}
	var chunks []tagChunk
	var endRun uint64
	for _, seg := range run {
		e := seg.lookup(tag)
		if e == nil {
			continue
		}
		rows, err := seg.readTagRange(e, e.startSeq, e.startSeq+uint64(e.rowCount), nil)
		if err != nil {
			return m, err
		}
		chunks = append(chunks, tagChunk{start: e.startSeq, rows: rows})
		endRun = e.startSeq + uint64(e.rowCount)
		// Run members are ordered oldest to newest, so the last entry
		// seen carries the freshest flushed last-seen state.
		m.startSeq = endRun
		m.lastPos, m.hasLast = e.lastPos, e.hasLast
		m.lastAt = decTime(e.lastAt)
	}
	// Ceilings across the whole live list (the memtable may be newer
	// still; using the flushed horizon only makes the trim more
	// conservative, never less safe).
	endFull, lastFull := endRun, m.lastAt
	for _, seg := range full {
		e := seg.lookup(tag)
		if e == nil {
			continue
		}
		if end := e.startSeq + uint64(e.rowCount); end > endFull {
			endFull = end
		}
		if e.hasLast {
			if at := decTime(e.lastAt); at.After(lastFull) {
				lastFull = at
			}
		}
	}
	var floor uint64
	if keep > 0 && endFull > uint64(keep) {
		floor = endFull - uint64(keep)
	}
	var rows []trace.Report
	startSeq := endRun
	for _, c := range chunks {
		skip := uint64(0)
		if floor > c.start {
			skip = min(floor-c.start, uint64(len(c.rows)))
		}
		part := c.rows[skip:]
		if len(part) == 0 {
			continue
		}
		if rows == nil {
			startSeq = c.start + skip
		} else if c.start+skip != startSeq+uint64(len(rows)) {
			return m, fmt.Errorf("store: tag %q rows not contiguous across compaction run (seq %d after %d)",
				tag, c.start+skip, startSeq+uint64(len(rows)))
		}
		rows = append(rows, part...)
	}
	if window > 0 && len(rows) > 0 && !lastFull.IsZero() {
		trimmed := trimWindow(rows, lastFull, window)
		startSeq += uint64(len(rows) - len(trimmed))
		rows = trimmed
	}
	m.rows = rows
	if len(rows) > 0 {
		m.startSeq = startSeq
	}
	return m, nil
}
