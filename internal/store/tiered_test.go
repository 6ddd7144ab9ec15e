package store

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// tieredCfg is the cloud-like tiered policy with thresholds shrunk so a
// few thousand reports exercise many flushes. Compaction stays off by
// default so segment layout is deterministic; tests that want it turn
// it back on.
func tieredCfg(dir string) Tiering {
	return Tiering{
		Dir:               dir,
		MemtableBytes:     16 << 10,
		WALSyncBytes:      4 << 10,
		MinUpdateInterval: 192 * time.Second,
		KeepHistory:       true,
		DisableCompaction: true,
	}
}

func openTiered(t *testing.T, shards int, cfg Tiering) *Store {
	t.Helper()
	s, err := Open(shards, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !s.Tiered() {
		t.Fatal("Open returned an in-memory store for a tiered config")
	}
	return s
}

// closeStore closes a store that is expected to have no persistence
// errors.
func closeStore(t *testing.T, s *Store) {
	t.Helper()
	if err := s.TierErr(); err != nil {
		t.Fatalf("tier error: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestTieredEquivalence: the tiered store answers every read exactly
// like the in-memory store for the same ingest sequence — across shard
// counts, both read paths, with the data split across many segments.
func TestTieredEquivalence(t *testing.T) {
	reports := stream(7, 3000)
	mem := newCloudlike(4)
	for _, r := range reports {
		mem.Ingest(r)
	}
	want := mem.Snapshot()
	tags := append(mem.TagIDs(), "never-seen")

	for _, shards := range []int{1, 4, 16} {
		s := openTiered(t, shards, tieredCfg(t.TempDir()))
		for _, r := range reports {
			s.Ingest(r)
		}
		st := s.TierStats()
		if st.Flushes == 0 || st.Segments == 0 {
			t.Fatalf("shards=%d: thresholds never tripped (flushes=%d segments=%d) — test is not exercising disk",
				shards, st.Flushes, st.Segments)
		}
		tierViews := readAll(s, tags)
		sameViews(t, fmt.Sprintf("shards=%d tiered vs in-memory", shards), tierViews, readAll(mem, tags))
		sameViews(t, fmt.Sprintf("shards=%d tiered lock-free vs locked", shards), tierViews, lockedReadAll(s, tags))
		if got := s.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: tiered snapshot diverged from in-memory reference", shards)
		}
		closeStore(t, s)
	}
}

// TestTieredEquivalenceMixed runs the mixed ingest/restore/register
// sequence with a keep-last retention bound: the tiered store's
// read-time cap over (segments + ring) must equal the in-memory ring.
func TestTieredEquivalenceMixed(t *testing.T) {
	for _, shards := range []int{1, 4} {
		mem := New(shards)
		mem.MinUpdateInterval = 2 * time.Minute
		mem.KeepHistory = true
		mem.HistoryLimit = 5
		fillStore(mem, 40)

		cfg := tieredCfg(t.TempDir())
		cfg.MemtableBytes = 2 << 10
		cfg.MinUpdateInterval = 2 * time.Minute
		cfg.Retention = Retention{KeepLast: 5}
		s := openTiered(t, shards, cfg)
		fillStore(s, 40)

		tags := append(mem.TagIDs(), "never-seen")
		tierViews := readAll(s, tags)
		sameViews(t, fmt.Sprintf("shards=%d tiered keep-last vs HistoryLimit ring", shards), tierViews, readAll(mem, tags))
		sameViews(t, fmt.Sprintf("shards=%d tiered lock-free vs locked", shards), tierViews, lockedReadAll(s, tags))
		if got, want := s.Snapshot(), mem.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: snapshots diverge", shards)
		}
		closeStore(t, s)
	}
}

// TestTieredRetentionWindowEquivalence: a keep-window policy trims the
// same rows whether the history lives in a ring or on disk.
func TestTieredRetentionWindowEquivalence(t *testing.T) {
	reports := stream(5, 1200)
	cfg := tieredCfg(t.TempDir())
	cfg.MemtableBytes = 4 << 10
	cfg.Retention = Retention{KeepWindow: 45 * time.Minute}

	// The in-memory reference is the same config without a directory.
	memCfg := cfg
	memCfg.Dir = ""
	mem, err := Open(4, memCfg)
	if err != nil {
		t.Fatalf("Open without a directory: %v", err)
	}
	if mem.Tiered() {
		t.Fatal("Open without a directory must return an in-memory store")
	}
	if st := mem.TierStats(); st.Enabled {
		t.Error("in-memory store reports Enabled tier stats")
	}
	for _, r := range reports {
		mem.Ingest(r)
	}

	s := openTiered(t, 4, cfg)
	for _, r := range reports {
		s.Ingest(r)
	}

	tags := append(mem.TagIDs(), "never-seen")
	tierViews := readAll(s, tags)
	sameViews(t, "keep-window tiered vs in-memory", tierViews, readAll(mem, tags))
	sameViews(t, "keep-window tiered lock-free vs locked", tierViews, lockedReadAll(s, tags))
	if got, want := s.Snapshot(), mem.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("keep-window snapshots diverge")
	}
	closeStore(t, s)
	// Without a tier, the durability calls are no-ops.
	if err := mem.Flush(); err != nil {
		t.Errorf("Flush on in-memory store: %v", err)
	}
	if err := mem.Sync(); err != nil {
		t.Errorf("Sync on in-memory store: %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Errorf("Close on in-memory store: %v", err)
	}
}

// TestTieredCompactionPreservesReads: merging segments changes the file
// layout and nothing else.
func TestTieredCompactionPreservesReads(t *testing.T) {
	s := openTiered(t, 4, tieredCfg(t.TempDir()))
	reports := stream(7, 2400)
	for i, r := range reports {
		s.Ingest(r)
		if (i+1)%300 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	tags := append(s.TagIDs(), "never-seen")
	before := readAll(s, tags)
	st := s.TierStats()
	if st.Segments < 4 {
		t.Fatalf("only %d segments before compaction — nothing to merge", st.Segments)
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	st2 := s.TierStats()
	if st2.Compactions == 0 || st2.Segments >= st.Segments {
		t.Errorf("compaction did not run: %d -> %d segments, %d compactions",
			st.Segments, st2.Segments, st2.Compactions)
	}
	if after := readAll(s, tags); !reflect.DeepEqual(after, before) {
		t.Error("reads changed across compaction")
	}
	closeStore(t, s)
}

// TestCompactionDropsRowsBeyondRetention: compaction physically removes
// rows the keep-last policy already hides — the reclaim that keeps the
// disk footprint proportional to the retention bound, not the ingest
// total.
func TestCompactionDropsRowsBeyondRetention(t *testing.T) {
	cfg := tieredCfg(t.TempDir())
	cfg.Retention = Retention{KeepLast: 3}
	cfg.CompactFanin = 8 // one merge covers all eight flushed segments
	s := openTiered(t, 1, cfg)
	var want []trace.Report
	for i := 0; i < 80; i++ {
		r := report(t0.Add(time.Duration(i)*5*time.Minute), "tag", geo.Destination(pos, float64(i%360), float64(i)))
		if !s.Ingest(r) {
			t.Fatalf("report %d rejected", i)
		}
		want = append(want, r)
		if (i+1)%10 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	if err := s.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if h := s.History("tag"); !reflect.DeepEqual(h, want[77:]) {
		t.Errorf("post-compaction history = %d rows, want the newest 3", len(h))
	}
	var diskRows uint64
	for _, seg := range s.tier.list.Load().segs {
		diskRows += seg.rows
	}
	if diskRows != 3 {
		t.Errorf("segments hold %d rows after compaction, want exactly the 3 retained", diskRows)
	}
	closeStore(t, s)
}

// TestTieredLastSeenOnlyStore: with KeepHistory off the memtable byte
// count never moves, so the WAL threshold alone must bound the log; the
// last-seen state still persists through flush and restart.
func TestTieredLastSeenOnlyStore(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.KeepHistory = false
	cfg.MemtableBytes = 1 << 10 // WAL forces a flush every 4 KiB of log
	s := openTiered(t, 4, cfg)
	reports := stream(5, 2000)
	for _, r := range reports {
		s.Ingest(r)
	}
	st := s.TierStats()
	if st.Flushes == 0 {
		t.Fatal("WAL growth never forced a flush in a history-less store")
	}
	if h := s.History("tag-00"); h != nil {
		t.Errorf("KeepHistory=false store served history: %d rows", len(h))
	}
	want := s.Snapshot()
	closeStore(t, s)

	s2 := openTiered(t, 4, cfg)
	if got := s2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("last-seen-only state did not survive restart")
	}
	closeStore(t, s2)
}

// TestTieredReadsRacedUnderFlushAndCompaction races lock-free readers
// and a flush/compaction storm against live ingest: last-seen never
// moves backward, history never shrinks, and after everything drains
// the store is byte-identical to an in-memory run of the same per-tag
// sequences. Run under -race in CI.
func TestTieredReadsRacedUnderFlushAndCompaction(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := Tiering{
			Dir:               t.TempDir(),
			MemtableBytes:     4 << 10,
			WALSyncBytes:      2 << 10,
			MinUpdateInterval: time.Minute,
			KeepHistory:       true,
			Retention:         Retention{KeepLast: 8},
			CompactFanin:      2,
		}
		s := openTiered(t, shards, cfg)
		mem := New(shards)
		mem.MinUpdateInterval = cfg.MinUpdateInterval
		mem.KeepHistory = true
		mem.Retention = cfg.Retention

		tags := make([]string, 16)
		for i := range tags {
			tags[i] = fmt.Sprintf("raced-%02d", i)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		const writers, steps = 4, 300
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each writer owns tags w, w+writers, ...: a tag's reports
				// stay on one goroutine in order, and land identically in
				// both stores.
				for step := 0; step < steps; step++ {
					for ti := w; ti < len(tags); ti += writers {
						r := report(base.Add(time.Duration(step*90+ti)*time.Second),
							tags[ti], geo.Destination(pos, float64(ti), float64(step)))
						s.Ingest(r)
						mem.Ingest(r)
					}
				}
			}(w)
		}
		var rg sync.WaitGroup
		rg.Add(1)
		go func() { // flush/compaction storm
			defer rg.Done()
			for !stop.Load() {
				s.Flush()
				s.CompactNow()
				time.Sleep(time.Millisecond)
			}
		}()
		errs := make(chan string, 8)
		for r := 0; r < 2; r++ { // lock-free readers
			rg.Add(1)
			go func(r int) {
				defer rg.Done()
				lastAt := map[string]time.Time{}
				histLen := map[string]int{}
				for !stop.Load() {
					for _, id := range tags {
						if _, at, ok := s.LastSeen(id); ok {
							if at.Before(lastAt[id]) {
								errs <- fmt.Sprintf("last-seen of %s went backward: %v -> %v", id, lastAt[id], at)
								return
							}
							lastAt[id] = at
						}
						h := s.RecentHistory(id, -1)
						if len(h) > cfg.Retention.KeepLast {
							errs <- fmt.Sprintf("history of %s overflows keep-last: %d rows", id, len(h))
							return
						}
						if len(h) < histLen[id] {
							errs <- fmt.Sprintf("history of %s shrank: %d -> %d", id, histLen[id], len(h))
							return
						}
						histLen[id] = len(h)
						for i := 1; i < len(h); i++ {
							if !seenAt(h[i]).After(seenAt(h[i-1])) {
								errs <- fmt.Sprintf("history of %s out of order or duplicated at %d", id, i)
								return
							}
						}
					}
				}
			}(r)
		}

		wg.Wait()
		stop.Store(true)
		rg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("shards=%d: %s", shards, e)
		}
		if err := s.TierErr(); err != nil {
			t.Fatalf("shards=%d: tier error after the race: %v", shards, err)
		}

		// Quiesced: equal to the in-memory run, on both read paths.
		if got, want := s.Snapshot(), mem.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: tiered snapshot diverged from in-memory after the race", shards)
		}
		tierViews := readAll(s, tags)
		sameViews(t, fmt.Sprintf("shards=%d after the race, tiered vs in-memory", shards), tierViews, readAll(mem, tags))
		sameViews(t, fmt.Sprintf("shards=%d after the race, lock-free vs locked", shards), tierViews, lockedReadAll(s, tags))
		closeStore(t, s)
	}
}
