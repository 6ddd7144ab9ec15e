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

// fillStore ingests a deterministic mixed sequence: rate-capped ingests
// (some rejected), a restore batch, and a bare registration.
func fillStore(s *Store, tags int) {
	for i := 0; i < tags; i++ {
		id := fmt.Sprintf("tag-%03d", i)
		for k := 0; k < 8; k++ {
			at := base.Add(time.Duration(k*i%7) * time.Minute) // some non-advancing -> rejected
			s.Ingest(trace.Report{T: at, HeardAt: at, TagID: id, Vendor: trace.VendorApple,
				Pos: geo.LatLon{Lat: float64(i), Lon: float64(k)}})
		}
	}
	var batch []trace.Report
	for i := 0; i < tags; i += 3 {
		at := base.Add(2 * time.Hour)
		batch = append(batch, trace.Report{T: at, HeardAt: at,
			TagID: fmt.Sprintf("tag-%03d", i), Vendor: trace.VendorApple,
			Pos: geo.LatLon{Lat: -1, Lon: -1}})
	}
	s.Restore(batch)
	s.Register("registered-but-quiet")
}

var base = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)

// readAll captures every read-path answer for every tag: the
// equivalence surface the lock-free path must agree with lockedReadAll on.
func readAll(s *Store, tags []string) map[string]any {
	out := map[string]any{}
	for _, id := range tags {
		pos, at, ok := s.LastSeen(id)
		out["last/"+id] = fmt.Sprint(pos, at, ok)
		out["known/"+id] = s.Known(id)
		out["hist/"+id] = s.History(id)
		for _, limit := range []int{0, 1, 3, 1000} {
			out[fmt.Sprintf("recent%d/%s", limit, id)] = s.RecentHistory(id, limit)
		}
	}
	return out
}

// lockedReadAll is readAll answered from each tag's mutable state cell
// under the shard mutex rather than from the published epoch view. It
// is the oracle the lock-free read path is checked against.
func lockedReadAll(s *Store, tags []string) map[string]any {
	out := map[string]any{}
	for _, id := range tags {
		sh := s.shardFor(id)
		sh.mu.Lock()
		st := sh.getLocked(id)
		var (
			pos geo.LatLon
			at  time.Time
			ok  bool
		)
		if st != nil && st.hasLast {
			pos, at, ok = st.lastPos, st.lastAt, true
		}
		hist := func(limit int) []trace.Report {
			if st == nil {
				return nil
			}
			return s.visibleHistory(id, st.persisted, st.hist, st.histAt, st.lastAt, limit, nil)
		}
		out["last/"+id] = fmt.Sprint(pos, at, ok)
		out["known/"+id] = st != nil
		out["hist/"+id] = hist(-1)
		for _, limit := range []int{0, 1, 3, 1000} {
			out[fmt.Sprintf("recent%d/%s", limit, id)] = hist(limit)
		}
		sh.mu.Unlock()
	}
	return out
}

// sameViews reports every key on which two readAll-style captures
// disagree.
func sameViews(t *testing.T, label string, got, want map[string]any) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: read answers disagree", label)
	for k, v := range want {
		if !reflect.DeepEqual(v, got[k]) {
			t.Errorf("  %s: got %v, want %v", k, got[k], v)
		}
	}
}

// TestLockedReadEquivalence: the lock-free read path answers every
// query identically to the locked oracle (lockedReadAll), across shard
// counts, after a mixed ingest/restore/register sequence.
func TestLockedReadEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		s := New(shards)
		s.MinUpdateInterval = 2 * time.Minute
		s.KeepHistory = true
		s.HistoryLimit = 5
		fillStore(s, 40)
		tags := append(s.TagIDs(), "never-seen")
		sameViews(t, fmt.Sprintf("shards=%d lock-free vs locked", shards), readAll(s, tags), lockedReadAll(s, tags))
	}
}

// TestRecentHistoryLimits pins the pushdown semantics against the full
// History copy, through the ring-wrap boundary, and the lock-free
// answers against the locked oracle at every step.
func TestRecentHistoryLimits(t *testing.T) {
	s := New(4)
	s.KeepHistory = true
	s.HistoryLimit = 5
	id := "ring-tag"
	ids := []string{id}
	if got := s.RecentHistory(id, 3); got != nil {
		t.Errorf("unknown tag history = %v, want nil", got)
	}
	sameViews(t, "unknown tag", readAll(s, ids), lockedReadAll(s, ids))
	for k := 0; k < 9; k++ { // wraps the 5-ring almost twice
		at := base.Add(time.Duration(k) * time.Minute)
		s.Ingest(trace.Report{T: at, TagID: id, Vendor: trace.VendorApple,
			Pos: geo.LatLon{Lat: float64(k)}})
		full := s.History(id)
		for _, limit := range []int{0, 1, 2, 5, 7, -1} {
			got := s.RecentHistory(id, limit)
			want := full
			if limit >= 0 && limit < len(full) {
				want = full[len(full)-limit:]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d limit=%d: %d reports, want %d", k, limit, len(got), len(want))
			}
			for i := range got {
				if !got[i].T.Equal(want[i].T) || got[i].Pos != want[i].Pos {
					t.Fatalf("k=%d limit=%d: report %d = %+v, want %+v", k, limit, i, got[i], want[i])
				}
			}
		}
		// limit 0 with history present: empty but non-nil, so the
		// query layer can keep "no reports retained" apart from
		// "tag has no history at all".
		if got := s.RecentHistory(id, 0); got == nil {
			t.Fatalf("k=%d: limit 0 with history = nil, want empty", k)
		}
		sameViews(t, fmt.Sprintf("k=%d", k), readAll(s, ids), lockedReadAll(s, ids))
	}
}

// TestTagEpochBumps: every observable state change moves the shard
// epoch; a rejected ingest of an existing tag does not.
func TestTagEpochBumps(t *testing.T) {
	s := New(1)
	s.MinUpdateInterval = 2 * time.Minute
	s.KeepHistory = true
	id := "epoch-tag"
	h := TagHash(id)

	e0 := s.TagEpochAt(h)
	at := base
	s.Ingest(trace.Report{T: at, TagID: id, Vendor: trace.VendorApple})
	e1 := s.TagEpochAt(h)
	if e1 <= e0 {
		t.Error("accepted ingest must bump the epoch")
	}
	// Within the rate cap: rejected, no state change, no bump.
	s.Ingest(trace.Report{T: at.Add(time.Second), TagID: id, Vendor: trace.VendorApple})
	if e := s.TagEpochAt(h); e != e1 {
		t.Errorf("rejected ingest moved the epoch %d -> %d", e1, e)
	}
	s.Restore([]trace.Report{{T: at.Add(time.Hour), TagID: id, Vendor: trace.VendorApple}})
	e2 := s.TagEpochAt(h)
	if e2 <= e1 {
		t.Error("restore must bump the epoch")
	}
	s.Register("new-neighbor") // lands on the same (only) shard
	if e := s.TagEpochAt(h); e <= e2 {
		t.Error("registration must bump the shard epoch")
	}
	s.Register("new-neighbor") // idempotent: no state change
	e3 := s.TagEpochAt(h)
	s.Register("new-neighbor")
	if e := s.TagEpochAt(h); e != e3 {
		t.Error("re-registration is a no-op and must not bump the epoch")
	}
}

// TestLockFreeReadsRaced races lock-free readers against live Ingest,
// Restore, and Snapshot: last-seen must never move backward, history
// must only grow (within the ring bound), and after the writers drain,
// locked and lock-free reads must agree exactly. Run under -race in CI.
func TestLockFreeReadsRaced(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		s := New(shards)
		s.MinUpdateInterval = time.Minute
		s.KeepHistory = true
		s.HistoryLimit = 8
		tags := make([]string, 16)
		for i := range tags {
			tags[i] = fmt.Sprintf("raced-%02d", i)
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ { // ingest writers
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for step := 0; step < 400; step++ {
					at := base.Add(time.Duration(step*90+w) * time.Second)
					s.Ingest(trace.Report{T: at, TagID: tags[(step+w)%len(tags)],
						Vendor: trace.VendorApple, Pos: geo.LatLon{Lat: float64(step)}})
				}
			}(w)
		}
		wg.Add(1)
		go func() { // restore writer
			defer wg.Done()
			for step := 0; step < 50; step++ {
				at := base.Add(time.Duration(step) * time.Hour)
				s.Restore([]trace.Report{{T: at, TagID: tags[step%len(tags)],
					Vendor: trace.VendorApple, Pos: geo.LatLon{Lon: float64(step)}}})
			}
		}()
		var rg sync.WaitGroup
		rg.Add(1)
		go func() { // concurrent snapshots keep the locks busy
			defer rg.Done()
			for !stop.Load() {
				snap := s.Snapshot()
				var n uint64
				for _, tag := range snap.Tags {
					n += uint64(len(tag.History))
				}
				if n > snap.Accepted {
					t.Error("snapshot retains more history than it accepted")
					return
				}
			}
		}()

		errs := make(chan string, 8)
		for r := 0; r < 4; r++ { // lock-free readers
			rg.Add(1)
			go func(r int) {
				defer rg.Done()
				lastAt := map[string]time.Time{}
				histLen := map[string]int{}
				for !stop.Load() {
					id := tags[r%len(tags)]
					if _, at, ok := s.LastSeen(id); ok {
						if at.Before(lastAt[id]) {
							errs <- fmt.Sprintf("last-seen of %s went backward: %v -> %v", id, lastAt[id], at)
							return
						}
						lastAt[id] = at
					}
					if n := len(s.RecentHistory(id, -1)); n < histLen[id] && histLen[id] < s.HistoryLimit {
						errs <- fmt.Sprintf("history of %s shrank below the ring bound: %d -> %d", id, histLen[id], n)
						return
					} else {
						histLen[id] = n
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

		// Quiesced: the lock-free answers must equal the locked oracle.
		sameViews(t, fmt.Sprintf("shards=%d after the race", shards), readAll(s, tags), lockedReadAll(s, tags))
	}
}
