package store

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/geo"
)

// walFiles / segFiles list the directory's live store files.
func globStore(t *testing.T, dir, pattern string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// flipByte XORs one byte of a file in place — the single-bit-flip
// corruption model the CRC framing must catch.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestTieredWarmRestart: a graceful Close leaves a manifest a reopen —
// even at a different shard count — rebuilds into byte-identical state,
// and ingest continues as if the process never exited.
func TestTieredWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	s := openTiered(t, 4, cfg)
	reports := stream(7, 1500)
	for _, r := range reports {
		s.Ingest(r)
	}
	want := s.Snapshot()
	tags := append(s.TagIDs(), "never-seen")
	wantReads := readAll(s, tags)
	closeStore(t, s)

	s2 := openTiered(t, 16, cfg)
	if got := s2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("snapshot diverged across a graceful restart")
	}
	if got := readAll(s2, tags); !reflect.DeepEqual(got, wantReads) {
		t.Error("reads diverged across a graceful restart")
	}

	// Keep ingesting the same deterministic stream; an in-memory store
	// fed the full sequence is the reference.
	mem := newCloudlike(1)
	for _, r := range reports {
		mem.Ingest(r)
	}
	for _, r := range stream(7, 2000)[1500:] {
		s2.Ingest(r)
		mem.Ingest(r)
	}
	if got, wantCont := s2.Snapshot(), mem.Snapshot(); !reflect.DeepEqual(got, wantCont) {
		t.Error("post-restart ingest diverged from the uninterrupted reference")
	}
	closeStore(t, s2)
}

// TestCrashRestartReplaysWAL: a reopen without Close — the crash path —
// recovers everything the WAL had fsynced.
func TestCrashRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.MemtableBytes = 1 << 20 // everything stays in the WAL tail
	s := openTiered(t, 4, cfg)
	for _, r := range stream(5, 400) {
		s.Ingest(r)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	want := s.Snapshot()
	// Crash: s is abandoned with its files still open, never Closed.
	s2 := openTiered(t, 4, cfg)
	if got := s2.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Error("WAL replay did not restore the pre-crash state")
	}
	closeStore(t, s2)
}

// TestTornWALTailReplaysWholeRecords: truncating the WAL mid-record — a
// torn write — loses exactly the torn record, and the reopened log
// accepts appends from the truncation point.
func TestTornWALTailReplaysWholeRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.MemtableBytes = 1 << 20
	s := openTiered(t, 1, cfg)
	const k = 12
	var want []geo.LatLon
	for i := 0; i < k; i++ {
		p := geo.Destination(pos, float64(i*17%360), float64(i+1))
		if !s.Ingest(report(t0.Add(time.Duration(i)*5*time.Minute), "tag", p)) {
			t.Fatalf("report %d rejected", i)
		}
		want = append(want, p)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	wals := globStore(t, dir, "wal-*.wal")
	if len(wals) != 1 {
		t.Fatalf("want one WAL, got %v", wals)
	}
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openTiered(t, 1, cfg)
	h := s2.History("tag")
	if len(h) != k-1 {
		t.Fatalf("torn tail: replayed %d reports, want %d", len(h), k-1)
	}
	for i, r := range h {
		if r.Pos != want[i] {
			t.Fatalf("replayed report %d = %v, want %v", i, r.Pos, want[i])
		}
	}
	if acc, _ := s2.Stats(); acc != k-1 {
		t.Errorf("accepted counter = %d, want %d", acc, k-1)
	}
	// The truncated log must keep appending cleanly.
	p := geo.Destination(pos, 200, 99)
	if !s2.Ingest(report(t0.Add(time.Duration(k)*5*time.Minute), "tag", p)) {
		t.Fatal("post-truncation ingest rejected")
	}
	if err := s2.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s3 := openTiered(t, 1, cfg)
	if h := s3.History("tag"); len(h) != k || h[k-1].Pos != p {
		t.Errorf("log after truncation+append replayed %d reports", len(h))
	}
	closeStore(t, s3)
}

// TestCorruptWALMidFileKeepsCleanPrefix: a bit flip in the middle of
// the WAL fails that record's CRC; replay keeps the records before it
// and never serves garbage after it.
func TestCorruptWALMidFileKeepsCleanPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.MemtableBytes = 1 << 20
	s := openTiered(t, 1, cfg)
	const k = 12
	var want []geo.LatLon
	for i := 0; i < k; i++ {
		p := geo.Destination(pos, float64(i*13%360), float64(i+1))
		s.Ingest(report(t0.Add(time.Duration(i)*5*time.Minute), "tag", p))
		want = append(want, p)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	wals := globStore(t, dir, "wal-*.wal")
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, wals[0], fi.Size()/2)

	s2 := openTiered(t, 1, cfg)
	h := s2.History("tag")
	if len(h) == 0 || len(h) >= k {
		t.Fatalf("mid-file corruption: replayed %d reports, want a proper non-empty prefix of %d", len(h), k)
	}
	for i, r := range h {
		if r.Pos != want[i] {
			t.Fatalf("replayed report %d = %v, want %v", i, r.Pos, want[i])
		}
	}
	if acc, _ := s2.Stats(); acc != uint64(len(h)) {
		t.Errorf("accepted counter = %d, want %d", acc, len(h))
	}
}

// TestCorruptSegmentQuarantinedAtOpen: a segment that fails validation
// on startup is renamed aside and counted, never served — and the store
// still opens.
func TestCorruptSegmentQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.MemtableBytes = 1 << 20 // only the explicit Flush writes a segment
	s := openTiered(t, 2, cfg)
	for _, r := range stream(4, 300) {
		s.Ingest(r)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	accepted, rejected := s.Stats()
	closeStore(t, s)

	segs := globStore(t, dir, "seg-*.seg")
	if len(segs) != 1 {
		t.Fatalf("segments after one flush = %v, want one", segs)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, segs[0], fi.Size()-20) // lands in the index/trailer region

	s2 := openTiered(t, 2, cfg)
	st := s2.TierStats()
	if st.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", st.Quarantined)
	}
	if err := s2.TierErr(); err == nil || !strings.Contains(err.Error(), "quarantined segment") {
		t.Errorf("TierErr = %v, want a quarantined-segment error", err)
	}
	if q := globStore(t, dir, "*.quarantine"); len(q) != 1 {
		t.Errorf("quarantine files = %v, want one", q)
	}
	// The corrupt segment held this store's whole universe (the WAL was
	// freshly rotated), so nothing is served — but nothing fabricated
	// either, and the counters still carry the manifest's replay base.
	if live := globStore(t, dir, "seg-*.seg"); len(live) != 0 {
		t.Errorf("corrupt segment still live: %v", live)
	}
	if n := s2.NumTags(); n != 0 {
		t.Errorf("store rebuilt %d tags from a corrupt segment", n)
	}
	if acc, rej := s2.Stats(); acc != accepted || rej != rejected {
		t.Errorf("counters = %d/%d, want %d/%d", acc, rej, accepted, rejected)
	}
	if err := s2.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestCorruptSegmentQuarantinedAtRead: a data-frame bit flip detected
// mid-read quarantines the segment on the live store; the rows still in
// the memtable keep serving and the corrupt bytes never escape.
func TestCorruptSegmentQuarantinedAtRead(t *testing.T) {
	dir := t.TempDir()
	cfg := tieredCfg(dir)
	cfg.MemtableBytes = 1 << 20 // only the explicit Flush writes a segment
	s := openTiered(t, 1, cfg)
	for i := 0; i < 40; i++ {
		if !s.Ingest(report(t0.Add(time.Duration(i)*5*time.Minute), "tag",
			geo.Destination(pos, float64(i%360), float64(i+1)))) {
			t.Fatalf("report %d rejected", i)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var ring []geo.LatLon
	for i := 40; i < 45; i++ {
		p := geo.Destination(pos, float64(i%360), float64(i+1))
		if !s.Ingest(report(t0.Add(time.Duration(i)*5*time.Minute), "tag", p)) {
			t.Fatalf("report %d rejected", i)
		}
		ring = append(ring, p)
	}

	segs := globStore(t, dir, "seg-*.seg")
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one", segs)
	}
	const flipAt = 30 // inside the first data frame's payload
	if !frameReadTouches(t, segs[0], "tag", flipAt) {
		t.Fatalf("offset %d is outside every frame a read of the tag touches", flipAt)
	}
	flipByte(t, segs[0], flipAt)

	h := s.History("tag")
	if len(h) != len(ring) {
		t.Fatalf("history after corruption = %d rows, want the %d memtable rows", len(h), len(ring))
	}
	for i, r := range h {
		if r.Pos != ring[i] {
			t.Fatalf("served row %d = %v, want ring row %v", i, r.Pos, ring[i])
		}
	}
	st := s.TierStats()
	if st.ReadErrors == 0 || st.Quarantined != 1 || st.Segments != 0 {
		t.Errorf("stats after corrupt read = readErrs %d, quarantined %d, segments %d",
			st.ReadErrors, st.Quarantined, st.Segments)
	}
	if q := globStore(t, dir, "*.quarantine"); len(q) != 1 {
		t.Errorf("quarantine files = %v, want one", q)
	}
	if err := s.TierErr(); err == nil {
		t.Error("TierErr must surface the corrupt segment")
	}
	// Reads keep working (and stay stable) after the quarantine.
	if h2 := s.History("tag"); !reflect.DeepEqual(h2, h) {
		t.Error("second read after quarantine diverged")
	}
	if _, at, ok := s.LastSeen("tag"); !ok || !at.Equal(t0.Add(44*5*time.Minute)) {
		t.Error("last-seen lost after quarantine")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// frameReadTouches reports whether byte off of the segment at path lies
// in a data frame holding rows of tag, so a read of the tag's whole
// run preads and CRC-checks it.
func frameReadTouches(t *testing.T, path, tag string, off int64) bool {
	t.Helper()
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()
	e := seg.lookup(tag)
	if e == nil {
		t.Fatalf("segment holds no %q", tag)
	}
	for _, fr := range seg.frames {
		payload, err := colfmt.ReadFrameCRCAt(seg.f, fr.offset)
		if err != nil {
			t.Fatal(err)
		}
		inFrame := off >= fr.offset && off < fr.offset+colfmt.FrameCRCSize(len(payload))
		holdsTag := fr.rowStart < e.rowStart+uint64(e.rowCount) && e.rowStart < fr.rowStart+uint64(fr.count)
		if inFrame && holdsTag {
			return true
		}
	}
	return false
}
