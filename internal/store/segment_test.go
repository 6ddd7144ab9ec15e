package store

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// segRun is one tag's run as a test writes it into a segment.
type segRun struct {
	tag      string
	startSeq uint64
	rows     []trace.Report
}

// segRuns builds one run per length, tags in sorted order, each row
// distinct in every column the frame stores (ReporterIDs of varying
// length). TagID is set, as the reader attaches it.
func segRuns(lens ...int) []segRun {
	runs := make([]segRun, len(lens))
	for i, n := range lens {
		tag := fmt.Sprintf("tag-%03d", i)
		run := segRun{tag: tag, startSeq: uint64(7 * i)}
		for k := 0; k < n; k++ {
			at := time.Unix(0, int64(1_650_000_000+1000*i+k)*int64(time.Second)).UTC()
			run.rows = append(run.rows, trace.Report{
				T: at, HeardAt: at.Add(time.Duration(k%5) * time.Second), TagID: tag,
				Pos:    geo.LatLon{Lat: 48 + float64(k)/1e4, Lon: 2 + float64(i)/1e3},
				RSSI:   -float64(40 + k%50),
				Vendor: trace.Vendor(k % 2), ReporterID: fmt.Sprintf("dev-%d", k),
			})
		}
		runs[i] = run
	}
	return runs
}

func lastOf(r segRun) (geo.LatLon, time.Time, bool) {
	if len(r.rows) == 0 {
		return geo.LatLon{}, time.Time{}, false
	}
	last := r.rows[len(r.rows)-1]
	return last.Pos, last.T, true
}

// writeSegment writes runs through the production writer and opens
// the result.
func writeSegment(t *testing.T, path string, runs []segRun) *segment {
	t.Helper()
	w, err := createSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		pos, at, ok := lastOf(r)
		if err := w.addTag(r.tag, r.startSeq, r.rows, pos, at, ok); err != nil {
			t.Fatal(err)
		}
	}
	return finishSegment(t, w, path)
}

// writeStraddledSegment writes runs with frames cut every `every` rows
// regardless of tag boundaries — the layout of segments written before
// frames were cut at tags — by driving writeFrame directly.
func writeStraddledSegment(t *testing.T, path string, runs []segRun, every int) *segment {
	t.Helper()
	w, err := createSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		pos, at, ok := lastOf(r)
		w.entries = append(w.entries, segTagEntry{
			tag: r.tag, startSeq: r.startSeq,
			rowStart: w.rows + uint64(len(w.batch)), rowCount: uint32(len(r.rows)),
			lastAt: encTime(at), lastPos: pos, hasLast: ok,
		})
		for _, row := range r.rows {
			w.batch = append(w.batch, row)
			if len(w.batch) >= every {
				if err := w.writeFrame(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return finishSegment(t, w, path)
}

func finishSegment(t *testing.T, w *segmentWriter, path string) *segment {
	t.Helper()
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	s, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.close() })
	return s
}

// frameOf returns the index of the frame holding global row r.
func frameOf(s *segment, r uint64) int {
	for i, fr := range s.frames {
		if r >= fr.rowStart && r < fr.rowStart+uint64(fr.count) {
			return i
		}
	}
	return -1
}

// TestSegmentFramesCutAtTags: a run of up to segRowsPerFrame rows sits
// in exactly one frame, and a longer run starts a frame and fills
// whole frames with its own rows before its tail.
func TestSegmentFramesCutAtTags(t *testing.T) {
	const n = segRowsPerFrame
	lens := []int{0, 1, n / 3, n / 3, n / 3, n - 1, 1, n, 2, n + 1, 0, n / 2, 2*n + 3, 5, n, n - 1}
	runs := segRuns(lens...)
	s := writeSegment(t, filepath.Join(t.TempDir(), "seg.seg"), runs)
	for i, e := range s.entries {
		if e.rowCount == 0 {
			continue
		}
		first, last := frameOf(s, e.rowStart), frameOf(s, e.rowStart+uint64(e.rowCount)-1)
		if e.rowCount <= n {
			if first != last {
				t.Errorf("run %d (%d rows) spans frames %d-%d", i, e.rowCount, first, last)
			}
			continue
		}
		if s.frames[first].rowStart != e.rowStart {
			t.Errorf("run %d (%d rows) starts mid-frame %d", i, e.rowCount, first)
		}
		for f := first; f < last; f++ {
			if s.frames[f].count != n {
				t.Errorf("run %d (%d rows): frame %d holds %d rows, want a whole %d", i, e.rowCount, f, s.frames[f].count, n)
			}
		}
	}
	for i, fr := range s.frames {
		if fr.count > n {
			t.Errorf("frame %d holds %d rows, over the %d cap", i, fr.count, n)
		}
	}
}

// sameRows compares rows with ==: the test's times are UTC without a
// monotonic reading, as decTime returns them, so == is exact and far
// cheaper than reflect.DeepEqual over the O(n³) rows the window sweep
// reads.
func sameRows(got, want []trace.Report) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestSegmentReadTagRangeEveryWindow: every [a, b) window of runs of
// 0, 1, N-1, N, N+1 and 2N+3 rows (N = segRowsPerFrame) reads back
// exactly the rows written, with neighbours on both sides of each run
// sharing its frames. The runs are read concurrently off one segment,
// as the tier's readers do.
func TestSegmentReadTagRangeEveryWindow(t *testing.T) {
	const n = segRowsPerFrame
	runs := segRuns(3, 0, 1, n-1, 7, n, 2, n+1, 2*n+3, 2)
	s := writeSegment(t, filepath.Join(t.TempDir(), "seg.seg"), runs)
	for _, r := range runs {
		t.Run(fmt.Sprintf("%s_rows=%d", r.tag, len(r.rows)), func(t *testing.T) {
			t.Parallel()
			e := s.lookup(r.tag)
			if e == nil || int(e.rowCount) != len(r.rows) || e.startSeq != r.startSeq {
				t.Fatalf("%s index entry = %+v, want %d rows from %d", r.tag, e, len(r.rows), r.startSeq)
			}
			for a := 0; a <= len(r.rows); a++ {
				for b := a; b <= len(r.rows); b++ {
					got, err := s.readTagRange(e, r.startSeq+uint64(a), r.startSeq+uint64(b), nil)
					if err != nil {
						t.Fatalf("%s [%d,%d): %v", r.tag, a, b, err)
					}
					if !sameRows(got, r.rows[a:b]) {
						t.Fatalf("%s [%d,%d): read %d rows that differ from the %d written", r.tag, a, b, len(got), b-a)
					}
				}
			}
		})
	}
}

// TestSegmentStraddlingFramesRead: a segment whose frames are cut on
// row count alone, straddling tag boundaries — as segments written
// before frames were cut at tags are — still opens, and every run reads
// back identically: whole, row by row, and by every prefix and suffix.
func TestSegmentStraddlingFramesRead(t *testing.T) {
	const n = segRowsPerFrame
	runs := segRuns(3, 0, n/2, 1, n-1, 7, n, n/3, n+1, 2*n+3, 2)
	dir := t.TempDir()
	for _, every := range []int{97, 4096} {
		label := fmt.Sprintf("every %d", every)
		s := writeStraddledSegment(t, filepath.Join(dir, fmt.Sprintf("seg-%d.seg", every)), runs, every)
		straddles := 0
		for _, e := range s.entries {
			if e.rowCount > 0 && frameOf(s, e.rowStart) != frameOf(s, e.rowStart+uint64(e.rowCount)-1) {
				straddles++
			}
		}
		if every < 4096 && straddles == 0 {
			t.Fatalf("%s: no run straddles a frame boundary", label)
		}
		for _, r := range runs {
			e := s.lookup(r.tag)
			if e == nil || int(e.rowCount) != len(r.rows) {
				t.Fatalf("%s: %s index entry = %+v, want %d rows", label, r.tag, e, len(r.rows))
			}
			read := func(a, b int) {
				got, err := s.readTagRange(e, r.startSeq+uint64(a), r.startSeq+uint64(b), nil)
				if err != nil {
					t.Fatalf("%s: %s [%d,%d): %v", label, r.tag, a, b, err)
				}
				if !sameRows(got, r.rows[a:b]) {
					t.Fatalf("%s: %s [%d,%d): read %d rows that differ from the %d written", label, r.tag, a, b, len(got), b-a)
				}
			}
			for k := 0; k <= len(r.rows); k++ {
				read(0, k)
				read(k, len(r.rows))
				if k < len(r.rows) {
					read(k, k+1)
				}
			}
		}
	}
}
