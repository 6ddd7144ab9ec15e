package analysis

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// truthSpill routes campaign ground truth through disk-backed columnar
// logs instead of resident fix slices. Off by default: spill needs a
// writable temp directory and trades At-query locality for bounded
// memory, so continental-scale runs opt in explicitly.
var truthSpill atomic.Bool

// SetResidentTruth toggles whether campaign accumulation keeps ground
// truth resident (the default) or spills it to disk-backed columnar
// logs read through a cursor (bounded memory; the headline's episodes
// walk the spilled log via TruthIndex.All, but the per-country raw-fix
// consumers, the hexagon figures 6-7, see empty truth).
// It returns the previous setting so callers can restore it.
func SetResidentTruth(resident bool) (was bool) {
	return !truthSpill.Swap(!resident)
}

// ResidentTruth reports whether campaign ground truth stays resident.
func ResidentTruth() bool { return !truthSpill.Load() }

// TruthStore is a complete, time-sorted, frame-structured ground-truth
// log — the seekable face of pipeline.TruthFile, declared here so the
// analysis plane can read spilled truth without importing the pipeline
// (which imports analysis). Implementations must be safe for concurrent
// use and must order fixes by non-decreasing T across the whole store.
type TruthStore interface {
	// Total returns the number of fixes.
	Total() int
	// Frames returns the number of frames.
	Frames() int
	// FrameMeta returns frame i's first fix's global index, its fix
	// count, and its first/last fix instants in unix nanos.
	FrameMeta(i int) (start, count int, firstT, lastT int64)
	// ReadFrame decodes frame i into dst, reusing its capacity.
	ReadFrame(i int, dst []trace.GroundTruth) ([]trace.GroundTruth, error)
	// FrameTimes decodes only frame i's fix-instant column into dst.
	FrameTimes(i int, dst []int64) ([]int64, error)
}

// diskTruth serves TruthIndex queries from a TruthStore through a
// two-frame decoded window. Two frames, not one, because every At query
// needs the bracketing pair (fixes[i-1], fixes[i]), which straddles a
// frame boundary once per frame; with both resident the bracket is
// always a cache hit for the monotone access patterns the analysis
// plane produces (sorted distinct reports, bucket sweeps). The window
// is guarded by a mutex, so a disk-backed TruthIndex stays safe for the
// concurrent figure sweeps the resident index supports — concurrent At
// queries serialize rather than race.
type diskTruth struct {
	store TruthStore

	mu    sync.Mutex
	frame [2]int // frame index loaded in each slot, -1 = empty
	fixes [2][]trace.GroundTruth
	use   [2]int64 // last-use tick per slot, for LRU eviction
	tick  int64
}

func newDiskTruth(store TruthStore) *diskTruth {
	return &diskTruth{store: store, frame: [2]int{-1, -1}}
}

// frameOf returns the frame holding global fix index g, via the frame
// metas (no decoding).
func (dt *diskTruth) frameOf(g int) int {
	n := dt.store.Frames()
	return sort.Search(n, func(i int) bool {
		start, count, _, _ := dt.store.FrameMeta(i)
		return start+count > g
	})
}

// load returns frame fi's decoded fixes, serving from the window when
// possible. Callers hold dt.mu. A decode error panics: the store was
// validated at open time, so mid-query corruption is unrecoverable in
// the same way a truncated mmap would be.
func (dt *diskTruth) load(fi int) []trace.GroundTruth {
	dt.tick++
	for s := 0; s < 2; s++ {
		if dt.frame[s] == fi {
			dt.use[s] = dt.tick
			return dt.fixes[s]
		}
	}
	slot := 0
	if dt.use[1] < dt.use[0] {
		slot = 1
	}
	fixes, err := dt.store.ReadFrame(fi, dt.fixes[slot])
	if err != nil {
		panic("analysis: truth store frame " + itoa(fi) + " unreadable: " + err.Error())
	}
	dt.frame[slot], dt.fixes[slot], dt.use[slot] = fi, fixes, dt.tick
	return fixes
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// fix returns the fix at global index g. Callers hold dt.mu.
func (dt *diskTruth) fix(g int) trace.GroundTruth {
	fi := dt.frameOf(g)
	start, _, _, _ := dt.store.FrameMeta(fi)
	return dt.load(fi)[g-start]
}

// lowerBound returns the first global index whose fix instant is >= tNs
// (Total() when none is). Callers hold dt.mu.
func (dt *diskTruth) lowerBound(tNs int64) int {
	n := dt.store.Frames()
	fi := sort.Search(n, func(i int) bool {
		_, _, _, lastT := dt.store.FrameMeta(i)
		return lastT >= tNs
	})
	if fi == n {
		return dt.store.Total()
	}
	start, _, _, _ := dt.store.FrameMeta(fi)
	fixes := dt.load(fi)
	k := sort.Search(len(fixes), func(i int) bool { return fixes[i].T.UnixNano() >= tNs })
	return start + k
}

// at replicates the resident TruthIndex.At decision tree over the
// store. The arithmetic is shared via truthAt, so the two backends
// cannot drift.
func (dt *diskTruth) at(t time.Time, maxGap time.Duration) (geo.LatLon, bool) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	n := dt.store.Total()
	if n == 0 {
		return geo.LatLon{}, false
	}
	i := dt.lowerBound(t.UnixNano())
	switch {
	case i == 0:
		return truthAtEdge(dt.fix(0), t, maxGap)
	case i == n:
		return truthAtEdge(dt.fix(n-1), t, maxGap)
	}
	return truthAtBetween(dt.fix(i-1), dt.fix(i), t, maxGap)
}

// hasCoverage replicates the resident TruthIndex.HasCoverage logic.
func (dt *diskTruth) hasCoverage(from, to time.Time, maxGap time.Duration) bool {
	dt.mu.Lock()
	i := dt.lowerBound(from.UnixNano())
	inWindow := i < dt.store.Total() && dt.fix(i).T.Before(to)
	dt.mu.Unlock()
	if inWindow {
		return true
	}
	mid := from.Add(to.Sub(from) / 2)
	_, ok := dt.at(mid, maxGap)
	return ok
}

// span returns the store's first and last fix instants.
func (dt *diskTruth) span() (from, to time.Time, ok bool) {
	n := dt.store.Frames()
	if n == 0 {
		return time.Time{}, time.Time{}, false
	}
	_, _, firstT, _ := dt.store.FrameMeta(0)
	_, _, _, lastT := dt.store.FrameMeta(n - 1)
	return time.Unix(0, firstT).UTC(), time.Unix(0, lastT).UTC(), true
}

// all yields every fix in store order, decoding frame by frame into a
// buffer private to the iteration (ReadFrame is safe for concurrent use,
// the shared window is not touched).
func (dt *diskTruth) all(yield func(trace.GroundTruth) bool) {
	var buf []trace.GroundTruth
	for fi := 0; fi < dt.store.Frames(); fi++ {
		var err error
		buf, err = dt.store.ReadFrame(fi, buf)
		if err != nil {
			panic("analysis: truth store frame " + itoa(fi) + " unreadable: " + err.Error())
		}
		for _, f := range buf {
			if !yield(f) {
				return
			}
		}
	}
}

// fixTimes streams every fix instant into one resident int64 column —
// what NewIndex keeps per vendor instead of the fixes themselves (8 B
// per fix versus ~128 B for the struct), preserving the index's
// lock-free concurrent sweeps over spilled truth.
func (dt *diskTruth) fixTimes() []int64 {
	out := make([]int64, 0, dt.store.Total())
	var buf []int64
	for fi := 0; fi < dt.store.Frames(); fi++ {
		var err error
		buf, err = dt.store.FrameTimes(fi, buf)
		if err != nil {
			panic("analysis: truth store frame " + itoa(fi) + " unreadable: " + err.Error())
		}
		out = append(out, buf...)
	}
	return out
}

// NewDiskTruthIndex builds a TruthIndex over a spilled columnar truth
// store. At, HasCoverage, AvgSpeedKmh, Len, and Span answer exactly as
// the resident index over the same fix sequence would (see the cursor
// equivalence tests); DetectHomes-style raw-fix access is not available.
func NewDiskTruthIndex(store TruthStore) *TruthIndex {
	return &TruthIndex{disk: newDiskTruth(store), MaxGap: 3 * time.Minute}
}

// Close releases the underlying truth store when the index is
// disk-backed and the store holds an io.Closer (resident indexes are a
// no-op). The index must not be queried after Close.
func (ti *TruthIndex) Close() error {
	if ti.disk == nil {
		return nil
	}
	if c, ok := ti.disk.store.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
