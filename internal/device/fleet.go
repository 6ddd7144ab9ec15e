package device

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// Fleet is a spatially indexed collection of devices. The encounter plane
// asks it, thousands of times per simulated day, "which devices could
// possibly be within radio range of this tag right now?" — so the index
// must answer without evaluating every device's mobility model.
//
// Each device gets a precomputed roam bound: the farthest its itinerary
// ever strays from its home anchor. On top of that, home anchors are
// bucketed into a uniform grid on the local ENU plane, sized from the
// fleet's roam-bound distribution: a query only visits the cells that
// intersect the circle of radius roamCap+radius around the query point.
// Devices whose roam exceeds the cap (long-haul itineraries, unknown
// mobility models with an unbounded roam) live in a small overflow list
// that every query scans linearly.
//
// When every device has a bounded ActiveFrom/ActiveTo window (the
// cafeteria's visits), the fleet also buckets device indices by the
// hours their windows overlap. Visitors there share one location, so
// the grid cannot prune them, and without the buckets every query would
// test every visit of the whole deployment; with them, a query that
// falls back to the linear scan tests only the visits of the hour that
// holds t. Fleets with unbounded devices (the wild worlds' residents)
// have no buckets.
//
// Candidates are produced in ascending device-index order — exactly the
// order the historical linear scan produced — so every downstream RNG
// draw sequence, and therefore the whole simulation output, is
// byte-identical to the unindexed implementation (property-tested
// against NearBrute in fleet_prop_test.go).
type Fleet struct {
	devices []*Device
	enu     *geo.ENU
	// planar home coordinates and roam bounds, parallel to devices.
	xs, ys []float64
	roamM  []float64

	// Uniform grid over home anchors (nil cellStart = no grid; queries
	// fall back to the linear roam-bound scan).
	cellSizeM  float64
	minX, minY float64
	nx, ny     int
	cellStart  []int32 // CSR offsets: cell c owns cellIdx[cellStart[c]:cellStart[c+1]]
	cellIdx    []int32 // device indices bucketed by cell, ascending within each cell
	overflow   []int32 // ascending device indices with roam > roamCap
	roamCap    float64 // max roam bound among grid-indexed devices

	// Activity buckets (nil actStart = none): bucket b holds, ascending,
	// every device whose window overlaps
	// [actBase + b·activityBucket, actBase + (b+1)·activityBucket) in
	// unix nanos; actEnd is the latest window end.
	actBase, actEnd int64
	actStart        []int32 // CSR offsets: bucket b owns actIdx[actStart[b]:actStart[b+1]]
	actIdx          []int32

	// mark is the grid query's bitmap over device indices and idx the
	// resulting candidate indices; reusing them makes Near
	// allocation-free but not safe for concurrent queries on one Fleet
	// (concurrent readers use Searcher, which owns its own scratch).
	mark []uint64
	idx  []int32
}

// Grid sizing bounds. The cell edge tracks the roam-bound distribution
// but never drops below minCellM (degenerate all-stationary fleets would
// otherwise build enormous grids), and the grid never exceeds
// maxGridSide cells per axis (sparse outliers grow the cells instead).
const (
	minCellM    = 64
	maxGridSide = 512
)

// Activity bucket sizing: hour-long buckets, and no buckets at all when
// they would hold more than maxActivityFanout entries per device (windows
// of days or years) — past that the index stops paying for its memory.
const (
	activityBucket    = int64(time.Hour)
	maxActivityFanout = 16
)

// NewFleet indexes devices around an origin (typically the city center).
func NewFleet(origin geo.LatLon, devices []*Device) *Fleet {
	f := &Fleet{
		devices: devices,
		enu:     geo.NewENU(origin),
		xs:      make([]float64, len(devices)),
		ys:      make([]float64, len(devices)),
		roamM:   make([]float64, len(devices)),
	}
	for i, d := range devices {
		f.xs[i], f.ys[i] = f.enu.Forward(d.Home)
		f.roamM[i] = roamBound(d)
	}
	f.buildGrid()
	f.buildActivity()
	return f
}

// buildActivity buckets the devices by active window when every device
// has one. Iterating devices in index order keeps every bucket
// ascending, the order the query checks them in.
func (f *Fleet) buildActivity() {
	if len(f.devices) == 0 {
		return
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, d := range f.devices {
		if d.ActiveFrom.IsZero() || d.ActiveTo.IsZero() {
			return
		}
		lo = min(lo, d.ActiveFrom.UnixNano())
		hi = max(hi, d.ActiveTo.UnixNano())
	}
	if hi <= lo {
		return // every window is empty; the plain scan finds no one either
	}
	// span reports the buckets [b0, b1] a window overlaps (b1 < b0 for
	// an empty window).
	span := func(d *Device) (b0, b1 int64) {
		from, to := d.ActiveFrom.UnixNano(), d.ActiveTo.UnixNano()
		if to <= from {
			return 0, -1
		}
		return (from - lo) / activityBucket, (to - 1 - lo) / activityBucket
	}
	limit := int64(maxActivityFanout) * int64(len(f.devices))
	nb := (hi-1-lo)/activityBucket + 1
	total := int64(0)
	for _, d := range f.devices {
		b0, b1 := span(d)
		total += b1 - b0 + 1
	}
	if nb > limit || total > limit {
		return
	}
	counts := make([]int32, nb+1)
	for _, d := range f.devices {
		b0, b1 := span(d)
		for b := b0; b <= b1; b++ {
			counts[b+1]++
		}
	}
	for b := 1; b < len(counts); b++ {
		counts[b] += counts[b-1]
	}
	f.actBase, f.actEnd = lo, hi
	f.actStart = counts
	f.actIdx = make([]int32, total)
	fill := make([]int32, nb)
	for i, d := range f.devices {
		b0, b1 := span(d)
		for b := b0; b <= b1; b++ {
			f.actIdx[f.actStart[b]+fill[b]] = int32(i)
			fill[b]++
		}
	}
}

// buildGrid derives the roam cap and cell size from the roam-bound
// distribution and buckets the grid-eligible homes.
func (f *Fleet) buildGrid() {
	finite := make([]float64, 0, len(f.roamM))
	for _, r := range f.roamM {
		if !math.IsInf(r, 1) {
			finite = append(finite, r)
		}
	}
	if len(finite) == 0 {
		return // nothing indexable; overflow-only queries degrade to linear
	}
	// roamCap at the 99th percentile: the overflow list — scanned
	// linearly on every query — stays at ~1% of the fleet, while the
	// roaming tail (long-haul co-travelers, unbounded models) cannot
	// inflate every indexed cell's reach. The index picks the largest
	// roam *below* the tail, so a sharply bimodal distribution (many
	// stationary homes, few cross-city commuters) caps at the local
	// mode rather than the first commuter.
	sort.Float64s(finite)
	f.roamCap = math.Max(finite[(len(finite)-1)*99/100], minCellM)

	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	indexed := 0
	for i, r := range f.roamM {
		if r > f.roamCap {
			f.overflow = append(f.overflow, int32(i)) // ascending by construction
			continue
		}
		indexed++
		minX, minY = math.Min(minX, f.xs[i]), math.Min(minY, f.ys[i])
		maxX, maxY = math.Max(maxX, f.xs[i]), math.Max(maxY, f.ys[i])
	}
	if indexed == 0 {
		return
	}
	f.cellSizeM = math.Max(f.roamCap, minCellM)
	f.cellSizeM = math.Max(f.cellSizeM, (maxX-minX)/maxGridSide)
	f.cellSizeM = math.Max(f.cellSizeM, (maxY-minY)/maxGridSide)
	f.minX, f.minY = minX, minY
	f.nx = int((maxX-minX)/f.cellSizeM) + 1
	f.ny = int((maxY-minY)/f.cellSizeM) + 1

	// Counting sort into CSR cells; iterating devices in index order keeps
	// every cell's bucket ascending, which the query merge relies on.
	counts := make([]int32, f.nx*f.ny+1)
	for i, r := range f.roamM {
		if r > f.roamCap {
			continue
		}
		counts[f.cellOf(f.xs[i], f.ys[i])+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	f.cellStart = counts
	f.cellIdx = make([]int32, indexed)
	fill := make([]int32, f.nx*f.ny)
	for i, r := range f.roamM {
		if r > f.roamCap {
			continue
		}
		c := f.cellOf(f.xs[i], f.ys[i])
		f.cellIdx[f.cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
}

// cellOf maps planar coordinates to a cell index, clamped into the grid.
func (f *Fleet) cellOf(x, y float64) int {
	cx := int((x - f.minX) / f.cellSizeM)
	cy := int((y - f.minY) / f.cellSizeM)
	cx = clampInt(cx, 0, f.nx-1)
	cy = clampInt(cy, 0, f.ny-1)
	return cy*f.nx + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// roamBound computes how far the device's mobility can take it from home.
func roamBound(d *Device) float64 {
	const margin = 50 // meters of slack for path interpolation
	switch m := d.Mobility.(type) {
	case mobility.Stationary:
		return geo.Distance(d.Home, geo.LatLon(m)) + margin
	case *mobility.Itinerary:
		return m.MaxDistanceFrom(d.Home) + margin
	default:
		// Unknown model: assume it can be anywhere; the device joins the
		// overflow list and is checked on every query.
		return math.Inf(1)
	}
}

// Len returns the number of devices.
func (f *Fleet) Len() int { return len(f.devices) }

// Devices returns the underlying slice (shared, not a copy).
func (f *Fleet) Devices() []*Device { return f.devices }

// CountByVendor tallies devices per vendor.
func (f *Fleet) CountByVendor() map[trace.Vendor]int {
	out := make(map[trace.Vendor]int)
	for _, d := range f.devices {
		out[d.Vendor]++
	}
	return out
}

// Near appends to dst the devices that are active at time t and could be
// within radiusM of pos (callers still verify true distance via Pos). It
// returns the extended slice, enabling allocation-free reuse. Candidates
// appear in ascending device-index order, identical to NearBrute.
//
// Near reuses per-fleet scratch space and is not safe for concurrent
// queries on the same Fleet (the simulation is single-goroutine per
// world; concurrent readers of one fleet use Searcher instead).
func (f *Fleet) Near(pos geo.LatLon, t time.Time, radiusM float64, dst []*Device) []*Device {
	f.idx = f.nearIdx(&f.mark, pos, t, radiusM, f.idx[:0])
	for _, i := range f.idx {
		dst = append(dst, f.devices[i])
	}
	return dst
}

// NearIndices is Near returning device indices instead of pointers —
// the form region-sharded scan workers consume, because an index keys
// per-(tag, device) state without a map of pointers. Same ordering and
// concurrency contract as Near.
func (f *Fleet) NearIndices(pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	return f.nearIdx(&f.mark, pos, t, radiusM, dst)
}

// NearBrute is the reference linear roam-bound scan over every device —
// the pre-index implementation, kept as the equivalence oracle for
// property tests and as the recorded benchmark baseline.
func (f *Fleet) NearBrute(pos geo.LatLon, t time.Time, radiusM float64, dst []*Device) []*Device {
	qx, qy := f.enu.Forward(pos)
	f.idx = f.nearLinear(qx, qy, t, radiusM, f.idx[:0])
	for _, i := range f.idx {
		dst = append(dst, f.devices[i])
	}
	return dst
}

// Searcher owns the scratch space of one query stream, so several
// goroutines can query one Fleet concurrently — each worker of the
// region-sharded scan tick holds its own. The underlying fleet data is
// immutable after construction; the only shared mutable state in a
// query is scratch, which the Searcher privatizes.
type Searcher struct {
	f    *Fleet
	mark []uint64
}

// Searcher returns a new independent query stream over the fleet.
func (f *Fleet) Searcher() *Searcher { return &Searcher{f: f} }

// NearIndices is Fleet.NearIndices on this searcher's private scratch.
func (s *Searcher) NearIndices(pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	return s.f.nearIdx(&s.mark, pos, t, radiusM, dst)
}

// nearIdx is the query core shared by every entry point: it appends the
// ascending candidate indices to dst, using *mark as the grid path's
// bitmap (caller-owned, so concurrent query streams never collide).
func (f *Fleet) nearIdx(mark *[]uint64, pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	qx, qy := f.enu.Forward(pos)
	if f.cellStart == nil {
		return f.nearActive(qx, qy, t, radiusM, dst)
	}
	reach := f.roamCap + radiusM
	cx0 := int(math.Floor((qx - reach - f.minX) / f.cellSizeM))
	cx1 := int(math.Floor((qx + reach - f.minX) / f.cellSizeM))
	cy0 := int(math.Floor((qy - reach - f.minY) / f.cellSizeM))
	cy1 := int(math.Floor((qy + reach - f.minY) / f.cellSizeM))
	if cx1 < 0 || cy1 < 0 || cx0 >= f.nx || cy0 >= f.ny {
		// Query circle misses the whole grid; only roaming outliers can
		// possibly reach it.
		for _, i := range f.overflow {
			dst = f.checkCandidate(i, qx, qy, t, radiusM, dst)
		}
		return dst
	}
	cx0, cx1 = clampInt(cx0, 0, f.nx-1), clampInt(cx1, 0, f.nx-1)
	cy0, cy1 = clampInt(cy0, 0, f.ny-1), clampInt(cy1, 0, f.ny-1)
	if 2*(cx1-cx0+1)*(cy1-cy0+1) >= f.nx*f.ny {
		// The query covers most of the grid (small worlds, huge radii):
		// marking most devices would cost more than the plain scan.
		return f.nearActive(qx, qy, t, radiusM, dst)
	}
	// Each cell's bucket is ascending, but buckets of different cells
	// interleave. Marking every bucket's devices, and the overflow list,
	// in one bitmap and reading it back word by word yields them in
	// global index order — the linear scan's order, which the
	// downstream RNG draws follow — without sorting.
	if len(*mark) == 0 {
		*mark = make([]uint64, (len(f.devices)+63)/64)
	}
	m := *mark
	lo, hi := len(m), -1 // range of words holding marks
	set := func(ids []int32) {
		if len(ids) == 0 {
			return
		}
		lo, hi = min(lo, int(ids[0]>>6)), max(hi, int(ids[len(ids)-1]>>6))
		for _, i := range ids {
			m[i>>6] |= 1 << (i & 63)
		}
	}
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * f.nx
		for c := row + cx0; c <= row+cx1; c++ {
			set(f.cellIdx[f.cellStart[c]:f.cellStart[c+1]])
		}
	}
	set(f.overflow)
	for w := lo; w <= hi; w++ {
		word := m[w]
		m[w] = 0 // leave the bitmap clear for the next query
		for word != 0 {
			i := int32(w<<6 | bits.TrailingZeros64(word))
			dst = f.checkCandidate(i, qx, qy, t, radiusM, dst)
			word &= word - 1
		}
	}
	return dst
}

// nearActive is the linear scan the query core falls back to: over the
// activity bucket that holds t when the fleet has buckets, over every
// device otherwise. A device active at t has a window overlapping t's
// bucket, so the bucket holds every candidate the full scan would admit,
// in the same ascending order.
func (f *Fleet) nearActive(qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	if f.actStart == nil {
		return f.nearLinear(qx, qy, t, radiusM, dst)
	}
	ns := t.UnixNano()
	if ns < f.actBase || ns >= f.actEnd {
		return dst // before every window opens or after every one closes
	}
	b := (ns - f.actBase) / activityBucket
	for _, i := range f.actIdx[f.actStart[b]:f.actStart[b+1]] {
		dst = f.checkCandidate(i, qx, qy, t, radiusM, dst)
	}
	return dst
}

// nearLinear tests every device: NearBrute's scan, and the query path of
// fleets without activity buckets.
func (f *Fleet) nearLinear(qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	for i := range f.devices {
		dst = f.checkCandidate(int32(i), qx, qy, t, radiusM, dst)
	}
	return dst
}

// checkCandidate applies the per-device admission test shared by every
// query path: home within roam+radius of the query, and active at t.
// The planar distance test runs first because it is three float ops
// against Active's four time comparisons; the admission condition is a
// commutative conjunction, so the candidate set is order-independent.
func (f *Fleet) checkCandidate(i int32, qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	reach := f.roamM[i] + radiusM
	if !math.IsInf(reach, 1) {
		dx := f.xs[i] - qx
		dy := f.ys[i] - qy
		if dx*dx+dy*dy > reach*reach {
			return dst
		}
	}
	if f.devices[i].Active(t) {
		dst = append(dst, i)
	}
	return dst
}

// GridStats describes the built spatial index (diagnostics and tests).
type GridStats struct {
	Indexed  int     // devices bucketed into grid cells
	Overflow int     // devices on the linear overflow list
	Cells    int     // total grid cells (nx*ny)
	Rows     int     // grid rows (ny) — the maximum usable scan-region count
	CellM    float64 // cell edge length in meters
	RoamCapM float64 // roam bound cap for grid-indexed devices
}

// GridStats reports how the fleet was indexed; a zero value means the
// grid is absent and every query takes the linear path.
func (f *Fleet) GridStats() GridStats {
	if f.cellStart == nil {
		return GridStats{}
	}
	return GridStats{
		Indexed:  len(f.cellIdx),
		Overflow: len(f.overflow),
		Cells:    f.nx * f.ny,
		Rows:     f.ny,
		CellM:    f.cellSizeM,
		RoamCapM: f.roamCap,
	}
}

// ResetCooldowns clears reporting state on every device.
func (f *Fleet) ResetCooldowns() {
	for _, d := range f.devices {
		d.ResetCooldowns()
	}
}
