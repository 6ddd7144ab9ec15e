package device

import (
	"math"
	"math/bits"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/obs"
)

// Fleet is a spatially indexed collection of devices. The encounter plane
// asks it, thousands of times per simulated day, "which devices could
// possibly be within radio range of this tag right now?" — so the index
// must answer without evaluating every device's mobility model.
//
// The index is sliced by the hour. Each query stream (a Searcher, or the
// fleet's own scratch behind Near) lazily builds a grid for the hour that
// holds the query instant, and rebuilds it in O(devices + itinerary rows in
// the hour) when its queries move to another hour. The grid bounds every
// device active during the hour by a box on the fleet's local ENU plane:
// the ends of its itinerary rows active in the hour (clamped to the first
// or last position outside its itinerary), plus sliceMarginM. Boxes up to
// sliceLegM across are bucketed into fixed sliceCellM cells, hashed onto
// a table sized by the number of entries; a device inactive for the
// whole hour is left out; a leg over sliceLegM, a wider box or an
// unknown mobility model puts the device on the hour's always-checked
// list. A device's box is kept from hour to hour while its itinerary
// stays in one row, so a night at home is bounded once. A query
// visits the cells under the window that holds every point within its
// radius, marks their devices and the always-checked list in a bitmap,
// and reads it back in device-index order, keeping the devices whose
// box meets the window and that are active at the query instant.
// Memory is O(devices) per query stream at any campaign length, and
// query streams share nothing mutable.
//
// Candidates are a superset of the devices truly within range (the
// encounter plane still measures each one) and appear in ascending
// device-index order, so every downstream RNG draw sequence — and the
// whole simulation output — is the same as a linear scan over the
// devices in range would give (property-tested against NearBrute, the
// exact linear oracle, in fleet_prop_test.go).
type Fleet struct {
	devices []*Device
	enu     *geo.ENU
	// mPerLonDeg converts a longitude difference to ENU east meters.
	mPerLonDeg float64
	// rowLo and rows span the slice-grid rows of the devices' homes;
	// Regions cuts bands over them.
	rowLo, rows int

	// Scratch of Near and NearIndices: the fleet's own query stream,
	// not safe for concurrent queries (concurrent readers use Searcher,
	// which owns its own).
	own slice
	idx []int32
}

// Hour-slice constants.
//
// Positions during a slice lie on the device's itinerary rows active
// then: a stay's point, or a point on a leg's great circle. Along a leg
// that does not pass a pole the longitude is monotone (Clairaut:
// cos φ·sin α is constant, so sin α keeps its sign), so the leg's
// longitudes lie between its endpoints'. Its latitude is not: its
// second derivative per unit of arc is −sin²α·tan φ, so the leg bows
// poleward of the straight interpolation of its endpoints' latitudes by at most θ²/8·max|tan φ|
// for an arc of θ radians — L²·tan|φ|/(8R) meters for a leg of length
// L. ENU x and y are linear in longitude and latitude, so the box
// around the projected waypoints holds every projected position but
// that bow. sliceMarginM is 1 m for the bow and 1 m for floating-point
// rounding in Pos, ENU.Forward and Distance (micrometres at city scale).
// A device is gridded only when its bow bound stays within the 1 m —
// a 2.5 km leg qualifies up to about 80° of latitude — and a device
// with a larger bound is checked on every query, its box grown by the
// bound. The plane's scale error (east meters are true only at the
// origin's latitude) is not the margin's: the query window is exact,
// the projection of the latitude and longitude bands
// (geo.LatBandDeg, geo.LonBandDeg) that hold every point Distance puts
// within the radius.
const (
	sliceNs      = int64(time.Hour)
	sliceCellM   = 250.0 // about a query window at the 120 m scan range
	sliceLegM    = 2500.0
	sliceMarginM = 2.0
)

// Process-wide fleet index series in the obs.Default registry.
var (
	obsSliceBuilds = obs.GetCounter("fleet_slice_builds_total")
	obsSliceBuild  = obs.GetHistogram("fleet_slice_build_seconds")
	obsCandidates  = obs.GetCounter("fleet_candidates_total")
)

// rect is an axis-aligned box on the fleet's ENU plane.
type rect struct{ x0, y0, x1, y1 float64 }

// everywhere bounds a device nothing else bounds.
var everywhere = rect{math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)}

func (r rect) meets(w rect) bool {
	return r.x0 <= w.x1 && w.x0 <= r.x1 && r.y0 <= w.y1 && w.y0 <= r.y1
}

// slice is one query stream's index of the hour its last query fell in.
type slice struct {
	hour  int64 // slice number: floor(unix nanos / sliceNs)
	built bool
	dev   []bound // per device; meaningful for members of the hour
	live  []int32 // ascending: devices active at some instant of the hour
	grid  []int32 // ascending: members bucketed into cells
	check []int32 // ascending: members checked on every query
	// start and cell are a CSR table over hashed cells: bucket b owns
	// cell[start[b]:start[b+1]], ascending device indices. Cells that
	// collide share a bucket; the box test drops their strangers.
	start []int32
	cell  []int32
	shift uint // 64 - log2(len(start)-1)
	mark  []uint64
}

// bound is one device's box in a query stream. It is kept across hours
// while it still holds: a device that stays put for the night is
// bounded once, not every hour.
type bound struct {
	box rect
	// from and until, in unix nanos: box holds the device's positions
	// over every window inside [from, until).
	from, until        int64
	cx0, cy0, cx1, cy1 int32 // cells the box covers, when gridded
	row                int32 // itinerary row at from: the next search's hint
	gridded            bool
}

// NewFleet indexes devices around an origin (typically the city center).
func NewFleet(origin geo.LatLon, devices []*Device) *Fleet {
	f := &Fleet{
		devices:    devices,
		enu:        geo.NewENU(origin),
		mPerLonDeg: math.Cos(origin.Lat*math.Pi/180) * geo.EarthRadiusMeters * math.Pi / 180,
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, d := range devices {
		_, y := f.enu.Forward(d.Home)
		r := cellOf(y)
		lo, hi = min(lo, r), max(hi, r)
	}
	if len(devices) > 0 {
		f.rowLo, f.rows = lo, hi-lo+1
	}
	return f
}

// cellOf maps an ENU coordinate to its cell number along that axis.
func cellOf(v float64) int { return int(math.Floor(v / sliceCellM)) }

// cellKey hashes a cell onto a table of 1<<(64-shift) buckets.
func cellKey(cx, cy int32, shift uint) int {
	k := uint64(uint32(cx))<<32 | uint64(uint32(cy))
	return int((k * 0x9E3779B97F4A7C15) >> shift)
}

// sliceOf returns the slice number holding t (floored before the epoch).
func sliceOf(t time.Time) int64 {
	ns := t.UnixNano()
	h := ns / sliceNs
	if ns%sliceNs < 0 {
		h--
	}
	return h
}

// use makes s index the hour that holds t.
func (f *Fleet) use(s *slice, t time.Time) {
	if h := sliceOf(t); !s.built || s.hour != h {
		f.build(s, h)
	}
}

// build indexes hour h: every device active during it, bounded for the
// hour, and the cells of the gridded ones.
func (f *Fleet) build(s *slice, h int64) {
	t0 := time.Now()
	if s.dev == nil {
		s.dev = make([]bound, len(f.devices))
		s.mark = make([]uint64, (len(f.devices)+63)/64)
	}
	s.hour, s.built = h, true
	s.live, s.grid, s.check = s.live[:0], s.grid[:0], s.check[:0]
	from := h * sliceNs
	entries := 0
	for i, d := range f.devices {
		lo, hi := from, from+sliceNs
		if !d.ActiveFrom.IsZero() {
			lo = max(lo, d.ActiveFrom.UnixNano())
		}
		if !d.ActiveTo.IsZero() {
			hi = min(hi, d.ActiveTo.UnixNano())
		}
		if lo >= hi {
			continue // inactive for the whole hour
		}
		s.live = append(s.live, int32(i))
		b := &s.dev[i]
		if lo < b.from || hi > b.until {
			f.bound(b, d.Mobility, lo, hi)
		}
		if !b.gridded {
			s.check = append(s.check, int32(i))
			continue
		}
		s.grid = append(s.grid, int32(i))
		entries += int(b.cx1-b.cx0+1) * int(b.cy1-b.cy0+1)
	}

	// Counting sort of the gridded devices' cells into a table of at
	// least as many buckets as entries. Devices go in ascending order,
	// so every bucket is ascending.
	nb := 1
	for nb < entries {
		nb <<= 1
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(nb)))
	if cap(s.start) < nb+1 {
		s.start = make([]int32, nb+1)
	}
	s.start = s.start[:nb+1]
	clear(s.start)
	for _, i := range s.grid {
		b := &s.dev[i]
		for cy := b.cy0; cy <= b.cy1; cy++ {
			for cx := b.cx0; cx <= b.cx1; cx++ {
				s.start[cellKey(cx, cy, s.shift)+1]++
			}
		}
	}
	for b := 1; b <= nb; b++ {
		s.start[b] += s.start[b-1]
	}
	if cap(s.cell) < entries {
		s.cell = make([]int32, entries)
	}
	s.cell = s.cell[:entries]
	// Fill through start[b] as bucket b's cursor, then shift the
	// cursors (now each bucket's end) back into starts.
	for _, i := range s.grid {
		b := &s.dev[i]
		for cy := b.cy0; cy <= b.cy1; cy++ {
			for cx := b.cx0; cx <= b.cx1; cx++ {
				k := cellKey(cx, cy, s.shift)
				s.cell[s.start[k]] = i
				s.start[k]++
			}
		}
	}
	copy(s.start[1:], s.start[:nb])
	s.start[0] = 0

	obsSliceBuilds.Inc()
	obs.Since(obsSliceBuild, t0)
}

// bound recomputes b for a device moving by m, active over [lo, hi) in
// unix nanos: the box holding its positions, how long that holds, and
// whether the box is small enough to grid.
func (f *Fleet) bound(b *bound, m mobility.Model, lo, hi int64) {
	b.from, b.until, b.gridded = math.MinInt64, math.MaxInt64, false
	var box geo.BBox
	var legM float64
	switch m := m.(type) {
	case mobility.Stationary:
		box = geo.NewBBox(geo.LatLon(m))
	case *mobility.Itinerary:
		sp := m.Extent(time.Unix(0, lo), time.Unix(0, hi), int(b.row))
		b.row, b.from, b.until = int32(sp.Row), lo, sp.Until.UnixNano()
		box, legM = sp.Box, sp.LongestM
	default:
		b.box = everywhere // unknown model: it can be anywhere
		return
	}
	pad := sliceMarginM
	gridded := legM <= sliceLegM
	if legM > 0 {
		// The bow bound at the highest latitude the leg can reach: no
		// point of it is farther than its length from an endpoint.
		lat := math.Max(math.Abs(box.MinLat), math.Abs(box.MaxLat)) + legM/geo.EarthRadiusMeters*180/math.Pi
		if lat >= 90 {
			b.box = everywhere
			return
		}
		if bow := legM * legM * math.Tan(lat*math.Pi/180) / (8 * geo.EarthRadiusMeters); bow > 1 {
			pad += bow
			gridded = false
		}
	}
	x0, y0 := f.enu.Forward(geo.LatLon{Lat: box.MinLat, Lon: box.MinLon})
	x1, y1 := f.enu.Forward(geo.LatLon{Lat: box.MaxLat, Lon: box.MaxLon})
	b.box = rect{x0 - pad, y0 - pad, x1 + pad, y1 + pad}
	if gridded && x1-x0 <= sliceLegM && y1-y0 <= sliceLegM {
		b.gridded = true
		b.cx0, b.cy0 = int32(cellOf(b.box.x0)), int32(cellOf(b.box.y0))
		b.cx1, b.cy1 = int32(cellOf(b.box.x1)), int32(cellOf(b.box.y1))
	}
}

// Len returns the number of devices.
func (f *Fleet) Len() int { return len(f.devices) }

// Devices returns the underlying slice (shared, not a copy).
func (f *Fleet) Devices() []*Device { return f.devices }

// Near appends to dst the devices that are active at time t and could be
// within radiusM of pos (callers still verify true distance via Pos). It
// returns the extended slice, enabling allocation-free reuse once the
// hour's index is built. Candidates hold every device NearBrute returns
// and appear in ascending device-index order.
//
// Near reuses per-fleet scratch space and is not safe for concurrent
// queries on the same Fleet (the simulation is single-goroutine per
// world; concurrent readers of one fleet use Searcher instead).
func (f *Fleet) Near(pos geo.LatLon, t time.Time, radiusM float64, dst []*Device) []*Device {
	f.idx = f.nearIdx(&f.own, pos, t, radiusM, f.idx[:0])
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
	return f.nearIdx(&f.own, pos, t, radiusM, dst)
}

// NearBrute is the exact linear oracle: the devices active at t whose
// position is within radiusM of pos by haversine, in ascending index
// order. Property tests check Near against it, and the scan benchmark
// records it as the unindexed baseline.
func (f *Fleet) NearBrute(pos geo.LatLon, t time.Time, radiusM float64, dst []*Device) []*Device {
	for _, d := range f.devices {
		if d.Active(t) && geo.Distance(d.Pos(t), pos) <= radiusM {
			dst = append(dst, d)
		}
	}
	return dst
}

// Searcher owns the scratch space of one query stream — its hour slice
// and bitmap — so several goroutines can query one Fleet concurrently:
// each worker of the region-sharded scan tick holds its own. The fleet
// itself is immutable after construction.
type Searcher struct {
	f *Fleet
	s slice
}

// Searcher returns a new independent query stream over the fleet.
func (f *Fleet) Searcher() *Searcher { return &Searcher{f: f} }

// NearIndices is Fleet.NearIndices on this searcher's private scratch.
func (s *Searcher) NearIndices(pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	return s.f.nearIdx(&s.s, pos, t, radiusM, dst)
}

// nearIdx is the query core shared by every entry point: it appends the
// ascending candidate indices to dst, using s as the hour's index.
func (f *Fleet) nearIdx(s *slice, pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	f.use(s, t)
	n0 := len(dst)
	dst = f.query(s, pos, t, radiusM, dst)
	obsCandidates.Add(uint64(len(dst) - n0))
	return dst
}

// query answers from the hour's index s.
func (f *Fleet) query(s *slice, pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	if len(s.live) == 0 {
		return dst
	}
	lonDeg := geo.LonBandDeg(pos.Lat, radiusM)
	if math.Abs(pos.Lon)+lonDeg > 180 {
		// The window reaches a pole or wraps the antimeridian, where
		// the plane's x is discontinuous: test every member.
		for _, i := range s.live {
			if f.devices[i].Active(t) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	qx, qy := f.enu.Forward(pos)
	hx, hy := lonDeg*f.mPerLonDeg, radiusM+1 // LatBandDeg(radiusM) in meters
	w := rect{qx - hx, qy - hy, qx + hx, qy + hy}
	cx0, cx1, cy0, cy1 := int32(cellOf(w.x0)), int32(cellOf(w.x1)), int32(cellOf(w.y0)), int32(cellOf(w.y1))
	if float64(cx1-cx0+1)*float64(cy1-cy0+1) > float64(len(s.live)) {
		// A window over more cells than there are members (huge
		// radii): testing each member's box is cheaper.
		for _, i := range s.live {
			dst = f.admit(s, i, w, t, dst)
		}
		return dst
	}
	// Marking every visited bucket's devices, and the always-checked
	// list, in one bitmap and reading it back word by word yields them
	// in ascending index order without sorting, each once.
	m := s.mark
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
		for cx := cx0; cx <= cx1; cx++ {
			b := cellKey(cx, cy, s.shift)
			set(s.cell[s.start[b]:s.start[b+1]])
		}
	}
	set(s.check)
	for wd := lo; wd <= hi; wd++ {
		word := m[wd]
		m[wd] = 0 // leave the bitmap clear for the next query
		for word != 0 {
			i := int32(wd<<6 | bits.TrailingZeros64(word))
			dst = f.admit(s, i, w, t, dst)
			word &= word - 1
		}
	}
	return dst
}

// admit appends member i when its box meets the query window and it is
// active at t.
func (f *Fleet) admit(s *slice, i int32, w rect, t time.Time, dst []int32) []int32 {
	if s.dev[i].box.meets(w) && f.devices[i].Active(t) {
		dst = append(dst, i)
	}
	return dst
}

// ResetCooldowns clears reporting state on every device.
func (f *Fleet) ResetCooldowns() {
	for _, d := range f.devices {
		d.ResetCooldowns()
	}
}
