// Package mobility models how tags, vantage points, and reporting devices
// move: stationary posts, waypoint routes at a mode-specific speed, random
// waypoint wanderers, and the daily home/work/venue routines that drive
// crowd encounters.
//
// Models are pure functions of virtual time (Pos(t)), which keeps the
// simulation deterministic and lets any subsystem — the radio plane, the
// GPS sampler, the analysis — query a position at any instant without
// coupling to the event loop.
package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagsim/internal/geo"
)

// Model yields an entity's true position at any virtual time.
type Model interface {
	Pos(t time.Time) geo.LatLon
}

// SpeedClass is the paper's mobility classification (Figure 5d).
type SpeedClass uint8

// Speed classes, thresholded exactly as in the paper: pedestrian below
// 6 km/h, jogging 6-12 km/h, transit at or above 12 km/h. Speeds below
// 0.5 km/h count as stationary.
const (
	ClassStationary SpeedClass = iota
	ClassPedestrian
	ClassJogging
	ClassTransit
)

var speedClassNames = [...]string{"Stationary", "Pedestrian", "Jogging", "Transit"}

// String names the class as in Figure 5d.
func (c SpeedClass) String() string {
	if int(c) < len(speedClassNames) {
		return speedClassNames[c]
	}
	return fmt.Sprintf("SpeedClass(%d)", uint8(c))
}

// Speed-class thresholds in km/h.
const (
	StationaryMaxKmh = 0.5
	PedestrianMaxKmh = 6.0
	JoggingMaxKmh    = 12.0
)

// ClassifySpeed buckets an average speed into the paper's classes.
func ClassifySpeed(kmh float64) SpeedClass {
	switch {
	case kmh < StationaryMaxKmh:
		return ClassStationary
	case kmh < PedestrianMaxKmh:
		return ClassPedestrian
	case kmh < JoggingMaxKmh:
		return ClassJogging
	default:
		return ClassTransit
	}
}

// Stationary is a model that never moves.
type Stationary geo.LatLon

// Pos implements Model.
func (s Stationary) Pos(time.Time) geo.LatLon { return geo.LatLon(s) }

// Segment is one piece of an itinerary.
type Segment interface {
	// Duration is how long the segment takes.
	Duration() time.Duration
	// PosAt returns the position elapsed into the segment; elapsed is
	// clamped to [0, Duration].
	PosAt(elapsed time.Duration) geo.LatLon
	// End returns the final position.
	End() geo.LatLon
}

// Stay holds a position for a duration.
type Stay struct {
	At  geo.LatLon
	For time.Duration
}

// Duration implements Segment.
func (s Stay) Duration() time.Duration { return s.For }

// PosAt implements Segment.
func (s Stay) PosAt(time.Duration) geo.LatLon { return s.At }

// End implements Segment.
func (s Stay) End() geo.LatLon { return s.At }

// Move traverses a path at constant speed.
type Move struct {
	Along    geo.Path
	SpeedKmh float64
}

// Duration implements Segment.
func (m Move) Duration() time.Duration {
	if m.SpeedKmh <= 0 {
		return 0
	}
	sec := m.Along.Length() / geo.KmhToMs(m.SpeedKmh)
	return time.Duration(sec * float64(time.Second))
}

// PosAt implements Segment.
func (m Move) PosAt(elapsed time.Duration) geo.LatLon {
	if len(m.Along) == 0 {
		return geo.LatLon{}
	}
	d := geo.KmhToMs(m.SpeedKmh) * elapsed.Seconds()
	return m.Along.At(d)
}

// End implements Segment.
func (m Move) End() geo.LatLon {
	if len(m.Along) == 0 {
		return geo.LatLon{}
	}
	return m.Along[len(m.Along)-1]
}

// Itinerary is a timed sequence of segments starting at a fixed instant.
// Before the start it reports the first position; after the last segment it
// reports the final position.
//
// The segments are stored as a compact table with one row per kept
// segment: its end point, its speed in km/h and its start offset. A Stay
// is a row with speed 0. A two-point Move that starts at the previous
// row's end needs no start point: its row holds its speed. Any other
// segment is kept whole in side, and its row's speed is -(k+1) for
// side[k]. A row is 32 bytes, against roughly 90 for a boxed segment
// with its own path and offset, and Pos evaluates the same arithmetic
// float for float.
type Itinerary struct {
	Start time.Time
	rows  []row
	side  []Segment
	total time.Duration
}

// row is one segment of an itinerary's table.
type row struct {
	end    geo.LatLon
	speed  float64       // km/h: 0 for a Stay, > 0 for a chained Move, -(k+1) for side[k]
	offset time.Duration // start offset from Itinerary.Start
}

// NewItinerary builds an itinerary from segments. Zero-duration segments
// are allowed (instant teleports are not: a Move with zero speed
// contributes nothing and is skipped).
func NewItinerary(start time.Time, segments ...Segment) *Itinerary {
	it := &Itinerary{Start: start, rows: make([]row, 0, len(segments))}
	for _, s := range segments {
		d := s.Duration()
		if d <= 0 {
			continue
		}
		r := row{offset: it.total}
		switch seg := s.(type) {
		case Stay:
			r.end = seg.At
		case Move:
			if n := len(it.rows); n > 0 && len(seg.Along) == 2 && sameBits(seg.Along[0], it.rows[n-1].end) {
				r.end, r.speed = seg.Along[1], seg.SpeedKmh
				break
			}
			r.end, r.speed = it.keep(s)
		default:
			r.end, r.speed = it.keep(s)
		}
		it.rows = append(it.rows, r)
		it.total += d
	}
	return it
}

// keep stores a segment the table cannot encode and returns its row's
// end point and speed code.
func (it *Itinerary) keep(s Segment) (geo.LatLon, float64) {
	it.side = append(it.side, s)
	return s.End(), -float64(len(it.side))
}

// sameBits reports whether two positions are equal bit for bit, so a
// Move chained onto the previous row starts from the very floats its
// own path held.
func sameBits(a, b geo.LatLon) bool {
	return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) && math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
}

// End returns when the itinerary finishes.
func (it *Itinerary) End() time.Time { return it.Start.Add(it.total) }

// move returns row i's ground length (its Move's Along.Length()) and
// speed, and whether it moves at all.
func (it *Itinerary) move(i int) (lengthM, kmh float64, ok bool) {
	r := it.rows[i]
	switch {
	case r.speed > 0:
		return geo.Path{it.rows[i-1].end, r.end}.Length(), r.speed, true
	case r.speed < 0:
		if m, isMove := it.side[int(-r.speed)-1].(Move); isMove {
			return m.Along.Length(), m.SpeedKmh, true
		}
	}
	return 0, 0, false
}

// TotalDistanceM returns the ground distance covered by Move segments.
func (it *Itinerary) TotalDistanceM() float64 {
	var total float64
	for i := range it.rows {
		if l, _, ok := it.move(i); ok {
			total += l
		}
	}
	return total
}

// DistanceByClass returns the ground distance covered per speed class,
// in meters — the decomposition behind Table 1's Walk/Jog/Transit columns.
func (it *Itinerary) DistanceByClass() map[SpeedClass]float64 {
	out := make(map[SpeedClass]float64)
	for i := range it.rows {
		if l, kmh, ok := it.move(i); ok {
			out[ClassifySpeed(kmh)] += l
		}
	}
	return out
}

// Pos implements Model.
func (it *Itinerary) Pos(t time.Time) geo.LatLon {
	n := len(it.rows)
	if n == 0 {
		return geo.LatLon{}
	}
	if !t.After(it.Start) {
		return it.posIn(0, 0)
	}
	elapsed := t.Sub(it.Start)
	if elapsed >= it.total {
		return it.rows[n-1].end
	}
	i := it.rowAt(elapsed)
	return it.posIn(i, elapsed-it.rows[i].offset)
}

// rowAt returns the row active at 0 <= elapsed < total: the last one
// starting at or before it.
func (it *Itinerary) rowAt(elapsed time.Duration) int {
	return it.search(0, len(it.rows)-1, elapsed)
}

// search is rowAt over rows lo..hi, which must hold the answer.
func (it *Itinerary) search(lo, hi int, elapsed time.Duration) int {
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if it.rows[mid].offset <= elapsed {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// rowFrom is rowAt starting from row hint: it gallops forward from the
// hint when the answer lies ahead, so a caller stepping through time
// finds each row in a few probes of nearby memory.
func (it *Itinerary) rowFrom(hint int, elapsed time.Duration) int {
	n := len(it.rows)
	if hint <= 0 || hint >= n || it.rows[hint].offset > elapsed {
		return it.rowAt(elapsed)
	}
	step := 1
	for hint+step < n && it.rows[hint+step].offset <= elapsed {
		hint += step
		step *= 2
	}
	return it.search(hint, min(hint+step, n)-1, elapsed)
}

// posIn is row i's PosAt(elapsed).
func (it *Itinerary) posIn(i int, elapsed time.Duration) geo.LatLon {
	r := &it.rows[i]
	switch {
	case r.speed == 0:
		return r.end
	case r.speed > 0:
		return geo.Path{it.rows[i-1].end, r.end}.At(geo.KmhToMs(r.speed) * elapsed.Seconds())
	default:
		return it.side[int(-r.speed)-1].PosAt(elapsed)
	}
}

// Span bounds an itinerary's positions over a window of time; see
// Extent.
type Span struct {
	// Box holds the start and end of every segment active in the
	// window and every waypoint of a side Move; a position along a leg
	// follows its great circle, so it lies in Box up to the leg's
	// poleward bow (see device.Fleet).
	Box geo.BBox
	// LongestM is the longest leg among those segments.
	LongestM float64
	// Until bounds the later windows Box also holds: one that opens no
	// earlier and closes by Until covers the same segments or fewer.
	// When the window lies in one segment, Until is that segment's end
	// and such windows have exactly this Box; otherwise it is the
	// window's own end.
	Until time.Time
	// Row is the segment the window opens in: any later window's
	// search starts there.
	Row int
	// OK is false when a covered segment is neither a Stay nor a Move,
	// whose positions nothing bounds.
	OK bool
}

// forever is the Until of a span that holds for good: the last instant
// whose unix nanoseconds fit an int64.
var forever = time.Unix(0, math.MaxInt64)

// Extent bounds where the itinerary can be during [from, to). Before
// the start it is at its first segment's start, and after the end at
// its last segment's end; an empty window yields the position at from.
// hint is any segment number; passing the previous window's Row keeps
// a caller that steps forward through time from searching the whole
// table.
func (it *Itinerary) Extent(from, to time.Time, hint int) Span {
	n := len(it.rows)
	if n == 0 {
		return Span{Until: forever, OK: true}
	}
	a, b := from.Sub(it.Start), to.Sub(it.Start)
	if b > a {
		b-- // the window's last instant
	} else {
		b = a
	}
	if a >= it.total { // after the end throughout
		return Span{Box: geo.NewBBox(it.rows[n-1].end), Until: forever, Row: n - 1, OK: true}
	}
	i0 := 0
	if a > 0 {
		i0 = it.rowFrom(hint, a)
	}
	i1 := i0 // windows span few rows: walk to the last, not search
	for i1+1 < n && it.rows[i1+1].offset <= b {
		i1++
	}
	sp := Span{Box: geo.NewBBox(it.rows[i0].end), Until: to, Row: i0, OK: true}
	if i1 == i0 {
		sp.Until = it.End()
		if i1+1 < n {
			sp.Until = it.Start.Add(it.rows[i1+1].offset)
		}
	}
	for i := i0; i <= i1; i++ {
		r := it.rows[i]
		sp.Box = sp.Box.Extend(r.end)
		switch {
		case r.speed > 0:
			sp.Box = sp.Box.Extend(it.rows[i-1].end)
			// The table keeps no length; speed × duration is the leg's
			// length less at most one nanosecond of travel, because
			// Move.Duration truncates to whole nanoseconds.
			next := it.total
			if i+1 < n {
				next = it.rows[i+1].offset
			}
			sp.LongestM = max(sp.LongestM, geo.KmhToMs(r.speed)*(next-r.offset).Seconds())
		case r.speed < 0:
			m, isMove := it.side[int(-r.speed)-1].(Move)
			if !isMove {
				sp.OK = false
				continue
			}
			for _, wp := range m.Along {
				sp.Box = sp.Box.Extend(wp)
			}
			sp.LongestM = max(sp.LongestM, m.Along.Length())
		}
	}
	return sp
}

// SpeedKmhAt estimates a model's speed at time t by symmetric finite
// difference over a window (the vantage-point app estimates speed the same
// way, from consecutive GPS fixes).
func SpeedKmhAt(m Model, t time.Time, window time.Duration) float64 {
	if window <= 0 {
		window = 5 * time.Second
	}
	half := window / 2
	a := m.Pos(t.Add(-half))
	b := m.Pos(t.Add(half))
	return geo.MsToKmh(geo.Distance(a, b) / window.Seconds())
}

// RandomWaypoint generates a random-waypoint itinerary inside a bounding
// box: pick a point, move there at a random speed from [minKmh, maxKmh],
// pause for [minPause, maxPause], repeat until the horizon is covered.
func RandomWaypoint(rng *rand.Rand, box geo.BBox, minKmh, maxKmh float64, minPause, maxPause time.Duration, start time.Time, horizon time.Duration) *Itinerary {
	if minKmh <= 0 || maxKmh < minKmh {
		panic("mobility: invalid RandomWaypoint speed range")
	}
	randPoint := func() geo.LatLon {
		return geo.LatLon{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	cur := randPoint()
	var segments []Segment
	var elapsed time.Duration
	for elapsed < horizon {
		next := randPoint()
		speed := minKmh + rng.Float64()*(maxKmh-minKmh)
		mv := Move{Along: geo.Path{cur, next}, SpeedKmh: speed}
		segments = append(segments, mv)
		elapsed += mv.Duration()
		cur = next
		pause := minPause
		if maxPause > minPause {
			pause += time.Duration(rng.Int63n(int64(maxPause - minPause)))
		}
		if pause > 0 {
			segments = append(segments, Stay{At: cur, For: pause})
			elapsed += pause
		}
	}
	return NewItinerary(start, segments...)
}
