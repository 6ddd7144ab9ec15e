// Package mobility models how tags, vantage points, and reporting devices
// move: stationary posts, and itineraries of stays and constant-speed
// legs, among them the daily home/work/venue routines that drive crowd
// encounters. A Builder lays an itinerary down leg by leg as a compact
// table of rows, the one form every itinerary takes.
//
// Models are pure functions of virtual time (Pos(t)), which keeps the
// simulation deterministic and lets any subsystem — the radio plane, the
// GPS sampler, the analysis — query a position at any instant without
// coupling to the event loop.
package mobility

import (
	"fmt"
	"math"
	"sync"
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

// Itinerary is a timed sequence of stays and straight legs that starts
// at a fixed instant from an origin. Before the start it reports the
// origin; after the last row it reports the final position.
//
// It is a table with one 32-byte row per stay or leg: the row's end
// point, its speed in km/h and its start offset. A stay is a row with
// speed 0. A leg has a positive speed and runs along the great circle
// from where the previous row ends (the origin, for the first row) to
// its own end. A Builder fills the table; an itinerary never changes
// after Build, so any number of devices may share one.
type Itinerary struct {
	Start  time.Time
	origin geo.LatLon
	rows   []row
	total  time.Duration
}

// row is one stay or leg of an itinerary's table.
type row struct {
	end    geo.LatLon
	speed  float64       // km/h: 0 for a stay, > 0 for a leg
	offset time.Duration // start offset from Itinerary.Start
}

// Builder appends an itinerary's rows one stay or leg at a time. Every
// leg starts where the builder stands: the origin, or the end of the
// last row.
type Builder struct {
	it  Itinerary
	buf *[]row // the scratch table it.rows grows in, until Build
}

// scratch holds the tables builders grow their rows in, so a table
// grows in a reused buffer and each itinerary allocates its own once,
// exactly sized, at Build. A long itinerary's table otherwise grows by
// a quarter at a time and allocates several times its final size.
var scratch = sync.Pool{New: func() any { return new([]row) }}

// NewBuilder starts an itinerary at start, standing at origin.
func NewBuilder(start time.Time, origin geo.LatLon) *Builder {
	buf := scratch.Get().(*[]row)
	return &Builder{it: Itinerary{Start: start, origin: origin, rows: (*buf)[:0]}, buf: buf}
}

// Pos returns where the builder stands.
func (b *Builder) Pos() geo.LatLon { return b.it.at(len(b.it.rows)) }

// Elapsed returns how long the rows so far take.
func (b *Builder) Elapsed() time.Duration { return b.it.total }

// Stay waits for d where the builder stands; d <= 0 adds nothing.
func (b *Builder) Stay(d time.Duration) {
	if d > 0 {
		b.it.rows = append(b.it.rows, row{end: b.Pos(), offset: b.it.total})
		b.it.total += d
	}
}

// StayUntil waits until elapsed after the start; a moment already
// passed adds nothing.
func (b *Builder) StayUntil(elapsed time.Duration) { b.Stay(elapsed - b.it.total) }

// MoveTo travels from where the builder stands to dest at kmh and
// returns how long the leg takes: its haversine length over the speed,
// truncated to whole nanoseconds. A leg that takes no time (no distance,
// or no speed) adds no row and leaves the builder where it stood.
func (b *Builder) MoveTo(dest geo.LatLon, kmh float64) time.Duration {
	if kmh <= 0 {
		return 0
	}
	sec := geo.Distance(b.Pos(), dest) / geo.KmhToMs(kmh)
	d := time.Duration(sec * float64(time.Second))
	if d > 0 {
		b.it.rows = append(b.it.rows, row{end: dest, speed: kmh, offset: b.it.total})
		b.it.total += d
	}
	return d
}

// Build returns the itinerary, its table sized exactly: a campaign keeps
// millions of rows alive. The builder is done after Build.
func (b *Builder) Build() *Itinerary {
	it := b.it
	it.rows = make([]row, len(b.it.rows))
	copy(it.rows, b.it.rows)
	if b.buf != nil {
		*b.buf = b.it.rows[:0]
		scratch.Put(b.buf)
		b.buf, b.it.rows = nil, nil
	}
	return &it
}

// End returns when the itinerary finishes.
func (it *Itinerary) End() time.Time { return it.Start.Add(it.total) }

// at returns where row i starts: the origin, or row i-1's end. at(n)
// for n rows is where the itinerary ends.
func (it *Itinerary) at(i int) geo.LatLon {
	if i == 0 {
		return it.origin
	}
	return it.rows[i-1].end
}

// DistanceByClass returns the ground distance covered per speed class,
// in meters — the decomposition behind Table 1's Walk/Jog/Transit columns.
func (it *Itinerary) DistanceByClass() map[SpeedClass]float64 {
	out := make(map[SpeedClass]float64)
	for i, r := range it.rows {
		if r.speed > 0 {
			out[ClassifySpeed(r.speed)] += geo.Distance(it.at(i), r.end)
		}
	}
	return out
}

// Pos implements Model.
func (it *Itinerary) Pos(t time.Time) geo.LatLon {
	if !t.After(it.Start) {
		return it.origin
	}
	elapsed := t.Sub(it.Start)
	if elapsed >= it.total {
		return it.at(len(it.rows))
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

// posIn is row i's position elapsed into it.
func (it *Itinerary) posIn(i int, elapsed time.Duration) geo.LatLon {
	r := &it.rows[i]
	if r.speed == 0 {
		return r.end
	}
	return geo.Path{it.at(i), r.end}.At(geo.KmhToMs(r.speed) * elapsed.Seconds())
}

// Span bounds an itinerary's positions over a window of time; see
// Extent.
type Span struct {
	// Box holds the start and end of every row active in the window; a
	// position along a leg follows its great circle, so it lies in Box
	// up to the leg's poleward bow (see device.Fleet).
	Box geo.BBox
	// LongestM is the longest leg among those rows.
	LongestM float64
	// Until bounds the later windows Box also holds: one that opens no
	// earlier and closes by Until covers the same rows or fewer. When
	// the window lies in one row, Until is that row's end and such
	// windows have exactly this Box; otherwise it is the window's own
	// end.
	Until time.Time
	// Row is the row the window opens in: any later window's search
	// starts there.
	Row int
}

// forever is the Until of a span that holds for good: the last instant
// whose unix nanoseconds fit an int64.
var forever = time.Unix(0, math.MaxInt64)

// Extent bounds where the itinerary can be during [from, to). Before
// the start it is at its origin, and after the end at its last row's
// end; an empty window yields the position at from. hint is any row
// number; passing the previous window's Row keeps a caller that steps
// forward through time from searching the whole table.
func (it *Itinerary) Extent(from, to time.Time, hint int) Span {
	n := len(it.rows)
	a, b := from.Sub(it.Start), to.Sub(it.Start)
	if b > a {
		b-- // the window's last instant
	} else {
		b = a
	}
	if n == 0 || a >= it.total { // at the end throughout
		return Span{Box: geo.NewBBox(it.at(n)), Until: forever, Row: max(n-1, 0)}
	}
	i0 := 0
	if a > 0 {
		i0 = it.rowFrom(hint, a)
	}
	i1 := i0 // windows span few rows: walk to the last, not search
	for i1+1 < n && it.rows[i1+1].offset <= b {
		i1++
	}
	sp := Span{Box: geo.NewBBox(it.rows[i0].end), Until: to, Row: i0}
	if i1 == i0 {
		sp.Until = it.End()
		if i1+1 < n {
			sp.Until = it.Start.Add(it.rows[i1+1].offset)
		}
	}
	for i := i0; i <= i1; i++ {
		r := it.rows[i]
		sp.Box = sp.Box.Extend(r.end)
		if r.speed > 0 {
			sp.Box = sp.Box.Extend(it.at(i))
			// The table keeps no length; speed × duration is the leg's
			// length less at most one nanosecond of travel, because
			// MoveTo truncates to whole nanoseconds.
			next := it.total
			if i+1 < n {
				next = it.rows[i+1].offset
			}
			sp.LongestM = max(sp.LongestM, geo.KmhToMs(r.speed)*(next-r.offset).Seconds())
		}
	}
	return sp
}
