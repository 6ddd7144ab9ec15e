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
type Itinerary struct {
	Start    time.Time
	segments []Segment
	offsets  []time.Duration // cumulative start offset of each segment
	total    time.Duration
}

// NewItinerary builds an itinerary from segments. Zero-duration segments
// are allowed (instant teleports are not: a Move with zero speed
// contributes nothing and is skipped).
func NewItinerary(start time.Time, segments ...Segment) *Itinerary {
	it := &Itinerary{
		Start:    start,
		segments: make([]Segment, 0, len(segments)),
		offsets:  make([]time.Duration, 0, len(segments)),
	}
	for _, s := range segments {
		d := s.Duration()
		if d <= 0 {
			continue
		}
		it.offsets = append(it.offsets, it.total)
		it.segments = append(it.segments, s)
		it.total += d
	}
	return it
}

// End returns when the itinerary finishes.
func (it *Itinerary) End() time.Time { return it.Start.Add(it.total) }

// TotalDistanceM returns the ground distance covered by Move segments.
func (it *Itinerary) TotalDistanceM() float64 {
	var total float64
	for _, s := range it.segments {
		if m, ok := s.(Move); ok {
			total += m.Along.Length()
		}
	}
	return total
}

// DistanceByClass returns the ground distance covered per speed class,
// in meters — the decomposition behind Table 1's Walk/Jog/Transit columns.
func (it *Itinerary) DistanceByClass() map[SpeedClass]float64 {
	out := make(map[SpeedClass]float64)
	for _, s := range it.segments {
		if m, ok := s.(Move); ok {
			out[ClassifySpeed(m.SpeedKmh)] += m.Along.Length()
		}
	}
	return out
}

// MaxDistanceFrom returns the largest great-circle distance from p to
// any segment endpoint the itinerary touches (0 for an empty
// itinerary). Because segments are great-circle legs at city scale, the
// maximum distance from a fixed point to the itinerary is attained (to
// within meters) at one of these waypoints — which is how the device
// fleet computes exact roam bounds for its spatial index. Waypoints are
// visited in segment order without being collected; a waypoint equal
// to the one before it (a Move's end, the Stay there, the next Move's
// start) is measured once.
func (it *Itinerary) MaxDistanceFrom(p geo.LatLon) float64 {
	max := 0.0
	var last geo.LatLon
	visited := false
	visit := func(wp geo.LatLon) {
		if visited && wp == last {
			return
		}
		last, visited = wp, true
		if d := geo.Distance(p, wp); d > max {
			max = d
		}
	}
	for _, s := range it.segments {
		switch seg := s.(type) {
		case Stay:
			visit(seg.At)
		case Move:
			for _, wp := range seg.Along {
				visit(wp)
			}
		default:
			visit(seg.PosAt(0))
			visit(seg.End())
		}
	}
	return max
}

// Pos implements Model.
func (it *Itinerary) Pos(t time.Time) geo.LatLon {
	if len(it.segments) == 0 {
		return geo.LatLon{}
	}
	if !t.After(it.Start) {
		return it.segments[0].PosAt(0)
	}
	elapsed := t.Sub(it.Start)
	if elapsed >= it.total {
		return it.segments[len(it.segments)-1].End()
	}
	// Binary search for the active segment.
	lo, hi := 0, len(it.segments)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if it.offsets[mid] <= elapsed {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return it.segments[lo].PosAt(elapsed - it.offsets[lo])
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
