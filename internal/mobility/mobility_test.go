package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/geo"
)

var (
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
	start  = time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC) // a Monday
)

func TestClassifySpeed(t *testing.T) {
	cases := []struct {
		kmh  float64
		want SpeedClass
	}{
		{0, ClassStationary}, {0.4, ClassStationary},
		{0.5, ClassPedestrian}, {3, ClassPedestrian}, {5.9, ClassPedestrian},
		{6, ClassJogging}, {11.9, ClassJogging},
		{12, ClassTransit}, {300, ClassTransit},
	}
	for _, c := range cases {
		if got := ClassifySpeed(c.kmh); got != c.want {
			t.Errorf("ClassifySpeed(%v) = %v, want %v", c.kmh, got, c.want)
		}
	}
}

func TestSpeedClassString(t *testing.T) {
	if ClassPedestrian.String() != "Pedestrian" || ClassTransit.String() != "Transit" {
		t.Error("class names wrong")
	}
	if SpeedClass(9).String() != "SpeedClass(9)" {
		t.Error("unknown class name wrong")
	}
}

func TestStationary(t *testing.T) {
	s := Stationary(origin)
	if s.Pos(start) != origin || s.Pos(start.Add(100*time.Hour)) != origin {
		t.Error("stationary model moved")
	}
}

func TestMoveTiming(t *testing.T) {
	dest := geo.Destination(origin, 90, 1000)
	m := Move{Along: geo.Path{origin, dest}, SpeedKmh: 3.6} // 1 m/s
	if d := m.Duration(); math.Abs(d.Seconds()-1000) > 1 {
		t.Fatalf("Duration = %v, want ~1000s", d)
	}
	mid := m.PosAt(500 * time.Second)
	if d := geo.Distance(origin, mid); math.Abs(d-500) > 2 {
		t.Errorf("PosAt(500s) is %.1f m along, want 500", d)
	}
	if geo.Distance(m.End(), dest) > 0.01 {
		t.Error("End() mismatch")
	}
	// Zero-speed move is degenerate.
	if (Move{Along: geo.Path{origin, dest}}).Duration() != 0 {
		t.Error("zero-speed move must have zero duration")
	}
	if !(Move{}).End().IsZero() || !(Move{}).PosAt(0).IsZero() {
		t.Error("empty move should return zero positions")
	}
}

func TestItineraryPos(t *testing.T) {
	a := origin
	b := geo.Destination(a, 90, 360) // 6 min at 3.6 km/h
	it := NewItinerary(start,
		Stay{At: a, For: 10 * time.Minute},
		Move{Along: geo.Path{a, b}, SpeedKmh: 3.6},
		Stay{At: b, For: 10 * time.Minute},
	)
	// Before start.
	if it.Pos(start.Add(-time.Hour)) != a {
		t.Error("pre-start position should be the first point")
	}
	// During the stay.
	if it.Pos(start.Add(5*time.Minute)) != a {
		t.Error("position during stay should be a")
	}
	// Midway through the move: 3 min in = 180 m.
	mid := it.Pos(start.Add(13 * time.Minute))
	if d := geo.Distance(a, mid); math.Abs(d-180) > 2 {
		t.Errorf("mid-move position %.1f m along, want 180", d)
	}
	// After the end.
	if d := geo.Distance(it.Pos(start.Add(time.Hour)), b); d > 0.01 {
		t.Error("post-end position should be b")
	}
	wantEnd := start.Add(10*time.Minute + 6*time.Minute + 10*time.Minute)
	if got := it.End(); got.Sub(wantEnd) > time.Second || wantEnd.Sub(got) > time.Second {
		t.Errorf("End = %v, want %v", got, wantEnd)
	}
}

func TestItinerarySkipsDegenerateSegments(t *testing.T) {
	it := NewItinerary(start,
		Stay{At: origin, For: 0},
		Move{Along: geo.Path{origin}, SpeedKmh: 5},
		Stay{At: origin, For: time.Minute},
	)
	if len(it.segments) != 1 {
		t.Errorf("kept %d segments, want 1", len(it.segments))
	}
}

func TestEmptyItinerary(t *testing.T) {
	it := NewItinerary(start)
	if !it.Pos(start).IsZero() {
		t.Error("empty itinerary should report zero position")
	}
	if !it.End().Equal(start) {
		t.Error("empty itinerary ends at start")
	}
}

func TestItineraryDistances(t *testing.T) {
	b := geo.Destination(origin, 0, 1000)
	c := geo.Destination(b, 0, 2000)
	it := NewItinerary(start,
		Move{Along: geo.Path{origin, b}, SpeedKmh: 5}, // walk 1 km
		Move{Along: geo.Path{b, c}, SpeedKmh: 30},     // transit 2 km
		Stay{At: c, For: time.Hour},
	)
	if d := it.TotalDistanceM(); math.Abs(d-3000) > 5 {
		t.Errorf("TotalDistanceM = %.1f", d)
	}
	byClass := it.DistanceByClass()
	if math.Abs(byClass[ClassPedestrian]-1000) > 5 {
		t.Errorf("pedestrian distance = %.1f", byClass[ClassPedestrian])
	}
	if math.Abs(byClass[ClassTransit]-2000) > 5 {
		t.Errorf("transit distance = %.1f", byClass[ClassTransit])
	}
}

// glide is a Segment other than Stay and Move: MaxDistanceFrom must
// fall back to its start and end positions.
type glide struct{ from, to geo.LatLon }

func (g glide) Duration() time.Duration { return time.Minute }
func (g glide) PosAt(elapsed time.Duration) geo.LatLon {
	if elapsed <= 0 {
		return g.from
	}
	return g.to
}
func (g glide) End() geo.LatLon { return g.to }

// TestMaxDistanceFromMatchesWaypoints pins MaxDistanceFrom to its
// definition: the maximum over the itinerary's waypoints, collected in
// segment order (every Move vertex, every Stay, the endpoints of any
// other segment), of the distance from the query point.
func TestMaxDistanceFromMatchesWaypoints(t *testing.T) {
	waypoints := func(it *Itinerary) []geo.LatLon {
		var out []geo.LatLon
		for _, s := range it.segments {
			switch seg := s.(type) {
			case Stay:
				out = append(out, seg.At)
			case Move:
				out = append(out, seg.Along...)
			default:
				out = append(out, seg.PosAt(0), seg.End())
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	if d := NewItinerary(start).MaxDistanceFrom(origin); d != 0 {
		t.Fatalf("empty itinerary: MaxDistanceFrom = %v, want 0", d)
	}
	for trial := 0; trial < 200; trial++ {
		var segs []Segment
		cur := origin
		for k := rng.Intn(6); k >= 0; k-- {
			next := geo.Destination(origin, rng.Float64()*360, rng.Float64()*20000)
			switch rng.Intn(3) {
			case 0:
				segs = append(segs, Stay{At: next, For: time.Duration(1+rng.Intn(90)) * time.Minute})
			case 1:
				mid := geo.Destination(cur, rng.Float64()*360, rng.Float64()*5000)
				segs = append(segs, Move{Along: geo.Path{cur, mid, next}, SpeedKmh: 3 + rng.Float64()*60})
			default:
				segs = append(segs, glide{from: cur, to: next})
			}
			cur = next
		}
		it := NewItinerary(start, segs...)
		p := geo.Destination(origin, rng.Float64()*360, rng.Float64()*10000)
		want := 0.0
		for _, wp := range waypoints(it) {
			if d := geo.Distance(p, wp); d > want {
				want = d
			}
		}
		if got := it.MaxDistanceFrom(p); got != want {
			t.Fatalf("trial %d: MaxDistanceFrom = %v, waypoint maximum %v", trial, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { it.MaxDistanceFrom(p) }); allocs != 0 {
			t.Fatalf("trial %d: MaxDistanceFrom allocates %.1f times", trial, allocs)
		}
	}
}

func TestSpeedKmhAt(t *testing.T) {
	b := geo.Destination(origin, 90, 10000)
	it := NewItinerary(start, Move{Along: geo.Path{origin, b}, SpeedKmh: 20})
	got := SpeedKmhAt(it, start.Add(10*time.Minute), 10*time.Second)
	if math.Abs(got-20) > 0.5 {
		t.Errorf("speed = %.2f, want 20", got)
	}
	// Stationary phase.
	if v := SpeedKmhAt(it, it.End().Add(time.Hour), 10*time.Second); v > 0.01 {
		t.Errorf("post-end speed = %v", v)
	}
	// Default window.
	if v := SpeedKmhAt(it, start.Add(10*time.Minute), 0); math.Abs(v-20) > 0.5 {
		t.Errorf("default-window speed = %v", v)
	}
}

func TestItineraryMonotoneContinuous(t *testing.T) {
	// Positions along an itinerary should never jump more than the top
	// speed allows.
	rng := rand.New(rand.NewSource(3))
	box := geo.NewBBox(origin).Buffer(3000)
	it := RandomWaypoint(rng, box, 2, 30, 0, 10*time.Minute, start, 6*time.Hour)
	prev := it.Pos(start)
	for dt := time.Duration(0); dt < 6*time.Hour; dt += 10 * time.Second {
		cur := it.Pos(start.Add(dt))
		jump := geo.Distance(prev, cur)
		// 30 km/h for 10 s is ~83 m.
		if jump > 90 {
			t.Fatalf("position jumped %.1f m in 10 s at %v", jump, dt)
		}
		prev = cur
	}
}

func TestRandomWaypointStaysInBoxish(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	box := geo.NewBBox(origin).Buffer(2000)
	it := RandomWaypoint(rng, box, 3, 6, time.Minute, 5*time.Minute, start, 4*time.Hour)
	loose := box.Buffer(100)
	for dt := time.Duration(0); dt < 4*time.Hour; dt += time.Minute {
		p := it.Pos(start.Add(dt))
		if !loose.Contains(p) {
			t.Fatalf("wanderer escaped the box at %v: %v", dt, p)
		}
	}
	if it.End().Before(start.Add(4 * time.Hour)) {
		t.Error("itinerary should cover the horizon")
	}
}

func TestRandomWaypointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad speed range")
		}
	}()
	RandomWaypoint(rand.New(rand.NewSource(1)), geo.BBox{}, 0, 0, 0, 0, start, time.Hour)
}

func TestDailyRoutineCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	work := geo.Destination(origin, 45, 5000)
	cfg := RoutineConfig{Home: origin, Work: work}
	it := DailyRoutine(rng, cfg, start, 5) // Mon-Fri
	// At 3am every day: home.
	for d := 0; d < 5; d++ {
		p := it.Pos(start.Add(time.Duration(d)*24*time.Hour + 3*time.Hour))
		if geo.Distance(p, origin) > 1 {
			t.Errorf("day %d 03:00: not at home (%.0f m away)", d, geo.Distance(p, origin))
		}
	}
	// At 11am on weekdays: at (or very near) work.
	atWork := 0
	for d := 0; d < 5; d++ {
		p := it.Pos(start.Add(time.Duration(d)*24*time.Hour + 11*time.Hour))
		if geo.Distance(p, work) < 600 {
			atWork++
		}
	}
	if atWork < 4 {
		t.Errorf("only %d/5 weekdays at work at 11:00", atWork)
	}
}

func TestDailyRoutineWeekendOutdoor(t *testing.T) {
	// Across many residents, weekend midday should see more people away
	// from home than weekday midday overnight hours.
	awayAt := func(dayOffset int, hour int) int {
		away := 0
		for i := 0; i < 60; i++ {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			home := geo.Destination(origin, float64(i*7), float64(200+i*31))
			cfg := RoutineConfig{Home: home} // no work: weekday midday is home
			it := DailyRoutine(rng, cfg, start, 7)
			p := it.Pos(start.Add(time.Duration(dayOffset)*24*time.Hour + time.Duration(hour)*time.Hour))
			if geo.Distance(p, home) > 50 {
				away++
			}
		}
		return away
	}
	weekday := awayAt(1, 12) // Tuesday noon
	weekend := awayAt(5, 12) // Saturday noon
	if weekend <= weekday {
		t.Errorf("weekend away=%d should exceed weekday away=%d", weekend, weekday)
	}
}

func TestDailyRoutineNightAtHome(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := RoutineConfig{Home: origin, Work: geo.Destination(origin, 10, 3000)}
	it := DailyRoutine(rng, cfg, start, 7)
	for d := 0; d < 7; d++ {
		p := it.Pos(start.Add(time.Duration(d)*24*time.Hour + 4*time.Hour))
		if geo.Distance(p, origin) > 1 {
			t.Fatalf("day %d 04:00 not at home", d)
		}
	}
}

func TestDailyRoutineDeterministic(t *testing.T) {
	mk := func() *Itinerary {
		rng := rand.New(rand.NewSource(5))
		return DailyRoutine(rng, RoutineConfig{Home: origin, Work: geo.Destination(origin, 45, 4000)}, start, 3)
	}
	a, b := mk(), mk()
	for dt := time.Duration(0); dt < 72*time.Hour; dt += 17 * time.Minute {
		if a.Pos(start.Add(dt)) != b.Pos(start.Add(dt)) {
			t.Fatal("routine not deterministic")
		}
	}
}

func TestTravelLegModes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	short := travelLeg(rng, origin, geo.Destination(origin, 0, 300))
	if ClassifySpeed(short.SpeedKmh) != ClassPedestrian {
		t.Errorf("300 m leg speed %.1f should be pedestrian", short.SpeedKmh)
	}
	long := travelLeg(rng, origin, geo.Destination(origin, 0, 5000))
	if ClassifySpeed(long.SpeedKmh) != ClassTransit {
		t.Errorf("5 km leg speed %.1f should be transit", long.SpeedKmh)
	}
}

func BenchmarkItineraryPos(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := geo.NewBBox(origin).Buffer(5000)
	it := RandomWaypoint(rng, box, 3, 30, 0, 5*time.Minute, start, 24*time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Pos(start.Add(time.Duration(i%86400) * time.Second))
	}
}

func BenchmarkDailyRoutineGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		DailyRoutine(rng, RoutineConfig{Home: origin, Work: geo.Destination(origin, 45, 4000)}, start, 30)
	}
}
