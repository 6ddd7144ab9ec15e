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
	if len(it.rows) != 1 {
		t.Errorf("kept %d segments, want 1", len(it.rows))
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

// glide is a Segment other than Stay and Move: the table keeps it whole
// on the side, and Extent cannot bound it.
type glide struct{ from, to geo.LatLon }

func (g glide) Duration() time.Duration { return time.Minute }
func (g glide) PosAt(elapsed time.Duration) geo.LatLon {
	if elapsed <= 0 {
		return g.from
	}
	return g.to
}
func (g glide) End() geo.LatLon { return g.to }

// segItinerary is the segment-slice representation the compact table
// replaced, kept as its oracle: NewItinerary, Pos, TotalDistanceM and
// DistanceByClass as they read before the table.
type segItinerary struct {
	start    time.Time
	segments []Segment
	offsets  []time.Duration
	total    time.Duration
}

func newSegItinerary(start time.Time, segments ...Segment) *segItinerary {
	it := &segItinerary{start: start}
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

func (it *segItinerary) Pos(t time.Time) geo.LatLon {
	if len(it.segments) == 0 {
		return geo.LatLon{}
	}
	if !t.After(it.start) {
		return it.segments[0].PosAt(0)
	}
	elapsed := t.Sub(it.start)
	if elapsed >= it.total {
		return it.segments[len(it.segments)-1].End()
	}
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

func (it *segItinerary) TotalDistanceM() float64 {
	var total float64
	for _, s := range it.segments {
		if m, ok := s.(Move); ok {
			total += m.Along.Length()
		}
	}
	return total
}

func (it *segItinerary) DistanceByClass() map[SpeedClass]float64 {
	out := make(map[SpeedClass]float64)
	for _, s := range it.segments {
		if m, ok := s.(Move); ok {
			out[ClassifySpeed(m.SpeedKmh)] += m.Along.Length()
		}
	}
	return out
}

// randomSegments draws an itinerary's input with every shape the table
// encodes differently: Stays, Moves chained onto the previous segment's
// end (and the first Move, which has none), Moves that start elsewhere,
// multi-point Moves, glides, and degenerate segments NewItinerary skips.
func randomSegments(rng *rand.Rand) []Segment {
	var segs []Segment
	cur := geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000)
	for k := rng.Intn(12); k >= 0; k-- {
		next := geo.Destination(cur, rng.Float64()*360, rng.ExpFloat64()*1500)
		speed := 2 + rng.Float64()*40
		switch rng.Intn(9) {
		case 0, 1:
			segs = append(segs, Stay{At: cur, For: time.Duration(1+rng.Int63n(int64(2*time.Hour))) * time.Nanosecond})
			continue
		case 2, 3, 4: // chained onto the previous segment's end
			segs = append(segs, Move{Along: geo.Path{cur, next}, SpeedKmh: speed})
		case 5: // starts elsewhere
			from := geo.Destination(cur, rng.Float64()*360, 1+rng.Float64()*300)
			segs = append(segs, Move{Along: geo.Path{from, next}, SpeedKmh: speed})
		case 6: // multi-point
			mid := geo.Destination(cur, rng.Float64()*360, rng.Float64()*800)
			segs = append(segs, Move{Along: geo.Path{cur, mid, next}, SpeedKmh: speed})
		case 7:
			segs = append(segs, glide{from: cur, to: next})
		default: // degenerate: skipped, and the next Move chains past it
			segs = append(segs, Stay{At: next, For: 0}, Move{Along: geo.Path{cur, next}}, Move{Along: geo.Path{cur}, SpeedKmh: speed})
			continue
		}
		cur = next
	}
	return segs
}

// TestItineraryMatchesSegmentOracle pins the compact table to the
// segment slice it replaced, bit for bit: Pos before the start, at,
// just before and just after every segment boundary, inside every
// segment and after the end, and TotalDistanceM and DistanceByClass.
func TestItineraryMatchesSegmentOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	same := func(a, b geo.LatLon) bool {
		return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) && math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
	}
	chained, side := 0, 0
	for trial := 0; trial < 400; trial++ {
		segs := randomSegments(rng)
		it, want := NewItinerary(start, segs...), newSegItinerary(start, segs...)
		if len(it.rows) != len(want.segments) || it.total != want.total {
			t.Fatalf("trial %d: %d rows over %v, oracle %d segments over %v", trial, len(it.rows), it.total, len(want.segments), want.total)
		}
		for _, r := range it.rows {
			switch {
			case r.speed > 0:
				chained++
			case r.speed < 0:
				side++
			}
		}
		at := []time.Time{start.Add(-time.Hour), start.Add(-1), start, start.Add(1), it.End(), it.End().Add(time.Hour)}
		for k, off := range want.offsets {
			end := want.total
			if k+1 < len(want.offsets) {
				end = want.offsets[k+1]
			}
			at = append(at, start.Add(off-1), start.Add(off), start.Add(off+1),
				start.Add(off+time.Duration(rng.Int63n(int64(end-off)))), start.Add(end-1))
		}
		for _, when := range at {
			if got, w := it.Pos(when), want.Pos(when); !same(got, w) {
				t.Fatalf("trial %d: Pos(start%+v) = %v, oracle %v", trial, when.Sub(start), got, w)
			}
		}
		if got, w := it.TotalDistanceM(), want.TotalDistanceM(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("trial %d: TotalDistanceM = %v, oracle %v", trial, got, w)
		}
		got, w := it.DistanceByClass(), want.DistanceByClass()
		if len(got) != len(w) {
			t.Fatalf("trial %d: DistanceByClass = %v, oracle %v", trial, got, w)
		}
		for c, m := range w {
			if math.Float64bits(got[c]) != math.Float64bits(m) {
				t.Fatalf("trial %d: DistanceByClass[%v] = %v, oracle %v", trial, c, got[c], m)
			}
		}
	}
	if chained == 0 || side == 0 {
		t.Fatalf("randomized itineraries lack a row kind: %d chained moves, %d side segments", chained, side)
	}
}

// TestItineraryExtentHoldsPositions: every position an itinerary takes
// in a window lies in Extent's box, up to the great-circle bow of a leg
// no longer than the reported longest. Only a glide, which nothing
// bounds, makes Extent fail.
func TestItineraryExtentHoldsPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const mPerDeg = geo.EarthRadiusMeters * math.Pi / 180
	failed := 0
	for trial := 0; trial < 300; trial++ {
		segs := randomSegments(rng)
		hasGlide := false
		for _, s := range segs {
			_, g := s.(glide)
			hasGlide = hasGlide || g
		}
		it := NewItinerary(start, segs...)
		for k := 0; k < 20 && it.total > 1; k++ {
			e := 1 + time.Duration(rng.Int63n(int64(it.total-1)))
			if hint := rng.Intn(len(it.rows)+2) - 1; it.rowFrom(hint, e) != it.rowAt(e) {
				t.Fatalf("trial %d: rowFrom(%d, %v) = %d, rowAt %d", trial, hint, e, it.rowFrom(hint, e), it.rowAt(e))
			}
		}
		for w := 0; w < 20; w++ {
			from := start.Add(time.Duration(rng.Int63n(int64(it.total+4*time.Hour))) - 2*time.Hour)
			to := from.Add(time.Duration(1 + rng.Int63n(int64(90*time.Minute))))
			sp := it.Extent(from, to, rng.Intn(len(it.rows)+2)-1)
			if fresh := it.Extent(from, to, 0); fresh != sp || sp.Row < 0 || sp.Row >= max(len(it.rows), 1) {
				t.Fatalf("trial %d: Extent depends on its hint, or returned row %d of %d", trial, sp.Row, len(it.rows))
			}
			if !sp.OK {
				if !hasGlide {
					t.Fatalf("trial %d: Extent failed on an itinerary without a glide", trial)
				}
				failed++
				continue
			}
			// Later windows that close by Until share the span's box.
			if sp.Until.After(to) {
				later := to.Add(time.Duration(rng.Int63n(int64(min(sp.Until.Sub(to), 48*time.Hour)) + 1)))
				if next := it.Extent(to.Add(-1), later, sp.Row); next.Box != sp.Box {
					t.Fatalf("trial %d: window closing at %v, before Until %v, has box %+v, not %+v", trial, later, sp.Until, next.Box, sp.Box)
				}
			}
			box, longest := sp.Box, sp.LongestM
			for k := 0; k <= 200; k++ {
				when := from.Add(time.Duration(float64(to.Sub(from)-1) * float64(k) / 200))
				p := it.Pos(when)
				bow := longest*longest/(8*geo.EarthRadiusMeters)*math.Tan(math.Abs(p.Lat)*math.Pi/180) + 1e-6
				if p.Lon < box.MinLon || p.Lon > box.MaxLon ||
					(box.MinLat-p.Lat)*mPerDeg > bow || (p.Lat-box.MaxLat)*mPerDeg > bow {
					t.Fatalf("trial %d: Pos(start%+v) = %v outside Extent %+v (longest %.1f m)", trial, when.Sub(start), p, box, longest)
				}
			}
		}
	}
	if failed == 0 {
		t.Error("no window held a glide")
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
