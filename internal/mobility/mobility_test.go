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
	b := NewBuilder(start, origin)
	d := b.MoveTo(dest, 3.6) // 1 m/s
	if math.Abs(d.Seconds()-1000) > 1 {
		t.Fatalf("MoveTo = %v, want ~1000s", d)
	}
	if b.Pos() != dest || b.Elapsed() != d {
		t.Error("builder does not stand at the leg's end after it")
	}
	it := b.Build()
	mid := it.Pos(start.Add(500 * time.Second))
	if d := geo.Distance(origin, mid); math.Abs(d-500) > 2 {
		t.Errorf("Pos(500s) is %.1f m along, want 500", d)
	}
	if it.Pos(it.End()) != dest {
		t.Error("leg does not end at its destination")
	}
	// A zero-speed leg is degenerate: no time, no row, no movement.
	z := NewBuilder(start, origin)
	if z.MoveTo(dest, 0) != 0 || z.Pos() != origin || len(z.Build().rows) != 0 {
		t.Error("zero-speed leg must take no time and leave the builder in place")
	}
}

func TestItineraryPos(t *testing.T) {
	a := origin
	b := geo.Destination(a, 90, 360) // 6 min at 3.6 km/h
	bl := NewBuilder(start, a)
	bl.Stay(10 * time.Minute)
	bl.MoveTo(b, 3.6)
	bl.Stay(10 * time.Minute)
	it := bl.Build()
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
	b := NewBuilder(start, origin)
	b.Stay(0)
	b.MoveTo(origin, 5)                          // no distance
	b.MoveTo(geo.Destination(origin, 0, 100), 0) // no speed
	b.StayUntil(-time.Minute)                    // already passed
	b.Stay(time.Minute)
	if it := b.Build(); len(it.rows) != 1 || it.total != time.Minute {
		t.Errorf("kept %d rows over %v, want 1 over 1m", len(it.rows), it.total)
	}
}

func TestEmptyItinerary(t *testing.T) {
	it := NewBuilder(start, origin).Build()
	if it.Pos(start.Add(-time.Hour)) != origin || it.Pos(start) != origin || it.Pos(start.Add(time.Hour)) != origin {
		t.Error("empty itinerary should stay at its origin")
	}
	if !it.End().Equal(start) {
		t.Error("empty itinerary ends at start")
	}
	if sp := it.Extent(start.Add(-time.Hour), start.Add(time.Hour), 0); sp.Box != geo.NewBBox(origin) || sp.Row != 0 || sp.LongestM != 0 {
		t.Errorf("empty itinerary's extent %+v is not its origin", sp)
	}
}

func TestItineraryDistances(t *testing.T) {
	b := geo.Destination(origin, 0, 1000)
	c := geo.Destination(b, 0, 2000)
	bl := NewBuilder(start, origin)
	bl.MoveTo(b, 5)  // walk 1 km
	bl.MoveTo(c, 30) // transit 2 km
	bl.Stay(time.Hour)
	it := bl.Build()
	byClass := it.DistanceByClass()
	if math.Abs(byClass[ClassPedestrian]-1000) > 5 {
		t.Errorf("pedestrian distance = %.1f", byClass[ClassPedestrian])
	}
	if math.Abs(byClass[ClassTransit]-2000) > 5 {
		t.Errorf("transit distance = %.1f", byClass[ClassTransit])
	}
}

// segment, stay and move are the boxed segments itineraries were built
// from before Builder, kept here as the table's oracle.
type segment interface {
	Duration() time.Duration
	PosAt(elapsed time.Duration) geo.LatLon
	End() geo.LatLon
}

type stay struct {
	At  geo.LatLon
	For time.Duration
}

func (s stay) Duration() time.Duration        { return s.For }
func (s stay) PosAt(time.Duration) geo.LatLon { return s.At }
func (s stay) End() geo.LatLon                { return s.At }

type move struct {
	Along    geo.Path
	SpeedKmh float64
}

func (m move) Duration() time.Duration {
	if m.SpeedKmh <= 0 {
		return 0
	}
	sec := m.Along.Length() / geo.KmhToMs(m.SpeedKmh)
	return time.Duration(sec * float64(time.Second))
}

func (m move) PosAt(elapsed time.Duration) geo.LatLon {
	return m.Along.At(geo.KmhToMs(m.SpeedKmh) * elapsed.Seconds())
}

func (m move) End() geo.LatLon { return m.Along[len(m.Along)-1] }

// segItinerary is the segment-slice representation the compact table
// replaced: NewItinerary, Pos and DistanceByClass as
// they read before the table.
type segItinerary struct {
	start    time.Time
	segments []segment
	offsets  []time.Duration
	total    time.Duration
}

func newSegItinerary(start time.Time, segments ...segment) *segItinerary {
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

func (it *segItinerary) DistanceByClass() map[SpeedClass]float64 {
	out := make(map[SpeedClass]float64)
	for _, s := range it.segments {
		if m, ok := s.(move); ok {
			out[ClassifySpeed(m.SpeedKmh)] += m.Along.Length()
		}
	}
	return out
}

// replay draws a random itinerary's builder operations and applies each
// to b and, as the segment it stands for, to the returned oracle input:
// stays (some until a moment already passed), legs chained onto the
// last one (an itinerary may open with one), and legs that take no time
// because they go nowhere or have no speed. A no-op leg leaves both where
// they stood. It fails t if MoveTo's duration or the builder's position
// or clock leave the oracle's.
func replay(t *testing.T, rng *rand.Rand, b *Builder) (segs []segment, noops int) {
	t.Helper()
	cur := b.Pos()
	var clock time.Duration
	for k := rng.Intn(12); k >= 0; k-- {
		switch rng.Intn(8) {
		case 0, 1:
			d := time.Duration(1+rng.Int63n(int64(2*time.Hour))) * time.Nanosecond
			b.Stay(d)
			segs = append(segs, stay{At: cur, For: d})
			clock += d
		case 2:
			until := clock + time.Duration(rng.Int63n(int64(2*time.Hour))) - time.Hour
			b.StayUntil(until)
			if until > clock {
				segs = append(segs, stay{At: cur, For: until - clock})
				clock = until
			} else {
				noops++
			}
		case 3, 4, 5:
			next := geo.Destination(cur, rng.Float64()*360, rng.ExpFloat64()*1500)
			mv := move{Along: geo.Path{cur, next}, SpeedKmh: 2 + rng.Float64()*40}
			if got, want := b.MoveTo(next, mv.SpeedKmh), mv.Duration(); got != want {
				t.Fatalf("MoveTo took %v, oracle %v", got, want)
			}
			segs = append(segs, mv)
			clock += mv.Duration()
			cur = next
		default: // takes no time: skipped, and the next leg chains past it
			mv := move{Along: geo.Path{cur, cur}, SpeedKmh: 2 + rng.Float64()*40}
			if rng.Intn(2) == 0 {
				mv = move{Along: geo.Path{cur, geo.Destination(cur, rng.Float64()*360, 1+rng.Float64()*300)}}
			}
			if b.MoveTo(mv.End(), mv.SpeedKmh) != 0 || mv.Duration() != 0 {
				t.Fatalf("a leg of %.1f m at %.1f km/h took time", mv.Along.Length(), mv.SpeedKmh)
			}
			segs = append(segs, mv)
			noops++
		}
		if b.Pos() != cur || b.Elapsed() != clock {
			t.Fatalf("builder at %v after %v, oracle at %v after %v", b.Pos(), b.Elapsed(), cur, clock)
		}
	}
	return segs, noops
}

// TestItineraryMatchesSegmentOracle pins the table Builder fills to the
// segment slice it replaced, bit for bit: Pos before the start, at,
// just before and just after every row boundary, inside every row and
// after the end, and DistanceByClass. Each itinerary
// is checked again after the next one is built, as builders grow their
// rows in shared scratch.
func TestItineraryMatchesSegmentOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	same := func(a, b geo.LatLon) bool {
		return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) && math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
	}
	check := func(trial int, it *Itinerary, want *segItinerary) {
		t.Helper()
		if len(it.rows) != len(want.segments) || it.total != want.total {
			t.Fatalf("trial %d: %d rows over %v, oracle %d segments over %v", trial, len(it.rows), it.total, len(want.segments), want.total)
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
			got, w := it.Pos(when), want.Pos(when)
			if len(want.segments) == 0 {
				w = it.origin // the oracle had no origin to report
			}
			if !same(got, w) {
				t.Fatalf("trial %d: Pos(start%+v) = %v, oracle %v", trial, when.Sub(start), got, w)
			}
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
	chained, first, noops := 0, 0, 0
	var prev *Itinerary
	var prevWant *segItinerary
	for trial := 0; trial < 400; trial++ {
		b := NewBuilder(start, geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000))
		segs, n := replay(t, rng, b)
		noops += n
		it, want := b.Build(), newSegItinerary(start, segs...)
		check(trial, it, want)
		if prev != nil {
			check(trial-1, prev, prevWant)
		}
		prev, prevWant = it, want
		for i, r := range it.rows {
			switch {
			case r.speed > 0 && i == 0:
				first++
			case r.speed > 0:
				chained++
			}
		}
	}
	if chained == 0 || first == 0 || noops == 0 {
		t.Fatalf("randomized itineraries lack a shape: %d chained legs, %d opening legs, %d no-ops", chained, first, noops)
	}
}

// TestItineraryExtentHoldsPositions: every position an itinerary takes
// in a window lies in Extent's box, up to the great-circle bow of a leg
// no longer than the reported longest.
func TestItineraryExtentHoldsPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const mPerDeg = geo.EarthRadiusMeters * math.Pi / 180
	for trial := 0; trial < 300; trial++ {
		b := NewBuilder(start, geo.Destination(origin, rng.Float64()*360, rng.Float64()*5000))
		replay(t, rng, b)
		it := b.Build()
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
}

// randomWaypoint builds a wanderer inside a box: pick a point, go there
// at a speed drawn from [minKmh, maxKmh], pause up to maxPause, repeat
// until the horizon is covered.
func randomWaypoint(rng *rand.Rand, box geo.BBox, minKmh, maxKmh float64, maxPause, horizon time.Duration) *Itinerary {
	randPoint := func() geo.LatLon {
		return geo.LatLon{
			Lat: box.MinLat + rng.Float64()*(box.MaxLat-box.MinLat),
			Lon: box.MinLon + rng.Float64()*(box.MaxLon-box.MinLon),
		}
	}
	b := NewBuilder(start, randPoint())
	for b.Elapsed() < horizon {
		b.MoveTo(randPoint(), minKmh+rng.Float64()*(maxKmh-minKmh))
		b.Stay(time.Duration(rng.Int63n(int64(maxPause))))
	}
	return b.Build()
}

func TestItineraryMonotoneContinuous(t *testing.T) {
	// Positions along an itinerary should never jump more than the top
	// speed allows.
	rng := rand.New(rand.NewSource(3))
	box := geo.NewBBox(origin).Buffer(3000)
	it := randomWaypoint(rng, box, 2, 30, 10*time.Minute, 6*time.Hour)
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
	short := travelSpeed(rng, origin, geo.Destination(origin, 0, 300))
	if ClassifySpeed(short) != ClassPedestrian {
		t.Errorf("300 m leg speed %.1f should be pedestrian", short)
	}
	long := travelSpeed(rng, origin, geo.Destination(origin, 0, 5000))
	if ClassifySpeed(long) != ClassTransit {
		t.Errorf("5 km leg speed %.1f should be transit", long)
	}
}

func BenchmarkItineraryPos(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	box := geo.NewBBox(origin).Buffer(5000)
	it := randomWaypoint(rng, box, 3, 30, 5*time.Minute, 24*time.Hour)
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
