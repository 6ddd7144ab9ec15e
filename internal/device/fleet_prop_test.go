package device

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// randomFleet builds a fleet around origin whose hours start at t0, with
// randomFleetAt's mix of mobility shapes.
func randomFleet(rng *rand.Rand, n int, spreadM float64) *Fleet {
	return randomFleetAt(rng, n, spreadM, origin, t0)
}

// randomFleetAt builds a fleet with every bound shape the hour slices
// meet: stationary homes; local wanders of short legs (gridded); transit
// rides of 1-2 km legs with stops (gridded in quiet hours, over the
// cutoff box in busy ones); long-haul legs over the leg cutoff; unknown
// mobility models; and bounded active windows, opening and closing
// mid-hour. Itineraries start within an hour of base.
func randomFleetAt(rng *rand.Rand, n int, spreadM float64, center geo.LatLon, base time.Time) *Fleet {
	devices := make([]*Device, n)
	for i := range devices {
		home := geo.Destination(center, rng.Float64()*360, rng.Float64()*spreadM)
		begin := base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		var m mobility.Model
		switch rng.Intn(10) {
		case 0: // unknown model: no bound
			m = weirdModel{}
		case 1: // long-haul leg, over the leg cutoff
			far := geo.Destination(home, rng.Float64()*360, 5000+rng.Float64()*40000)
			b := mobility.NewBuilder(begin, home)
			b.MoveTo(far, 40+rng.Float64()*40)
			b.Stay(4 * time.Hour)
			m = b.Build()
		case 2: // transit ride
			b := mobility.NewBuilder(begin, home)
			bearing := rng.Float64() * 360
			for k := 0; k < 6; k++ {
				next := geo.Destination(b.Pos(), bearing+rng.NormFloat64()*20, 1000+rng.Float64()*1000)
				b.MoveTo(next, 20+rng.Float64()*30)
				b.Stay(time.Duration(30+rng.Intn(60)) * time.Second)
			}
			m = b.Build()
		case 3, 4, 5: // local wander
			b := mobility.NewBuilder(begin, home)
			for k := 0; k < 3; k++ {
				next := geo.Destination(home, rng.Float64()*360, rng.Float64()*400)
				b.MoveTo(next, 3+rng.Float64()*3)
				b.Stay(time.Duration(1+rng.Intn(60)) * time.Minute)
			}
			m = b.Build()
		default:
			m = mobility.Stationary(home)
		}
		d := New(fmt.Sprintf("dev-%04d", i), trace.VendorApple, home, m)
		if rng.Intn(5) == 0 { // bounded active window
			d.ActiveFrom = base.Add(time.Duration(rng.Int63n(int64(2 * time.Hour))))
			d.ActiveTo = d.ActiveFrom.Add(time.Duration(1 + rng.Int63n(int64(3*time.Hour))))
		}
		devices[i] = d
	}
	return NewFleet(center, devices)
}

// coverage tallies what the property queries exercised, so a test can
// fail when its randomization stops reaching a path.
type coverage struct {
	queries, candidates, active int
	gridded, checked            int // members bucketed / always checked, summed over builds
}

// checkCovers runs one query through Near and a Searcher and checks the
// index's contract against the exact oracle NearBrute: the candidates
// hold every device in range, hold only devices active at the instant,
// ascend strictly, agree between the two query streams, and leave both
// bitmaps clear.
func checkCovers(t *testing.T, f *Fleet, s *Searcher, pos geo.LatLon, at time.Time, radius float64, cov *coverage) {
	t.Helper()
	got := f.NearIndices(pos, at, radius, nil)
	idx := s.NearIndices(pos, at, radius, nil)
	devs := f.Devices()
	if len(got) != len(idx) {
		t.Fatalf("query %v at %v r=%.0f: Near %d candidates, Searcher %d", pos, at, radius, len(got), len(idx))
	}
	for k := range got {
		if got[k] != idx[k] {
			t.Fatalf("query %v at %v r=%.0f: candidate %d is %d from Near, %d from the Searcher", pos, at, radius, k, got[k], idx[k])
		}
		if k > 0 && got[k] <= got[k-1] {
			t.Fatalf("query %v at %v r=%.0f: candidates not ascending: %v", pos, at, radius, got)
		}
		if !devs[got[k]].Active(at) {
			t.Fatalf("query %v at %v r=%.0f: candidate %s is not active", pos, at, radius, devs[got[k]].ID)
		}
	}
	k := 0
	for _, d := range f.NearBrute(pos, at, radius, nil) {
		for k < len(got) && devs[got[k]] != d {
			k++
		}
		if k == len(got) {
			t.Fatalf("query %v at %v r=%.0f: %s at %v (%.3f m away) is in range but not a candidate",
				pos, at, radius, d.ID, d.Pos(at), geo.Distance(d.Pos(at), pos))
		}
	}
	for w, word := range append(f.own.mark, s.s.mark...) {
		if word != 0 {
			t.Fatalf("query %v at %v: bitmap word %d left set", pos, at, w)
		}
	}
	cov.queries++
	cov.candidates += len(got)
	for _, d := range devs {
		if d.Active(at) {
			cov.active++
		}
	}
}

// TestNearCoversOracle is the index's correctness property: on random
// fleets at several latitudes (high ones included, and straddling the
// antimeridian), at random instants, on hour boundaries and a
// nanosecond either side, with radii from 1 m to 20 km, Near and a
// Searcher return a superset of the devices in range, in ascending
// order, active only. Half the queries stand on a device's own
// position, so every bound is tested where its device really is — on
// a leg, the great-circle bow included.
func TestNearCoversOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	centers := []geo.LatLon{origin, {Lat: 52.52, Lon: 13.405}, {Lat: -33.87, Lon: 151.21}, {Lat: 79.5, Lon: 15.6}, {Lat: -17.7, Lon: 179.99}}
	var cov coverage
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		spread := []float64{300, 3000, 30000}[rng.Intn(3)]
		center := centers[trial%len(centers)]
		f := randomFleetAt(rng, n, spread, center, t0)
		s := f.Searcher()
		devs := f.Devices()
		for q := 0; q < 40; q++ {
			at := t0.Add(time.Duration(rng.Int63n(int64(6 * time.Hour))))
			if q%4 == 0 {
				at = t0.Add(time.Duration(rng.Intn(7))*time.Hour + time.Duration(rng.Intn(3)-1))
			}
			pos := geo.Destination(center, rng.Float64()*360, rng.Float64()*spread*1.5)
			if q%2 == 0 {
				pos = devs[rng.Intn(n)].Pos(at)
			}
			radius := []float64{1, 50, 120, 1000, 20000}[rng.Intn(5)]
			checkCovers(t, f, s, pos, at, radius, &cov)
			cov.gridded += len(s.s.grid)
			cov.checked += len(s.s.check)
		}
	}
	if cov.gridded == 0 || cov.checked == 0 {
		t.Errorf("queries met %d gridded and %d always-checked members; want both", cov.gridded, cov.checked)
	}
	if cov.candidates*2 > cov.active {
		t.Errorf("the index pruned little: %d candidates for %d active devices over %d queries", cov.candidates, cov.active, cov.queries)
	}
}

// TestNearBeforeEpoch: hours before 1970 floor rather than truncate,
// and itineraries and windows straddling the epoch are still covered.
func TestNearBeforeEpoch(t *testing.T) {
	if h := sliceOf(time.Unix(0, -1)); h != -1 {
		t.Fatalf("sliceOf(-1 ns) = %d, want -1", h)
	}
	if h := sliceOf(time.Unix(0, -sliceNs)); h != -1 {
		t.Fatalf("sliceOf(-1 h) = %d, want -1", h)
	}
	base := time.Unix(0, 0).Add(-2 * time.Hour)
	rng := rand.New(rand.NewSource(1970))
	var cov coverage
	for trial := 0; trial < 20; trial++ {
		f := randomFleetAt(rng, 1+rng.Intn(300), 3000, origin, base)
		s := f.Searcher()
		devs := f.Devices()
		for q := 0; q < 40; q++ {
			at := base.Add(time.Duration(rng.Intn(5))*time.Hour + time.Duration(rng.Intn(3)-1))
			if q%2 == 0 {
				at = base.Add(time.Duration(rng.Int63n(int64(4 * time.Hour))))
			}
			pos := devs[rng.Intn(len(devs))].Pos(at)
			checkCovers(t, f, s, pos, at, []float64{1, 120, 2000}[rng.Intn(3)], &cov)
		}
	}
}

// TestNearGridOverflowOnly: a fleet whose every member has an unknown
// mobility model grids nobody, and the always-checked list must still
// answer everywhere.
func TestNearGridOverflowOnly(t *testing.T) {
	devices := []*Device{}
	for i := 0; i < 8; i++ {
		d := New(fmt.Sprintf("inf-%d", i), trace.VendorApple, origin, weirdModel{})
		devices = append(devices, d)
	}
	f := NewFleet(origin, devices)
	if got := f.Near(origin, t0, 100, nil); len(got) != 8 {
		t.Errorf("always-checked devices lost, got %d/8", len(got))
	}
	if len(f.own.grid) != 0 || len(f.own.check) != 8 {
		t.Fatalf("hour slice grids %d and checks %d devices, want 0 and 8", len(f.own.grid), len(f.own.check))
	}
	far := geo.Destination(origin, 45, 1e6)
	if got := f.Near(far, t0, 10, nil); len(got) != 8 {
		t.Errorf("unbounded devices must always be candidates, got %d/8", len(got))
	}
}

// TestNearAllocationFree: after the first query warms the buffers, Near
// must not allocate — it runs thousands of times per simulated day.
func TestNearAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randomFleet(rng, 500, 5000)
	buf := make([]*Device, 0, 600)
	pos := geo.Destination(origin, 10, 800)
	buf = f.Near(pos, t0, 120, buf[:0]) // warm scratch + dst
	allocs := testing.AllocsPerRun(50, func() {
		buf = f.Near(pos, t0, 120, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Near allocates %.1f times per query, want 0", allocs)
	}
}

// windowedFleet builds a fleet in which every device has a bounded
// active window, as the cafeteria's visits do. t0 is on an hour, so
// slice edges fall on t0 + k hours; windows start on, just before and
// just after those edges and last from a minute to five hours, so many
// straddle one or several edges. A few windows are empty (ActiveTo not
// after ActiveFrom). spreadM 30 is the cafeteria (every visitor in one
// cell); larger spreads spread them over cells.
func windowedFleet(rng *rand.Rand, n int, spreadM float64) *Fleet {
	devices := make([]*Device, n)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spreadM)
		d := New(fmt.Sprintf("vis-%04d", i), trace.VendorApple, home, mobility.Stationary(home))
		from := t0.Add(time.Duration(rng.Intn(48)) * time.Hour)
		switch rng.Intn(4) {
		case 0: // on an edge
		case 1:
			from = from.Add(-time.Duration(1 + rng.Intn(int(time.Minute))))
		default:
			from = from.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		}
		if i == 0 {
			from = t0
		}
		d.ActiveFrom = from
		switch rng.Intn(20) {
		case 0: // empty window
			d.ActiveTo = from.Add(-time.Duration(rng.Intn(2)) * time.Minute)
		case 1: // closes exactly on an edge
			d.ActiveTo = t0.Add(from.Sub(t0).Truncate(time.Hour) + time.Duration(1+rng.Intn(3))*time.Hour)
		default:
			d.ActiveTo = from.Add(time.Minute + time.Duration(rng.Int63n(int64(5*time.Hour))))
		}
		devices[i] = d
	}
	return NewFleet(origin, devices)
}

// TestNearWindowedCoversOracle: on fully windowed random fleets (the
// cafeteria's shape), Near covers the oracle at window opens (active),
// window closes (inactive), a nanosecond either side, hour edges, before
// the first window and after the last.
func TestNearWindowedCoversOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var cov coverage
	members, devices := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		spread := []float64{30, 30, 3000}[rng.Intn(3)]
		f := windowedFleet(rng, n, spread)
		devs := f.Devices()
		last := t0
		for _, d := range devs {
			if d.ActiveTo.After(last) {
				last = d.ActiveTo
			}
		}
		var at []time.Time
		for k := 0; k < 30; k++ {
			d := devs[rng.Intn(n)]
			at = append(at, d.ActiveFrom, d.ActiveTo, d.ActiveFrom.Add(-1), d.ActiveTo.Add(-1),
				t0.Add(time.Duration(rng.Intn(60))*time.Hour))
		}
		at = append(at, t0.Add(-time.Minute), t0.Add(-1), last.Add(-1), last, last.Add(time.Hour))
		s := f.Searcher()
		for _, when := range at {
			pos := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spread*1.5)
			radius := []float64{1, 50, 120, 20000}[rng.Intn(4)]
			checkCovers(t, f, s, pos, when, radius, &cov)
			members += len(s.s.live)
			devices += n
		}
	}
	// Visits last at most five hours of the fleet's two days, so an
	// hour's slice should leave most of them out.
	if members*4 > devices {
		t.Errorf("hour slices held %d members over queries totalling %d devices", members, devices)
	}
}

// TestNearActivityBoundaries pins the window semantics on the indexed
// path: a visitor is a candidate from ActiveFrom inclusive to ActiveTo
// exclusive, and nobody is before the first window or after the last.
func TestNearActivityBoundaries(t *testing.T) {
	a := New("a", trace.VendorApple, origin, mobility.Stationary(origin))
	a.ActiveFrom, a.ActiveTo = t0, t0.Add(90*time.Minute)
	b := New("b", trace.VendorApple, origin, mobility.Stationary(origin))
	b.ActiveFrom, b.ActiveTo = t0.Add(time.Hour), t0.Add(3*time.Hour)
	f := NewFleet(origin, []*Device{a, b})
	for _, tc := range []struct {
		at   time.Time
		want string
	}{
		{t0.Add(-1), ""},
		{t0, "a"},
		{t0.Add(time.Hour - 1), "a"},
		{t0.Add(time.Hour), "ab"},
		{t0.Add(90*time.Minute - 1), "ab"},
		{t0.Add(90 * time.Minute), "b"},
		{t0.Add(3*time.Hour - 1), "b"},
		{t0.Add(3 * time.Hour), ""},
		{t0.Add(48 * time.Hour), ""},
	} {
		got := ""
		for _, d := range f.Near(origin, tc.at, 10, nil) {
			got += d.ID
		}
		if got != tc.want {
			t.Errorf("at t0%+v: candidates %q, want %q", tc.at.Sub(t0), got, tc.want)
		}
	}
}

// TestNearWindowEdges puts devices just inside the radius in every
// direction of queries a few degrees of latitude from a high-latitude
// origin, where the plane's east-west scale is off by several percent,
// and a device mid-way along an east-west leg whose great circle bows
// poleward of its endpoints' latitudes, queried at its own position
// with a radius under the bow.
func TestNearWindowEdges(t *testing.T) {
	center := geo.LatLon{Lat: 70, Lon: 20}
	for _, lat := range []float64{67.5, 69.9, 70, 71, 72.5} {
		for _, r := range []float64{1, 120, 2000, 20000} {
			q := geo.LatLon{Lat: lat, Lon: 21.3}
			var devices []*Device
			for k := 0; k < 16; k++ {
				p := geo.Destination(q, float64(k)*22.5, r*(1-1e-6))
				devices = append(devices, New(fmt.Sprintf("edge-%d", k), trace.VendorApple, p, mobility.Stationary(p)))
			}
			f := NewFleet(center, devices)
			var cov coverage
			checkCovers(t, f, f.Searcher(), q, t0, r, &cov)
			if cov.candidates != cov.active {
				t.Fatalf("lat %v r %v: %d of %d devices just inside the radius are candidates", lat, r, cov.candidates, cov.active)
			}
		}
	}

	west, east := geo.LatLon{Lat: 79, Lon: 15}, geo.LatLon{Lat: 79, Lon: 15.113} // 2.4 km apart
	b := mobility.NewBuilder(t0, west)
	b.MoveTo(east, 4.8)
	leg := b.Build()
	mid := t0.Add(leg.End().Sub(t0) / 2)
	if bow := (leg.Pos(mid).Lat - max(west.Lat, east.Lat)) * math.Pi / 180 * geo.EarthRadiusMeters; bow < 0.3 {
		t.Fatalf("the leg bows only %.3f m past its endpoints", bow)
	}
	f := NewFleet(west, []*Device{New("leg", trace.VendorApple, west, leg)})
	if got := f.NearIndices(leg.Pos(mid), mid, 0.1, nil); len(got) != 1 {
		t.Fatalf("a device mid-leg is not a candidate at its own position")
	}
}
