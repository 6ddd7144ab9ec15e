package device

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// randomFleet builds a fleet with every roam-bound shape the simulator
// produces: stationary homes (small bound), itineraries from short
// wanders to long-haul rides (the roaming tail that lands in overflow),
// unknown mobility models (infinite bound), and devices with bounded
// active windows.
func randomFleet(rng *rand.Rand, n int, spreadM float64) *Fleet {
	devices := make([]*Device, n)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spreadM)
		var m mobility.Model
		switch rng.Intn(10) {
		case 0: // unknown model: infinite roam bound
			m = weirdModel{}
		case 1, 2: // long-haul itinerary: outsized roam, overflow candidate
			far := geo.Destination(home, rng.Float64()*360, 5000+rng.Float64()*40000)
			m = mobility.NewItinerary(t0,
				mobility.Move{Along: geo.Path{home, far}, SpeedKmh: 40 + rng.Float64()*40},
				mobility.Stay{At: far, For: 4 * time.Hour},
			)
		case 3, 4, 5: // local wander
			var segs []mobility.Segment
			cur := home
			for k := 0; k < 3; k++ {
				next := geo.Destination(home, rng.Float64()*360, rng.Float64()*400)
				segs = append(segs,
					mobility.Move{Along: geo.Path{cur, next}, SpeedKmh: 3 + rng.Float64()*3},
					mobility.Stay{At: next, For: time.Duration(1+rng.Intn(60)) * time.Minute})
				cur = next
			}
			m = mobility.NewItinerary(t0, segs...)
		default:
			m = mobility.Stationary(home)
		}
		d := New(fmt.Sprintf("dev-%04d", i), trace.VendorApple, home, m)
		if rng.Intn(5) == 0 { // bounded active window
			d.ActiveFrom = t0.Add(time.Duration(rng.Intn(120)) * time.Minute)
			d.ActiveTo = d.ActiveFrom.Add(time.Duration(1+rng.Intn(180)) * time.Minute)
		}
		devices[i] = d
	}
	return NewFleet(origin, devices)
}

// TestNearGridMatchesBrute is the index's correctness property: for
// randomized fleets, query points, radii, and times, the grid-indexed
// Near — and the concurrent Searcher's NearIndices — return exactly the
// brute-force scan's candidates in exactly its order, including inactive
// devices, infinite roam bounds and fleets whose grid coexists with a
// non-empty overflow list. Order matters: the encounter plane draws from
// one RNG stream per scan, so a reordered candidate set would silently
// change simulation output.
func TestNearGridMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	mixed := 0 // fleets with both grid cells and overflow devices
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		spread := []float64{300, 3000, 30000}[rng.Intn(3)]
		f := randomFleet(rng, n, spread)
		st := f.GridStats()
		if trial == 0 && st.Cells == 0 {
			t.Fatal("grid was not built for the first randomized fleet")
		}
		if st.Cells > 0 && st.Overflow > 0 {
			mixed++
		}
		devs := f.Devices()
		s := f.Searcher()
		var idx []int32
		for q := 0; q < 25; q++ {
			pos := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spread*1.5)
			radius := []float64{1, 50, 120, 1000, 20000}[rng.Intn(5)]
			at := t0.Add(time.Duration(rng.Intn(6*60)) * time.Minute)
			got := f.Near(pos, at, radius, nil)
			want := f.NearBrute(pos, at, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (n=%d spread=%.0f r=%.0f): grid %d candidates, brute %d",
					trial, q, n, spread, radius, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d query %d: candidate %d is %s, brute has %s (order or set diverged)",
						trial, q, i, got[i].ID, want[i].ID)
				}
			}
			idx = s.NearIndices(pos, at, radius, idx[:0])
			if len(idx) != len(want) {
				t.Fatalf("trial %d query %d: searcher %d candidates, brute %d", trial, q, len(idx), len(want))
			}
			for i, di := range idx {
				if devs[di] != want[i] {
					t.Fatalf("trial %d query %d: searcher candidate %d is %s, brute has %s",
						trial, q, i, devs[di].ID, want[i].ID)
				}
			}
			// The grid path must hand its bitmap back clear, or the next
			// query tests stale devices.
			for w, word := range append(f.mark, s.mark...) {
				if word != 0 {
					t.Fatalf("trial %d query %d: bitmap word %d left set after the query", trial, q, w)
				}
			}
		}
	}
	if mixed == 0 {
		t.Error("no randomized fleet combined grid cells with a non-empty overflow list")
	}
}

// TestNearGridOverflowOnly: a fleet whose every member has an unbounded
// roam builds no grid, and the nil-grid linear fallback must still
// answer correctly.
func TestNearGridOverflowOnly(t *testing.T) {
	devices := []*Device{}
	for i := 0; i < 8; i++ {
		d := New(fmt.Sprintf("inf-%d", i), trace.VendorApple, origin, weirdModel{})
		devices = append(devices, d)
	}
	f := NewFleet(origin, devices)
	if st := f.GridStats(); st.Cells != 0 {
		t.Fatalf("grid built over an all-unbounded fleet: %+v", st)
	}
	if got := f.Near(origin, t0, 100, nil); len(got) != 8 {
		t.Errorf("linear fallback lost devices, got %d/8", len(got))
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
// active window — the shape that gets activity buckets. Device 0 opens
// at t0, so bucket edges fall on t0 + k hours; windows start on, just
// before and just after those edges and last from a minute to five
// hours, so many straddle one or several edges. A few windows are empty
// (ActiveTo not after ActiveFrom). spreadM 30 is the cafeteria (one
// grid cell, every query on the linear path); larger spreads mix grid
// and linear queries.
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

// TestNearActivityMatchesBrute is the activity index's correctness
// property: on fully windowed random fleets, Near and a Searcher return
// exactly NearBrute's candidates in NearBrute's order at window opens
// (active), window closes (inactive), a nanosecond either side, bucket
// edges, before the first window and after the last.
func TestNearActivityMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		spread := []float64{30, 30, 3000}[rng.Intn(3)]
		f := windowedFleet(rng, n, spread)
		if f.actStart == nil {
			t.Fatalf("trial %d: no activity buckets on a fully windowed fleet", trial)
		}
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
		var idx []int32
		for q, when := range at {
			pos := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spread*1.5)
			radius := []float64{1, 50, 120, 20000}[rng.Intn(4)]
			want := f.NearBrute(pos, when, radius, nil)
			got := f.Near(pos, when, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (n=%d t=%v r=%.0f): Near %d candidates, brute %d",
					trial, q, n, when, radius, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d query %d: candidate %d is %s, brute has %s", trial, q, i, got[i].ID, want[i].ID)
				}
			}
			idx = s.NearIndices(pos, when, radius, idx[:0])
			if len(idx) != len(want) {
				t.Fatalf("trial %d query %d: searcher %d candidates, brute %d", trial, q, len(idx), len(want))
			}
			for i, di := range idx {
				if devs[di] != want[i] {
					t.Fatalf("trial %d query %d: searcher candidate %d is %s, brute has %s",
						trial, q, i, devs[di].ID, want[i].ID)
				}
			}
		}
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
	if f.actStart == nil {
		t.Fatal("no activity buckets")
	}
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

// TestNearActivityNeedsEveryWindow: one device without a window, or
// windows so long that the buckets would hold more than
// maxActivityFanout entries per device, leave the fleet unbucketed.
func TestNearActivityNeedsEveryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := windowedFleet(rng, 50, 30)
	devs := append([]*Device(nil), f.Devices()...)
	devs = append(devs, New("resident", trace.VendorApple, origin, mobility.Stationary(origin)))
	if NewFleet(origin, devs).actStart != nil {
		t.Error("activity buckets built although one device has no window")
	}
	long := New("long", trace.VendorApple, origin, mobility.Stationary(origin))
	long.ActiveFrom, long.ActiveTo = t0, t0.Add(time.Duration(maxActivityFanout+1)*time.Hour)
	if NewFleet(origin, []*Device{long}).actStart != nil {
		t.Error("activity buckets built past maxActivityFanout entries per device")
	}
}
