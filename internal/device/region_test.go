package device

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// bandFleet builds a fleet whose homes span many slice-grid rows:
// almost entirely stationary homes spread over a wide disk, plus a
// sprinkle of long-haul commuters.
func bandFleet(rng *rand.Rand, n int, spreadM float64) *Fleet {
	devices := make([]*Device, n)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, spreadM*rng.Float64())
		var m mobility.Model
		if i%200 == 0 {
			far := geo.Destination(home, rng.Float64()*360, 20000+rng.Float64()*20000)
			b := mobility.NewBuilder(t0, home)
			b.MoveTo(far, 60)
			b.Stay(4 * time.Hour)
			m = b.Build()
		} else {
			m = mobility.Stationary(home)
		}
		d := New(fmt.Sprintf("band-%04d", i), trace.VendorApple, home, m)
		d.OptedIn = true
		devices[i] = d
	}
	return NewFleet(origin, devices)
}

// TestRegionsPartition checks the band layout: every queried position maps
// to exactly one band in [0, Count()), Count never exceeds the request or
// the grid's rows, and region counts that do not divide the rows evenly
// still cover every row.
func TestRegionsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := bandFleet(rng, 500, 8000)
	rows := f.rows
	if rows < 2 {
		t.Fatalf("fleet homes span %d rows; want several for this test", rows)
	}
	for _, n := range []int{1, 2, 3, 7, rows - 1, rows, rows + 5} {
		r := f.Regions(n)
		if r.Count() < 1 {
			t.Fatalf("Regions(%d).Count() = %d", n, r.Count())
		}
		if r.Count() > n && n >= 1 {
			t.Errorf("Regions(%d) produced %d bands, more than requested", n, r.Count())
		}
		if r.Count() > rows {
			t.Errorf("Regions(%d) produced %d bands over %d rows", n, r.Count(), rows)
		}
		seen := make(map[int]bool)
		for i := 0; i < 500; i++ {
			pos := geo.Destination(origin, rng.Float64()*360, rng.Float64()*12000)
			band := r.Of(pos)
			if band < 0 || band >= r.Count() {
				t.Fatalf("Regions(%d).Of = %d, outside [0,%d)", n, band, r.Count())
			}
			seen[band] = true
		}
		// Walking south-to-north in half-cell steps hits every row, so
		// every band (a contiguous row range) must be seen, and the band
		// sequence must be non-decreasing.
		cell := sliceCellM
		last := 0
		for d := -10000.0; d <= 10000; d += cell / 2 {
			bearing := 0.0 // north of origin
			if d < 0 {
				bearing = 180 // south
			}
			band := r.Of(geo.Destination(origin, bearing, math.Abs(d)))
			if band < last {
				t.Fatalf("Regions(%d): band decreased from %d to %d moving north", n, last, band)
			}
			last = band
			seen[band] = true
		}
		if len(seen) != r.Count() {
			t.Errorf("Regions(%d): meridian walk hit %d of %d bands", n, len(seen), r.Count())
		}
	}
}

// TestRegionsDegenerate checks empty and single-band cases collapse to
// one region.
func TestRegionsDegenerate(t *testing.T) {
	f := NewFleet(origin, nil) // no devices -> no rows
	r := f.Regions(8)
	if r.Count() != 1 || r.Of(origin) != 0 {
		t.Fatalf("empty fleet: Count=%d Of=%d", r.Count(), r.Of(origin))
	}
	rng := rand.New(rand.NewSource(8))
	f2 := randomFleet(rng, 200, 5000)
	if got := f2.Regions(1).Count(); got != 1 {
		t.Fatalf("Regions(1).Count() = %d", got)
	}
	if got := f2.Regions(0).Count(); got != 1 {
		t.Fatalf("Regions(0).Count() = %d", got)
	}
}

// TestSearcherMatchesNear checks the index-returning query stream agrees
// with Fleet.Near, and that independent Searchers can query concurrently
// (exercised under -race in CI).
func TestSearcherMatchesNear(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := randomFleet(rng, 800, 6000)
	devs := f.Devices()
	queries := make([]geo.LatLon, 64)
	for i := range queries {
		queries[i] = geo.Destination(origin, rng.Float64()*360, rng.Float64()*9000)
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		for _, d := range f.Near(q, t0, 500, nil) {
			want[i] = append(want[i], d.ID)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := f.Searcher()
			var idx []int32
			for i, q := range queries {
				idx = s.NearIndices(q, t0, 500, idx[:0])
				if len(idx) != len(want[i]) {
					t.Errorf("query %d: %d indices, want %d", i, len(idx), len(want[i]))
					continue
				}
				for j, di := range idx {
					if devs[di].ID != want[i][j] {
						t.Errorf("query %d result %d: %s, want %s", i, j, devs[di].ID, want[i][j])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNearIndicesMatchesNear pins the fleet-level index query to Near on
// uneven radii.
func TestNearIndicesMatchesNear(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := randomFleet(rng, 300, 4000)
	devs := f.Devices()
	for _, radius := range []float64{37, 250, 1999} {
		for i := 0; i < 32; i++ {
			q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*6000)
			byDev := f.Near(q, t0, radius, nil)
			idx := f.NearIndices(q, t0, radius, nil)
			if len(byDev) != len(idx) {
				t.Fatalf("radius %v query %d: Near %d, NearIndices %d", radius, i, len(byDev), len(idx))
			}
			for j := range idx {
				if devs[idx[j]] != byDev[j] {
					t.Fatalf("radius %v query %d result %d: index %d is %s, Near gave %s",
						radius, i, j, idx[j], devs[idx[j]].ID, byDev[j].ID)
				}
			}
		}
	}
}

// TestReportDecisionMatchesShouldReport drives the two entry points with
// identical RNG streams and random decision sequences, checking the map-
// backed wrapper and the caller-owned-state form never diverge.
func TestReportDecisionMatchesShouldReport(t *testing.T) {
	a := newSamsung("a")
	b := newSamsung("b")
	rngA := rand.New(rand.NewSource(55))
	rngB := rand.New(rand.NewSource(55))
	var next int64
	now := t0
	for i := 0; i < 500; i++ {
		delayA, okA := a.ShouldReport("tag-x", now, rngA)
		var delayB int64
		newNext, dB, okB := b.ReportDecision(now, next, rngB)
		next = newNext
		delayB = int64(dB)
		if okA != okB || int64(delayA) != delayB {
			t.Fatalf("step %d: ShouldReport (%v,%v) vs ReportDecision (%v,%v)", i, delayA, okA, dB, okB)
		}
		now = now.Add(time.Duration(1+i%7) * time.Minute)
	}
}
