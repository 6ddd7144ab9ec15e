package analysis

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

// TestFirstHitDelaysMatchesScan checks the seeking FirstHitDelays
// against the linear scan on random episodes and report logs. Report
// instants sit on a coarse grid so many coincide, and episodes are
// placed to start exactly on a report and to end exactly maxLag before
// one, so ties at ep.Start and at the deadline are exercised.
func TestFirstHitDelaysMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	anchors := []geo.LatLon{origin, geo.Destination(origin, 45, 40), geo.Destination(origin, 200, 3000)}
	for trial := 0; trial < 300; trial++ {
		var reports []trace.CrawlRecord
		for i, n := 0, rng.Intn(60); i < n; i++ {
			at := t0.Add(time.Duration(rng.Intn(240)) * time.Minute)
			a := anchors[rng.Intn(len(anchors))]
			reports = append(reports, trace.CrawlRecord{
				CrawlT:     at.Add(time.Duration(rng.Intn(5)) * time.Minute),
				TagID:      []string{"a", "b"}[rng.Intn(2)],
				Pos:        geo.Destination(a, rng.Float64()*360, rng.Float64()*20),
				ReportedAt: at,
			})
		}
		maxLag := time.Duration(rng.Intn(90)) * time.Minute
		var eps []Episode
		for i, n := 0, rng.Intn(20); i < n; i++ {
			ep := Episode{Anchor: anchors[rng.Intn(len(anchors))]}
			switch {
			case len(reports) > 0 && rng.Intn(3) == 0:
				// Starts on a report instant.
				ep.Start = reports[rng.Intn(len(reports))].ReportedAt
				ep.End = ep.Start.Add(time.Duration(rng.Intn(60)) * time.Minute)
			case len(reports) > 0 && rng.Intn(2) == 0:
				// Deadline lands on a report instant.
				ep.End = reports[rng.Intn(len(reports))].ReportedAt.Add(-maxLag)
				ep.Start = ep.End.Add(-time.Duration(rng.Intn(60)) * time.Minute)
			default:
				ep.Start = t0.Add(time.Duration(rng.Intn(300)-30) * time.Minute)
				ep.End = ep.Start.Add(time.Duration(rng.Intn(60)) * time.Minute)
			}
			eps = append(eps, ep)
		}
		radius := []float64{5, 10, 25}[rng.Intn(3)]
		got := FirstHitDelays(eps, reports, radius, maxLag)
		want := firstHitDelaysScan(eps, reports, radius, maxLag)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: FirstHitDelays diverged from the scan:\ngot  %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestNearAnyHomeMatchesScan checks the latitude-band cull never changes
// a decision: points placed at the filter radius ±1e-6 m, ±0.5 m and
// ±2 m from each home, in every direction, get the plain all-homes
// answer. Homes sit near ±85° and on both sides of the antimeridian,
// where a degree of longitude is short and longitudes wrap.
func TestNearAnyHomeMatchesScan(t *testing.T) {
	homes := []geo.LatLon{
		origin,
		geo.Destination(origin, 10, 450), // overlapping neighbour disc
		{Lat: 85, Lon: 10}, {Lat: 85.002, Lon: 10.05},
		{Lat: -85, Lon: -120}, {Lat: -84.999, Lon: 60},
		{Lat: 12, Lon: 179.9995}, {Lat: 12.001, Lon: -179.9995},
		{Lat: -33, Lon: 180}, {Lat: -33, Lon: -179.999},
	}
	rng := rand.New(rand.NewSource(11))
	checked, near := 0, 0
	for _, radius := range []float64{10, 100, 300} {
		for _, h := range homes {
			for _, delta := range []float64{-2, -0.5, -1e-6, 1e-6, 0.5, 2} {
				for k := 0; k < 36; k++ {
					bearing := float64(k)*10 + rng.Float64()
					p := geo.Destination(h, bearing, radius+delta)
					got := NearAnyHome(p, homes, radius)
					if want := nearAnyHomeScan(p, homes, radius); got != want {
						t.Fatalf("NearAnyHome(%v, r=%g) = %v, scan says %v (home %v, delta %g, bearing %.1f)",
							p, radius, got, want, h, delta, bearing)
					}
					checked++
					if got {
						near++
					}
				}
			}
		}
	}
	if near == 0 || near == checked {
		t.Fatalf("degenerate sample: %d of %d points near a home", near, checked)
	}
}

// randomWalkFixes is a res-8-scale random walk: 5 s fixes, mostly short
// steps, stays in place, and occasional jumps of a few hundred meters.
func randomWalkFixes(rng *rand.Rand, start geo.LatLon, n int) []trace.GroundTruth {
	out := make([]trace.GroundTruth, n)
	pos, at := start, t0
	for i := range out {
		switch r := rng.Intn(20); {
		case r < 6: // stay put
		case r < 19:
			pos = geo.Destination(pos, rng.Float64()*360, rng.Float64()*15)
		default:
			pos = geo.Destination(pos, rng.Float64()*360, 100+rng.Float64()*400)
		}
		at = at.Add(5 * time.Second)
		out[i] = trace.GroundTruth{T: at, Pos: pos}
	}
	return out
}

// seamCrossingFixes walks geodesics out of start and, wherever the
// nearest icosahedron face changes, steps across the seam 20 m at a time
// from 5 km before it to 5 km past it — the points where a face cell's
// center can land on the neighbouring face and the seam resolution runs
// more than once.
func seamCrossingFixes(start geo.LatLon, res int) []trace.GroundTruth {
	const coarse, fine, pathM = 5000.0, 20.0, 9e6
	var out []trace.GroundTruth
	at := t0
	for bearing := 0.0; bearing < 360; bearing += 30 {
		prevFace := hexgrid.FaceCell(start, res).Face()
		for d := coarse; d <= pathM; d += coarse {
			f := hexgrid.FaceCell(geo.Destination(start, bearing, d), res).Face()
			if f == prevFace {
				continue
			}
			prevFace = f
			for x := d - 2*coarse; x <= d+coarse; x += fine {
				at = at.Add(5 * time.Second)
				out = append(out, trace.GroundTruth{T: at, Pos: geo.Destination(start, bearing, x)})
			}
		}
	}
	return out
}

// TestHexVisitsMemoMatchesLatLonToCell checks the memoized seam
// resolution behind HexVisits gives hexgrid.LatLonToCell's cell for every
// fix — on random walks at resolution 8 and on walks stepped across face
// seams, where it must see fixes whose cell the seam loop moved — and
// that HexVisits equals the per-fix LatLonToCell scan.
func TestHexVisitsMemoMatchesLatLonToCell(t *testing.T) {
	const res = 8
	rng := rand.New(rand.NewSource(5))
	walks := [][]trace.GroundTruth{seamCrossingFixes(origin, res), seamCrossingFixes(geo.LatLon{Lat: -20, Lon: -150}, res)}
	for _, start := range []geo.LatLon{origin, {Lat: 84.9, Lon: 30}, {Lat: -60, Lon: 179.99}} {
		walks = append(walks, randomWalkFixes(rng, start, 4000))
	}
	moved := 0
	for wi, fixes := range walks {
		memo := cellMemo{res: res}
		for i, f := range fixes {
			want := hexgrid.LatLonToCell(f.Pos, res)
			if got := memo.of(f.Pos); got != want {
				t.Fatalf("walk %d fix %d at %v: memo cell %v, LatLonToCell %v", wi, i, f.Pos, got, want)
			}
			if hexgrid.FaceCell(f.Pos, res) != want {
				moved++
			}
		}
		for _, dwell := range []time.Duration{10 * time.Second, 5 * time.Minute} {
			got := HexVisits(fixes, res, dwell, time.Minute)
			if want := hexVisitsScan(fixes, res, dwell, time.Minute); !reflect.DeepEqual(got, want) {
				t.Fatalf("walk %d dwell %v: HexVisits gave %d visits, scan %d", wi, dwell, len(got), len(want))
			}
		}
	}
	if moved == 0 {
		t.Fatal("no fix crossed a face seam: the seam walks no longer exercise the seam loop")
	}
}

// TestTruthIndexAll checks All yields the fixes in time order and stops
// when the consumer does.
func TestTruthIndexAll(t *testing.T) {
	fixes := walkFixes(t0, origin, 4, time.Hour)
	rev := slices.Clone(fixes)
	slices.Reverse(rev)
	ti := NewTruthIndex(rev)
	if got := slices.Collect(ti.All()); !reflect.DeepEqual(got, fixes) {
		t.Fatalf("All yielded %d fixes out of order or altered (want %d)", len(got), len(fixes))
	}
	n := 0
	for range ti.All() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break: consumed %d fixes", n)
	}
}

var hexVisitsSink []HexVisit

// BenchmarkHexVisits times HexVisits over a 20k-fix random walk at
// resolution 8 (Figures 6-7's per-country workload shape).
func BenchmarkHexVisits(b *testing.B) {
	fixes := randomWalkFixes(rand.New(rand.NewSource(1)), origin, 20000)
	b.ReportAllocs()
	for b.Loop() {
		hexVisitsSink = HexVisits(fixes, 8, 5*time.Minute, 5*time.Minute)
	}
}

// detectHomesFirstFit is DetectHomes without the latitude-band cull:
// every cluster is tested with a haversine, first fit wins.
func detectHomesFirstFit(fixes []trace.GroundTruth, clusterRadiusM float64) []geo.LatLon {
	if clusterRadiusM <= 0 {
		clusterRadiusM = 300
	}
	type homeCluster struct {
		anchor geo.LatLon
		dwell  time.Duration
		lastAt time.Time
	}
	var clusters []homeCluster
next:
	for _, f := range fixes {
		if f.T.UTC().Hour() >= 6 {
			continue
		}
		for i := range clusters {
			c := &clusters[i]
			if geo.Distance(c.anchor, f.Pos) <= clusterRadiusM {
				gap := f.T.Sub(c.lastAt)
				if gap > 0 && gap <= 10*time.Minute {
					c.dwell += gap
				}
				c.lastAt = f.T
				continue next
			}
		}
		clusters = append(clusters, homeCluster{anchor: f.Pos, lastAt: f.T})
	}
	var homes []geo.LatLon
	for _, c := range clusters {
		if c.dwell >= 30*time.Minute {
			homes = append(homes, c.anchor)
		}
	}
	return homes
}

// TestDetectHomesMatchesFirstFit checks the latitude-band cull never
// changes which cluster a fix joins. Each fix is placed relative to an
// earlier one: at a random offset, due north or south at the radius
// ±1e-6 m, ±0.5 m or ±2 m (inside the band, decided by the haversine),
// or shifted in latitude alone by the band's width ±1e-9° (at the band
// edge). Start points include ±85°, where a degree of longitude is
// short, so pure longitude offsets stay inside the band.
func TestDetectHomesMatchesFirstFit(t *testing.T) {
	starts := []geo.LatLon{origin, {Lat: 85, Lon: 10}, {Lat: -85, Lon: -120}, {Lat: 84.9999, Lon: 179.9999}}
	rng := rand.New(rand.NewSource(23))
	edge, homesSeen := 0, 0
	for trial := 0; trial < 400; trial++ {
		radius := []float64{0, 10, 100, 300}[rng.Intn(4)]
		r := radius
		if r <= 0 {
			r = 300
		}
		band := geo.LatBandDeg(r)
		at := time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC)
		fixes := []trace.GroundTruth{{T: at, Pos: starts[rng.Intn(len(starts))]}}
		for i, n := 0, 20+rng.Intn(200); i < n; i++ {
			// Mostly overnight, minutes apart; now and then a daytime jump.
			at = at.Add(time.Duration(1+rng.Intn(12)) * time.Minute)
			if rng.Intn(40) == 0 {
				at = at.Add(time.Duration(rng.Intn(20)) * time.Hour)
			}
			prev := fixes[rng.Intn(len(fixes))].Pos
			var pos geo.LatLon
			switch rng.Intn(4) {
			case 0:
				pos = geo.Destination(prev, rng.Float64()*360, rng.Float64()*2*r)
			case 1:
				d := []float64{1e-6, 0.5, 2}[rng.Intn(3)] * float64(1-2*rng.Intn(2))
				pos = geo.Destination(prev, float64(180*rng.Intn(2)), r+d)
			case 2:
				pos = geo.LatLon{Lat: prev.Lat + float64(1-2*rng.Intn(2))*(band+float64(1-2*rng.Intn(2))*1e-9), Lon: prev.Lon}
				edge++
			default:
				pos = geo.Destination(prev, float64(90+180*rng.Intn(2)), rng.Float64()*r)
			}
			fixes = append(fixes, trace.GroundTruth{T: at, Pos: pos})
		}
		got, want := DetectHomes(fixes, radius), detectHomesFirstFit(fixes, radius)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (radius %v): DetectHomes %v, first fit %v", trial, radius, got, want)
		}
		homesSeen += len(want)
	}
	t.Logf("%d band-edge fixes, %d homes", edge, homesSeen)
	if edge == 0 || homesSeen == 0 {
		t.Fatalf("degenerate trials: %d band-edge fixes, %d homes", edge, homesSeen)
	}
}
