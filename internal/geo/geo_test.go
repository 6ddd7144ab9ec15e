package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Reference coordinates used across tests.
var (
	nyuAD  = LatLon{Lat: 24.5246, Lon: 54.4349} // NYU Abu Dhabi campus
	milan  = LatLon{Lat: 45.4642, Lon: 9.1900}
	newark = LatLon{Lat: 40.7357, Lon: -74.1724}
)

func TestDistanceKnownPairs(t *testing.T) {
	tests := []struct {
		name  string
		a, b  LatLon
		wantM float64
		tolM  float64
	}{
		{"zero", nyuAD, nyuAD, 0, 0.001},
		{"one degree lat at equator", LatLon{0, 0}, LatLon{1, 0}, 111195, 50},
		{"one degree lon at equator", LatLon{0, 0}, LatLon{0, 1}, 111195, 50},
		{"abu dhabi to milan", nyuAD, milan, 4651e3, 10e3},
		{"short hop 100m", nyuAD, Destination(nyuAD, 90, 100), 100, 0.01},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Distance(tt.a, tt.b)
			if math.Abs(got-tt.wantM) > tt.tolM {
				t.Errorf("Distance(%v, %v) = %.1f m, want %.1f ± %.1f", tt.a, tt.b, got, tt.wantM, tt.tolM)
			}
		})
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{Lat: math.Mod(lat1, 90), Lon: math.Mod(lon1, 180)}
		b := LatLon{Lat: math.Mod(lat2, 90), Lon: math.Mod(lon2, 180)}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
		b := LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
		c := LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
		if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		start := LatLon{Lat: rng.Float64()*120 - 60, Lon: rng.Float64()*360 - 180}
		bearing := rng.Float64() * 360
		dist := rng.Float64() * 100e3
		end := Destination(start, bearing, dist)
		got := Distance(start, end)
		if math.Abs(got-dist) > 1.0 {
			t.Fatalf("Destination(%v, %.1f°, %.1fm): round-trip distance %.3f", start, bearing, dist, got)
		}
	}
}

func TestBearingCardinal(t *testing.T) {
	p := LatLon{Lat: 10, Lon: 10}
	cases := []struct {
		name string
		q    LatLon
		want float64
	}{
		{"north", LatLon{11, 10}, 0},
		{"east", LatLon{10, 11}, 90},
		{"south", LatLon{9, 10}, 180},
		{"west", LatLon{10, 9}, 270},
	}
	for _, c := range cases {
		got := Bearing(p, c.q)
		diff := math.Abs(got - c.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 0.5 {
			t.Errorf("%s: Bearing = %.2f, want %.2f", c.name, got, c.want)
		}
	}
}

func TestMidpoint(t *testing.T) {
	m := Midpoint(nyuAD, milan)
	d1, d2 := Distance(nyuAD, m), Distance(milan, m)
	if math.Abs(d1-d2) > 1.0 {
		t.Errorf("midpoint not equidistant: %.2f vs %.2f", d1, d2)
	}
}

func TestLerpEndpoints(t *testing.T) {
	if d := Distance(Lerp(nyuAD, milan, 0), nyuAD); d > 0.01 {
		t.Errorf("Lerp(0) off by %.3f m", d)
	}
	if d := Distance(Lerp(nyuAD, milan, 1), milan); d > 1 {
		t.Errorf("Lerp(1) off by %.3f m", d)
	}
	mid := Lerp(nyuAD, milan, 0.5)
	if d := Distance(mid, Midpoint(nyuAD, milan)); d > 10 {
		t.Errorf("Lerp(0.5) vs Midpoint off by %.3f m", d)
	}
}

func TestENURoundTrip(t *testing.T) {
	e := NewENU(nyuAD)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		p := Destination(nyuAD, rng.Float64()*360, rng.Float64()*20e3)
		x, y := e.Forward(p)
		back := e.Reverse(x, y)
		if d := Distance(p, back); d > 0.5 {
			t.Fatalf("ENU round trip error %.3f m for %v", d, p)
		}
	}
}

func TestENUDistanceAgreement(t *testing.T) {
	// Planar distance in the tangent frame should agree with haversine for
	// city-scale separations.
	e := NewENU(nyuAD)
	p := Destination(nyuAD, 40, 5000)
	x, y := e.Forward(p)
	planar := math.Hypot(x, y)
	if math.Abs(planar-5000) > 10 {
		t.Errorf("planar distance %.1f, want ~5000", planar)
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(nyuAD, milan, newark)
	for _, p := range []LatLon{nyuAD, milan, newark} {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(LatLon{-50, 0}) {
		t.Error("box should not contain antarctic point")
	}
	buf := b.Buffer(1000)
	if !buf.Contains(Destination(milan, 0, 900)) {
		t.Error("buffered box should contain point 900m north of milan")
	}
}

func TestBBoxEmpty(t *testing.T) {
	b := NewBBox()
	if b != (BBox{}) {
		t.Errorf("empty NewBBox = %+v, want zero", b)
	}
}

func TestPathLengthAndAt(t *testing.T) {
	p := Path{
		nyuAD,
		Destination(nyuAD, 90, 1000),
		Destination(Destination(nyuAD, 90, 1000), 0, 500),
	}
	if l := p.Length(); math.Abs(l-1500) > 1 {
		t.Fatalf("Length = %.2f, want 1500", l)
	}
	// Walk along and verify monotone distance from start of each segment.
	at750 := p.At(750)
	if d := Distance(p[0], at750); math.Abs(d-750) > 1 {
		t.Errorf("At(750) is %.1f m from start, want 750", d)
	}
	// Clamping.
	if d := Distance(p.At(-5), p[0]); d > 0.01 {
		t.Error("At(-5) should clamp to start")
	}
	if d := Distance(p.At(1e9), p[2]); d > 0.01 {
		t.Error("At(huge) should clamp to end")
	}
}

func TestPathEdgeCases(t *testing.T) {
	if got := (Path{}).At(10); !got.IsZero() {
		t.Errorf("empty path At = %v, want zero", got)
	}
	single := Path{milan}
	if got := single.At(10); got != milan {
		t.Errorf("single path At = %v, want milan", got)
	}
	if l := single.Length(); l != 0 {
		t.Errorf("single path Length = %f, want 0", l)
	}
	// Degenerate repeated waypoints must not divide by zero.
	dup := Path{milan, milan, milan}
	if got := dup.At(0.5); got != milan {
		t.Errorf("dup path At = %v, want milan", got)
	}
}

func TestNormalizeLon(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {180, 180}, {-180, 180}, {190, -170}, {-190, 170}, {540, 180}, {361, 1},
	}
	for _, c := range cases {
		if got := NormalizeLon(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalizeLon(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSpeedConversions(t *testing.T) {
	if got := KmhToMs(36); math.Abs(got-10) > 1e-12 {
		t.Errorf("KmhToMs(36) = %v", got)
	}
	if got := MsToKmh(10); math.Abs(got-36) > 1e-12 {
		t.Errorf("MsToKmh(10) = %v", got)
	}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return math.Abs(MsToKmh(KmhToMs(v))-v) < math.Abs(v)*1e-12+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Distance(nyuAD, milan)
	}
}

func BenchmarkDestination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Destination(nyuAD, 123, 4567)
	}
}

func BenchmarkENUForward(b *testing.B) {
	e := NewENU(nyuAD)
	p := Destination(nyuAD, 45, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Forward(p)
	}
}

// TestLatBandRejectsOnlyOutOfRange: a pair whose latitudes differ by
// more than LatBandDeg(r) is skipped without a haversine, so Distance
// must put every such pair more than r apart. The pairs sit just past
// the band edge at the equator, at mid latitudes, near ±85° where a
// degree of longitude is short, and straddling the antimeridian.
func TestLatBandRejectsOnlyOutOfRange(t *testing.T) {
	lats := []float64{0, 24.45, 60, 84.99, 85, 85.01, -84.99, -85, -85.01, 89.999}
	lons := []float64{0, 54.38, 179.9995, -179.9995, 180}
	checked := 0
	for _, r := range []float64{1, 30, 100, 1000} {
		band := LatBandDeg(r)
		for _, lat := range lats {
			for _, lon := range lons {
				p := LatLon{Lat: lat, Lon: lon}
				for _, over := range []float64{1e-12, 1e-9, 1e-6} {
					for _, sign := range []float64{1, -1} {
						for _, dLon := range []float64{0, 1e-6, -1e-6, band / 4, band, -2 * band, 0.001, -0.001} {
							q := LatLon{Lat: lat + sign*band*(1+over), Lon: NormalizeLon(lon + dLon)}
							if q.Lat > 90 || q.Lat < -90 || math.Abs(p.Lat-q.Lat) <= band {
								continue // off the globe, or rounding kept the pair inside the band
							}
							checked++
							if d := min(Distance(p, q), Distance(q, p)); d <= r {
								t.Fatalf("r=%v: %v and %v are outside the band but %.6f m apart", r, p, q, d)
							}
						}
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d pairs checked past the band edge", checked)
	}
}

// TestLonBandRejectsOnlyOutOfRange: a point whose longitude differs
// from q's by more than LonBandDeg(q.Lat, r) must be more than r from q,
// wherever its latitude lies. Pairs sit just past the band edge at every
// latitude across the cap, at the equator, mid latitudes and near the
// poles, and across the antimeridian.
func TestLonBandRejectsOnlyOutOfRange(t *testing.T) {
	checked := 0
	for _, r := range []float64{1, 120, 1000, 20000} {
		for _, lat := range []float64{0, 24.45, -47.4, 60, 80, -84.99, 89.8} {
			band := LonBandDeg(lat, r)
			if math.IsInf(band, 1) {
				continue
			}
			for _, lon := range []float64{0, 54.38, 179.9999, -179.9999} {
				q := LatLon{Lat: lat, Lon: lon}
				for _, over := range []float64{1e-12, 1e-9, 1e-6, 1e-3} {
					for _, sign := range []float64{1, -1} {
						for k := -8; k <= 8; k++ {
							p := LatLon{
								Lat: math.Max(-90, math.Min(90, lat+float64(k)/8*LatBandDeg(r))),
								Lon: NormalizeLon(lon + sign*band*(1+over)),
							}
							checked++
							if d := min(Distance(p, q), Distance(q, p)); d <= r {
								t.Fatalf("r=%v: %v and %v are outside the band (%.9f°) but %.6f m apart", r, p, q, band, d)
							}
						}
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d pairs checked past the band edge", checked)
	}
	if !math.IsInf(LonBandDeg(89.9999, 120), 1) || !math.IsInf(LonBandDeg(-90, 1), 1) {
		t.Error("a cap that reaches a pole must span every longitude")
	}
	if b := LonBandDeg(0, 120); math.Abs(b-LatBandDeg(120)) > 1e-12 {
		t.Errorf("at the equator the bands agree: lon %v, lat %v", b, LatBandDeg(120))
	}
}

// TestPathAtMatchesLerp pins Path.At, which hands the leg length it has
// already computed to the interpolation, to the Lerp it replaced, bit
// for bit: on random legs (zero-length ones included) at distances
// before, along, on the end of and past the leg.
func TestPathAtMatchesLerp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	same := func(a, b LatLon) bool {
		return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) && math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
	}
	for trial := 0; trial < 20000; trial++ {
		p := LatLon{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
		q := p
		if trial%10 != 0 {
			q = Destination(p, rng.Float64()*360, rng.ExpFloat64()*2000)
		}
		seg := Distance(p, q)
		path := Path{p, q}
		for _, d := range []float64{-1, 0, rng.Float64() * seg, seg / 2, seg, seg + 1e-9, seg + 1} {
			want := q // past the leg, or along a zero-length leg
			switch {
			case d <= 0:
				want = p
			case d <= seg && seg > 0:
				want = Lerp(p, q, d/seg)
			}
			if got := path.At(d); !same(got, want) {
				t.Fatalf("trial %d: leg %v→%v (%.9f m) At(%v) = %v, want %v", trial, p, q, seg, d, got, want)
			}
		}
	}
}
