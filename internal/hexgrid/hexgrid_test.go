package hexgrid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tagsim/internal/geo"
)

var (
	abuDhabi = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
	milan    = geo.LatLon{Lat: 45.4642, Lon: 9.1900}
)

func TestCellPackRoundTrip(t *testing.T) {
	f := func(res8 uint8, face8 uint8, iRaw, jRaw int32) bool {
		res := int(res8) % (MaxResolution + 1)
		face := int(face8) % 20
		i := int(iRaw) % (axialOffset - 1)
		j := int(jRaw) % (axialOffset - 1)
		c := packCell(res, face, i, j)
		gi, gj := c.axial()
		return c.Resolution() == res && c.Face() == face && gi == i && gj == j && c.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInvalidCell(t *testing.T) {
	if Invalid.Valid() {
		t.Error("zero cell must be invalid")
	}
	if Cell(math.MaxUint64).Valid() {
		t.Error("all-ones cell has face 31 and must be invalid")
	}
}

func TestLatLonToCellDeterministic(t *testing.T) {
	for res := 0; res <= 12; res++ {
		a := LatLonToCell(abuDhabi, res)
		b := LatLonToCell(abuDhabi, res)
		if a != b {
			t.Fatalf("res %d: nondeterministic hashing", res)
		}
		if a.Resolution() != res {
			t.Fatalf("res %d: got resolution %d", res, a.Resolution())
		}
	}
}

func TestCenterRoundTrip(t *testing.T) {
	// The center of a cell must hash back to the same cell.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := geo.LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
		for _, res := range []int{2, 5, 8, 10} {
			c := LatLonToCell(p, res)
			back := LatLonToCell(CellToLatLon(c), res)
			if back != c {
				t.Fatalf("center of %v (res %d) hashed to %v", c, res, back)
			}
		}
	}
	// Cells resolved across a face seam round-trip too.
	for _, p := range seamWalks() {
		c := LatLonToCell(p, 8)
		if back := LatLonToCell(CellToLatLon(c), 8); back != c {
			t.Fatalf("center of %v (from seam point %v) hashed to %v", c, p, back)
		}
	}
}

func TestCellContainsPoint(t *testing.T) {
	// A hashed point must be within one circumradius of its cell center.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := geo.LatLon{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
		res := 8
		c := LatLonToCell(p, res)
		d := geo.Distance(p, CellToLatLon(c))
		// Allow slack for projection distortion and seam canonicalization
		// near face edges.
		if d > EdgeLengthM(res)*2.0 {
			t.Fatalf("point %v is %.1f m from center of its cell (edge %.1f m)", p, d, EdgeLengthM(res))
		}
	}
}

func TestResolution8Area(t *testing.T) {
	// The paper quotes 0.737 km^2 per res-8 hexagon.
	if a := MeanHexAreaKm2(8); math.Abs(a-0.737327598) > 1e-9 {
		t.Errorf("res-8 area = %v, want 0.737327598", a)
	}
	if !math.IsNaN(MeanHexAreaKm2(-1)) || !math.IsNaN(MeanHexAreaKm2(16)) {
		t.Error("out-of-range resolutions must return NaN")
	}
}

func TestEdgeLengthMonotone(t *testing.T) {
	for res := 1; res <= MaxResolution; res++ {
		if EdgeLengthM(res) >= EdgeLengthM(res-1) {
			t.Fatalf("edge length must shrink with resolution (res %d)", res)
		}
	}
	// Aperture 7: linear pitch shrinks by ~sqrt(7) per resolution.
	ratio := EdgeLengthM(7) / EdgeLengthM(8)
	if math.Abs(ratio-math.Sqrt(7)) > 0.03 {
		t.Errorf("aperture ratio = %.4f, want ~%.4f", ratio, math.Sqrt(7))
	}
}

func TestDistinctCitiesDistinctCells(t *testing.T) {
	if LatLonToCell(abuDhabi, 8) == LatLonToCell(milan, 8) {
		t.Error("Abu Dhabi and Milan must not share a res-8 cell")
	}
}

func TestNearbyPointsShareCell(t *testing.T) {
	// Points 10 m apart share a res-8 cell almost always; verify at the
	// cell center where it is guaranteed.
	c := LatLonToCell(abuDhabi, 8)
	center := CellToLatLon(c)
	for brg := 0.0; brg < 360; brg += 60 {
		p := geo.Destination(center, brg, 10)
		if LatLonToCell(p, 8) != c {
			t.Errorf("point 10 m %f deg off center left the cell", brg)
		}
	}
}

func TestCoverBBox(t *testing.T) {
	// A ~2 km box at res 8 (edge ~461 m) should produce a handful of cells.
	b := geo.NewBBox(abuDhabi).Buffer(1000)
	cells := CoverBBox(b, 8)
	if len(cells) < 4 || len(cells) > 40 {
		t.Fatalf("CoverBBox produced %d cells", len(cells))
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatal("CoverBBox returned duplicates")
		}
		seen[c] = true
	}
	// The box corners and center must all be covered.
	for _, p := range []geo.LatLon{abuDhabi, {Lat: b.MinLat, Lon: b.MinLon}, {Lat: b.MaxLat, Lon: b.MaxLon}} {
		if !seen[LatLonToCell(p, 8)] {
			t.Errorf("cell of %v missing from cover", p)
		}
	}
}

func TestResolutionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range resolution")
		}
	}()
	LatLonToCell(abuDhabi, 16)
}

func TestFaceAssignmentStable(t *testing.T) {
	// Every point maps to a face in [0, 20).
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		p := geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		c := LatLonToCell(p, 3)
		if f := c.Face(); f < 0 || f >= 20 {
			t.Fatalf("face %d out of range for %v", f, p)
		}
	}
}

func BenchmarkLatLonToCell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LatLonToCell(abuDhabi, 8)
	}
}
