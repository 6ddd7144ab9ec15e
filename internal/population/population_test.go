package population

import (
	"math"
	"math/rand"
	"testing"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
)

var abuDhabi = geo.LatLon{Lat: 24.4539, Lon: 54.3773}

func testCity(seed int64) *Map {
	rng := rand.New(rand.NewSource(seed))
	return SyntheticCity(CityConfig{Center: abuDhabi, RadiusKm: 4, Population: 200000}, rng)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		pop  float64
		want DensityClass
	}{
		{0, DensityLow}, {599, DensityLow},
		{600, DensityMedium}, {1749, DensityMedium},
		{1750, DensityHigh}, {10000, DensityHigh},
	}
	for _, c := range cases {
		if got := Classify(c.pop); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.pop, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if DensityLow.String() != "Low" || DensityHigh.String() != "High" {
		t.Error("class names wrong")
	}
	if DensityClass(7).String() != "DensityClass(7)" {
		t.Error("unknown class name wrong")
	}
}

func TestSyntheticCityTotalPopulation(t *testing.T) {
	m := testCity(1)
	if math.Abs(m.Total()-200000) > 1 {
		t.Errorf("Total = %.1f, want 200000", m.Total())
	}
	if m.NumCells() < 30 {
		t.Errorf("city has only %d cells", m.NumCells())
	}
	if m.Resolution() != 8 {
		t.Errorf("resolution = %d", m.Resolution())
	}
}

func TestSyntheticCityDeterministic(t *testing.T) {
	a, b := testCity(42), testCity(42)
	if a.NumCells() != b.NumCells() || a.Total() != b.Total() {
		t.Fatal("city generation not deterministic")
	}
	for _, c := range a.Cells() {
		if a.DensityOfCell(c) != b.DensityOfCell(c) {
			t.Fatal("cell densities differ between identical seeds")
		}
	}
}

func TestDensityDecaysFromCenter(t *testing.T) {
	m := testCity(7)
	// Average density near the center should exceed the average near the
	// periphery (noise makes individual cells unreliable).
	var nearSum, farSum float64
	var nearN, farN int
	for _, c := range m.Cells() {
		d := geo.Distance(hexgrid.CellToLatLon(c), abuDhabi)
		switch {
		case d < 1500:
			nearSum += m.DensityOfCell(c)
			nearN++
		case d > 3500:
			farSum += m.DensityOfCell(c)
			farN++
		}
	}
	if nearN == 0 || farN == 0 {
		t.Fatal("missing near/far cells")
	}
	if nearSum/float64(nearN) <= farSum/float64(farN) {
		t.Errorf("density does not decay: near %.0f vs far %.0f", nearSum/float64(nearN), farSum/float64(farN))
	}
}

func TestSampleHomeFollowsDensity(t *testing.T) {
	m := testCity(5)
	rng := rand.New(rand.NewSource(99))
	counts := make(map[hexgrid.Cell]int)
	const n = 20000
	for i := 0; i < n; i++ {
		h := m.SampleHome(rng)
		counts[hexgrid.LatLonToCell(h, 8)]++
	}
	// Empirical share should track density share for the heaviest cells.
	cells := m.Cells()
	var heaviest hexgrid.Cell
	var maxPop float64
	for _, c := range cells {
		if p := m.DensityOfCell(c); p > maxPop {
			maxPop, heaviest = p, c
		}
	}
	wantShare := maxPop / m.Total()
	gotShare := float64(counts[heaviest]) / n
	if gotShare < wantShare*0.6 || gotShare > wantShare*1.5 {
		t.Errorf("heaviest cell share %.4f, want ~%.4f", gotShare, wantShare)
	}
}

func TestSampleHomeEmptyMap(t *testing.T) {
	m := FromCells(8, nil)
	if !m.SampleHome(rand.New(rand.NewSource(1))).IsZero() {
		t.Error("empty map should sample the zero position")
	}
}

func TestFromCellsValidation(t *testing.T) {
	good := hexgrid.LatLonToCell(abuDhabi, 8)
	m := FromCells(8, map[hexgrid.Cell]float64{good: 100, hexgrid.LatLonToCell(abuDhabi, 8): 100})
	if m.Total() != 100 {
		t.Errorf("Total = %v", m.Total())
	}
	// Non-positive populations are dropped.
	m2 := FromCells(8, map[hexgrid.Cell]float64{good: -5})
	if m2.NumCells() != 0 {
		t.Error("negative population kept")
	}
	// Wrong resolution panics.
	defer func() {
		if recover() == nil {
			t.Error("expected panic for resolution mismatch")
		}
	}()
	FromCells(8, map[hexgrid.Cell]float64{hexgrid.LatLonToCell(abuDhabi, 7): 10})
}

func TestCityHasAllThreeClasses(t *testing.T) {
	// A 200k city over ~4 km should produce all three density strata
	// under the paper's absolute thresholds.
	m := testCity(11)
	var counts [3]int
	for _, c := range m.Cells() {
		counts[Classify(m.DensityOfCell(c))]++
	}
	for cls, n := range counts {
		if n == 0 {
			t.Errorf("no cells in class %v", DensityClass(cls))
		}
	}
}

func BenchmarkSyntheticCity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		SyntheticCity(CityConfig{Center: abuDhabi, RadiusKm: 4, Population: 100000}, rng)
	}
}

func BenchmarkSampleHome(b *testing.B) {
	m := testCity(1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SampleHome(rng)
	}
}
