// Package population provides the synthetic stand-in for the Kontur
// population dataset the paper joins against: a per-hexagon population
// count at H3 resolution 8, plus weighted sampling of resident home
// locations so reporting-device density follows population density.
//
// The synthetic surface is a multi-cluster exponential city model with
// log-normal texture — enough structure to produce the low/medium/high
// density strata of the paper's Figure 7 without any external data.
package population

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
)

// DensityClass is the paper's population-density stratum.
type DensityClass uint8

// Density classes with the paper's thresholds: below 600 people per
// res-8 hexagon is low, 600-1,750 is medium, above is high.
const (
	DensityLow DensityClass = iota
	DensityMedium
	DensityHigh
)

// Paper-quoted class thresholds (people per res-8 cell).
const (
	LowDensityMax    = 600.0
	MediumDensityMax = 1750.0
)

var classNames = [...]string{"Low", "Medium", "High"}

// String names the class.
func (c DensityClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("DensityClass(%d)", uint8(c))
}

// Classify buckets a population count using the paper's fixed thresholds.
func Classify(pop float64) DensityClass {
	switch {
	case pop < LowDensityMax:
		return DensityLow
	case pop < MediumDensityMax:
		return DensityMedium
	default:
		return DensityHigh
	}
}

// Map is a population raster over hexagonal cells at a fixed resolution.
type Map struct {
	res   int
	cells map[hexgrid.Cell]float64
	// order and cum support deterministic weighted sampling.
	order []hexgrid.Cell
	cum   []float64
	total float64
}

// Resolution returns the hexagon resolution of the raster.
func (m *Map) Resolution() int { return m.res }

// Total returns the total population.
func (m *Map) Total() float64 { return m.total }

// NumCells returns the number of populated cells.
func (m *Map) NumCells() int { return len(m.order) }

// DensityOfCell returns the population of a specific cell.
func (m *Map) DensityOfCell(c hexgrid.Cell) float64 { return m.cells[c] }

// Cells returns the populated cells in deterministic order.
func (m *Map) Cells() []hexgrid.Cell { return m.order }

// SampleHome draws a home location weighted by population: a
// population-proportional cell, then a uniform point within it.
func (m *Map) SampleHome(rng *rand.Rand) geo.LatLon {
	if m.total <= 0 || len(m.order) == 0 {
		return geo.LatLon{}
	}
	target := rng.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, target)
	if i >= len(m.order) {
		i = len(m.order) - 1
	}
	cell := m.order[i]
	center := hexgrid.CellToLatLon(cell)
	// Uniform point in the hexagon's inscribed disk (radius =
	// edge*sqrt(3)/2), a close-enough stand-in for uniform-in-hexagon.
	r := hexgrid.EdgeLengthM(m.res) * math.Sqrt(3) / 2 * math.Sqrt(rng.Float64())
	return geo.Destination(center, rng.Float64()*360, r)
}

// FromCells builds a map directly from per-cell populations (all cells
// must share the resolution res).
func FromCells(res int, cells map[hexgrid.Cell]float64) *Map {
	m := &Map{res: res, cells: make(map[hexgrid.Cell]float64, len(cells))}
	for c, p := range cells {
		if p <= 0 {
			continue
		}
		if c.Resolution() != res {
			panic(fmt.Sprintf("population: cell %v has resolution %d, map is %d", c, c.Resolution(), res))
		}
		m.cells[c] = p
		m.order = append(m.order, c)
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	m.cum = make([]float64, len(m.order))
	for i, c := range m.order {
		m.total += m.cells[c]
		m.cum[i] = m.total
	}
	return m
}

// CityConfig parameterizes a synthetic city.
type CityConfig struct {
	Center geo.LatLon
	// RadiusKm is the built-up radius; cells beyond ~1.2x are dropped.
	RadiusKm float64
	// Population is the total resident count to distribute.
	Population float64
	// Clusters is the number of secondary density peaks (default 3).
	Clusters int
	// Resolution is the hexagon resolution (default 8, matching Kontur).
	Resolution int
}

func (c *CityConfig) defaults() {
	if c.Clusters == 0 {
		c.Clusters = 3
	}
	if c.Resolution == 0 {
		c.Resolution = 8
	}
	if c.RadiusKm == 0 {
		c.RadiusKm = 5
	}
}

// SyntheticCity generates a population raster: an exponential core around
// the center, secondary cluster peaks, and log-normal texture, scaled to
// the requested total population.
func SyntheticCity(cfg CityConfig, rng *rand.Rand) *Map {
	cfg.defaults()
	radiusM := cfg.RadiusKm * 1000
	box := geo.NewBBox(cfg.Center).Buffer(radiusM * 1.2)
	cells := hexgrid.CoverBBox(box, cfg.Resolution)
	// Deterministic iteration order regardless of CoverBBox internals.
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })

	// Secondary peaks at 30-80% of the radius.
	type cluster struct {
		at     geo.LatLon
		weight float64
		scale  float64
	}
	clusters := make([]cluster, cfg.Clusters)
	for i := range clusters {
		clusters[i] = cluster{
			at:     geo.Destination(cfg.Center, rng.Float64()*360, radiusM*(0.3+0.5*rng.Float64())),
			weight: 0.25 + 0.5*rng.Float64(),
			scale:  radiusM * (0.15 + 0.15*rng.Float64()),
		}
	}
	coreScale := radiusM * 0.35

	weights := make(map[hexgrid.Cell]float64, len(cells))
	var sum float64
	for _, c := range cells {
		center := hexgrid.CellToLatLon(c)
		d := geo.Distance(center, cfg.Center)
		if d > radiusM*1.2 {
			continue
		}
		w := math.Exp(-d / coreScale)
		for _, cl := range clusters {
			dc := geo.Distance(center, cl.at)
			w += cl.weight * math.Exp(-dc*dc/(2*cl.scale*cl.scale))
		}
		// Log-normal texture: median 1, sigma 0.6.
		w *= math.Exp(rng.NormFloat64() * 0.6)
		if w < 1e-6 {
			continue
		}
		weights[c] = w
		sum += w
	}
	if sum == 0 {
		return FromCells(cfg.Resolution, nil)
	}
	scaled := make(map[hexgrid.Cell]float64, len(weights))
	for c, w := range weights {
		scaled[c] = w / sum * cfg.Population
	}
	return FromCells(cfg.Resolution, scaled)
}
