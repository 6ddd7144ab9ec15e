package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/population"
	"tagsim/internal/runner"
	"tagsim/internal/scenario"
	"tagsim/internal/stats"
	"tagsim/internal/trace"
)

// Figure6Result reproduces Figure 6: the hexagons visited by a
// participant, colored by population density class.
type Figure6Result struct {
	Country      string
	Resolution   int
	Visits       []analysis.HexVisit
	CellsByClass map[population.DensityClass][]hexgrid.Cell
	// Map is an ASCII rendering of the visited area.
	Map string
}

// Figure6 computes visited hexagons (>=5 consecutive minutes, resolution
// 8) for one country's participant and classifies them by density.
func Figure6(c *Campaign, country string) *Figure6Result {
	var cr *scenario.CountryResult
	for i := range c.Result.Countries {
		if c.Result.Countries[i].Spec.Code == country {
			cr = &c.Result.Countries[i]
			break
		}
	}
	if cr == nil {
		return &Figure6Result{Country: country}
	}
	const res = 8
	visits := analysis.HexVisits(cr.Dataset.GroundTruth, res, 5*time.Minute, 5*time.Minute)
	out := &Figure6Result{
		Country:      country,
		Resolution:   res,
		Visits:       visits,
		CellsByClass: make(map[population.DensityClass][]hexgrid.Cell),
	}
	cells := analysis.DistinctCells(visits)
	classes := make([]population.DensityClass, len(cells))
	for i, cell := range cells {
		classes[i] = population.Classify(cr.Population.DensityOfCell(cell))
		out.CellsByClass[classes[i]] = append(out.CellsByClass[classes[i]], cell)
	}
	out.Map = renderHexMap(cells, classes)
	return out
}

// renderHexMap draws visited cells on a small ASCII grid: L/M/H for the
// density class of each visited hexagon (classes[i] is cells[i]'s).
func renderHexMap(cells []hexgrid.Cell, classes []population.DensityClass) string {
	if len(cells) == 0 {
		return "(no visited hexagons)\n"
	}
	pts := make([]geo.LatLon, len(cells))
	for i, c := range cells {
		pts[i] = hexgrid.CellToLatLon(c)
	}
	box := geo.NewBBox(pts...)
	const w, h = 48, 16
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	mark := map[population.DensityClass]byte{
		population.DensityLow:    'L',
		population.DensityMedium: 'M',
		population.DensityHigh:   'H',
	}
	for i, p := range pts {
		var x, y int
		if box.MaxLon > box.MinLon {
			x = int((p.Lon - box.MinLon) / (box.MaxLon - box.MinLon) * (w - 1))
		}
		if box.MaxLat > box.MinLat {
			y = int((box.MaxLat - p.Lat) / (box.MaxLat - box.MinLat) * (h - 1))
		}
		grid[min(max(y, 0), h-1)][min(max(x, 0), w-1)] = mark[classes[i]]
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints the visited-hexagon summary and ASCII map.
func (r *Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: hexagons visited in %s (H3-like res %d, >=5 consecutive minutes)\n", r.Country, r.Resolution)
	total := 0
	for _, cls := range []population.DensityClass{population.DensityLow, population.DensityMedium, population.DensityHigh} {
		n := len(r.CellsByClass[cls])
		total += n
		fmt.Fprintf(&b, "  %s density: %d hexagons\n", cls, n)
	}
	fmt.Fprintf(&b, "  total visited: %d hexagons, %d visits\n", total, len(r.Visits))
	b.WriteString(r.Map)
	return b.String()
}

// Figure7Class is one density stratum's accuracy distribution.
type Figure7Class struct {
	Class    population.DensityClass
	Vendor   trace.Vendor
	Cells    int
	ZeroFrac float64 // P(accuracy == 0)
	Median   float64
	CDF      *stats.ECDF
}

// Figure7Result reproduces Figure 7: CDFs of per-hexagon accuracy by
// population density (1-hour responsiveness, 100 m radius).
type Figure7Result struct {
	Classes []Figure7Class
}

// Figure7 joins per-hexagon accuracy with the density rasters across all
// countries. The countries are independent worlds and fan out across the
// worker pool; within one country the campaign's truth view over its
// own filtered fixes and the hexagon visits over it are shared by all
// three ecosystems (the per-vendor crawl logs still differ), and each
// (country, vendor) pair merges against its own one-shot analysis index.
// Results are pooled in deterministic vendor-major, country-minor,
// cell-sorted order.
func Figure7(c *Campaign) *Figure7Result {
	const radius = 100.0
	window := time.Hour
	res := &Figure7Result{}
	// classified is one density-classified accuracy sample.
	type classified struct {
		cls population.DensityClass
		pct float64
	}
	perCountry := runner.Map(c.Options.Workers, len(c.Result.Countries), func(i int) [][]classified {
		cr := &c.Result.Countries[i]
		truth := c.countryTruth[i]
		visits := analysis.HexVisits(truth.Fixes(), 8, 5*time.Minute, 5*time.Minute)
		cells := analysis.DistinctCells(visits)
		out := make([][]classified, len(Vendors))
		for vi, vendor := range Vendors {
			reports := analysis.FilterCrawlsNearHomes(cr.Dataset.CrawlsFor(vendor), cr.Homes, 300)
			acc := analysis.CellAccuracy(truth, reports, visits, window, radius)
			for _, cell := range cells {
				pct, ok := acc[cell]
				if !ok {
					continue
				}
				cls := population.Classify(cr.Population.DensityOfCell(cell))
				out[vi] = append(out[vi], classified{cls: cls, pct: pct})
			}
		}
		return out
	})
	for vi := range Vendors {
		vendor := Vendors[vi]
		// Per-class accuracy samples pooled across countries.
		samples := map[population.DensityClass][]float64{}
		for ci := range perCountry {
			for _, s := range perCountry[ci][vi] {
				samples[s.cls] = append(samples[s.cls], s.pct)
			}
		}
		for _, cls := range []population.DensityClass{population.DensityLow, population.DensityMedium, population.DensityHigh} {
			xs := samples[cls]
			fc := Figure7Class{Class: cls, Vendor: vendor, Cells: len(xs), CDF: stats.NewECDF(xs)}
			if len(xs) > 0 {
				zero := 0
				for _, x := range xs {
					if x == 0 {
						zero++
					}
				}
				fc.ZeroFrac = float64(zero) / float64(len(xs))
				fc.Median = stats.Percentile(xs, 50)
			}
			res.Classes = append(res.Classes, fc)
		}
	}
	return res
}

// Class returns the stratum for a vendor/class pair.
func (r *Figure7Result) Class(v trace.Vendor, cls population.DensityClass) (Figure7Class, bool) {
	for _, c := range r.Classes {
		if c.Vendor == v && c.Class == cls {
			return c, true
		}
	}
	return Figure7Class{}, false
}

// Render prints per-class distribution statistics and CDF deciles.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7: CDF of per-hexagon accuracy by population density (1 h, 100 m)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "vendor\tdensity\thexes\tP(acc=0)\tmedian\tCDF@25\tCDF@50\tCDF@75")
	for _, c := range r.Classes {
		if c.Cells == 0 {
			fmt.Fprintf(tw, "%s\t%s\t0\t-\t-\t-\t-\t-\n", c.Vendor, c.Class)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%.1f\t%.2f\t%.2f\t%.2f\n",
			c.Vendor, c.Class, c.Cells, c.ZeroFrac, c.Median,
			c.CDF.Eval(25), c.CDF.Eval(50), c.CDF.Eval(75))
	}
	tw.Flush()
	return b.String()
}
