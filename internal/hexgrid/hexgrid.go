// Package hexgrid implements a hierarchical hexagonal spatial index modeled
// after Uber's H3 (the index the paper uses via the Kontur population
// dataset, resolution 8).
//
// Like H3 the index is built on a spherical icosahedron: a position is
// assigned to the nearest of the 20 icosahedron faces, projected onto a
// per-face azimuthal-equidistant plane, and snapped to a pointy-top
// hexagonal lattice whose pitch shrinks by sqrt(7) per resolution
// (aperture 7, with the classic ~19.1 degree rotation between successive
// resolutions). Cells are packed into a uint64 like H3 indexes.
//
// Differences from real H3, documented for the substitution record in
// DESIGN.md: pentagon cells are not modeled (positions that H3 would place
// in one of the 12 pentagons land in a regular hexagon here), and cells do
// not straddle face seams (a city on a seam maps to two disjoint lattices).
// Neither artifact matters for the paper's use of the index - hashing GPS
// points into ~1 km cells to join against a population raster - because the
// analysis only needs a deterministic point->cell map, cell centers, and
// cell areas. Published H3 mean cell areas are reproduced exactly via the
// resolution table (0.737 km^2 at resolution 8).
package hexgrid

import (
	"fmt"
	"math"
	"slices"

	"tagsim/internal/geo"
)

// MaxResolution is the finest supported resolution (matches H3).
const MaxResolution = 15

// Cell is a packed hexagonal cell index.
//
// Layout (most to least significant):
//
//	4 bits  resolution (0..15)
//	5 bits  icosahedron face (0..19)
//	27 bits i axial coordinate, offset by 2^26
//	27 bits j axial coordinate, offset by 2^26
//
// The zero value is an invalid cell (face 0 exists, but offset coordinates
// of zero encode an out-of-range axial pair), so Cell(0) never collides with
// a real cell produced by LatLonToCell.
type Cell uint64

const (
	axialBits   = 27
	axialOffset = 1 << 26
	axialMax    = 1<<axialBits - 1
)

// Invalid is the zero, never-produced cell value.
const Invalid Cell = 0

func packCell(res, face, i, j int) Cell {
	oi := i + axialOffset
	oj := j + axialOffset
	return Cell(uint64(res)<<59 | uint64(face)<<54 |
		uint64(oi)<<axialBits | uint64(oj))
}

// Resolution returns the cell's resolution in [0, MaxResolution].
func (c Cell) Resolution() int { return int(c >> 59) }

// Face returns the icosahedron face the cell lives on.
func (c Cell) Face() int { return int(c>>54) & 0x1f }

func (c Cell) axial() (i, j int) {
	i = int(c>>axialBits&axialMax) - axialOffset
	j = int(c&axialMax) - axialOffset
	return i, j
}

// Valid reports whether c encodes a well-formed cell.
func (c Cell) Valid() bool {
	if c == Invalid {
		return false
	}
	if c.Face() >= 20 {
		return false
	}
	i, j := c.axial()
	return i > -axialOffset && i < axialOffset && j > -axialOffset && j < axialOffset
}

// String renders the cell like an H3 index: a 16-digit hex literal.
func (c Cell) String() string { return fmt.Sprintf("%016x", uint64(c)) }

// meanHexAreaKm2 is the published H3 average hexagon area per resolution
// (km^2), from the H3 cell statistics table. Our lattice pitch is derived
// from these values so that cell areas match H3's at every resolution.
var meanHexAreaKm2 = [MaxResolution + 1]float64{
	4357449.416078381, 609788.441794133, 86801.780398997,
	12393.434655088, 1770.347654491, 252.903858182,
	36.129062164, 5.161293360, 0.737327598,
	0.105332513, 0.015047502, 0.002149643,
	0.000307092, 0.000043870, 0.000006267, 0.000000895,
}

// MeanHexAreaKm2 returns the average cell area at a resolution in km^2.
func MeanHexAreaKm2(res int) float64 {
	if res < 0 || res > MaxResolution {
		return math.NaN()
	}
	return meanHexAreaKm2[res]
}

// EdgeLengthM returns the edge length (meters) of a regular hexagon with
// the published mean area for the resolution.
func EdgeLengthM(res int) float64 {
	areaM2 := MeanHexAreaKm2(res) * 1e6
	// area = 3*sqrt(3)/2 * edge^2
	return math.Sqrt(2 * areaM2 / (3 * math.Sqrt(3)))
}

// hexSize returns the circumradius (= edge length) of the lattice hexagons
// at a resolution, in plane meters.
func hexSize(res int) float64 { return EdgeLengthM(res) }

// icosahedron geometry, built once at init.
type face struct {
	center vec3 // unit vector to face center
	e1, e2 vec3 // orthonormal tangent basis
}

var faces [20]face

// rotation between successive aperture-7 resolutions: asin(sqrt(3)/(2*sqrt(7)))
var res7RotRad = math.Asin(math.Sqrt(3) / (2 * math.Sqrt(7)))

func init() {
	phi := (1 + math.Sqrt(5)) / 2
	verts := []vec3{
		{-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
		{0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
		{phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1},
	}
	for i := range verts {
		verts[i] = verts[i].normalize()
	}
	tris := [20][3]int{
		{0, 11, 5}, {0, 5, 1}, {0, 1, 7}, {0, 7, 10}, {0, 10, 11},
		{1, 5, 9}, {5, 11, 4}, {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
		{3, 9, 4}, {3, 4, 2}, {3, 2, 6}, {3, 6, 8}, {3, 8, 9},
		{4, 9, 5}, {2, 4, 11}, {6, 2, 10}, {8, 6, 7}, {9, 8, 1},
	}
	for f, tri := range tris {
		c := verts[tri[0]].add(verts[tri[1]]).add(verts[tri[2]]).normalize()
		// Tangent basis: project the first vertex direction into the
		// tangent plane for e1, complete with the cross product.
		v0 := verts[tri[0]]
		e1 := v0.sub(c.scale(v0.dot(c))).normalize()
		e2 := c.cross(e1)
		faces[f] = face{center: c, e1: e1, e2: e2}
	}
	for res := range lattices {
		rot := resRotation(res)
		lattices[res] = lattice{
			size: hexSize(res), rot: rot,
			cos: math.Cos(rot), sin: math.Sin(rot),
			cosUndo: math.Cos(-rot), sinUndo: math.Sin(-rot),
		}
	}
}

type vec3 struct{ x, y, z float64 }

func (a vec3) add(b vec3) vec3      { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec3) sub(b vec3) vec3      { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) scale(s float64) vec3 { return vec3{a.x * s, a.y * s, a.z * s} }
func (a vec3) dot(b vec3) float64   { return a.x*b.x + a.y*b.y + a.z*b.z }
func (a vec3) cross(b vec3) vec3 {
	return vec3{a.y*b.z - a.z*b.y, a.z*b.x - a.x*b.z, a.x*b.y - a.y*b.x}
}
func (a vec3) norm() float64 { return math.Sqrt(a.dot(a)) }
func (a vec3) normalize() vec3 {
	n := a.norm()
	if n == 0 {
		return a
	}
	return a.scale(1 / n)
}

func latLonToVec(p geo.LatLon) vec3 {
	lat, lon := p.Radians()
	cl := math.Cos(lat)
	return vec3{cl * math.Cos(lon), cl * math.Sin(lon), math.Sin(lat)}
}

func vecToLatLon(v vec3) geo.LatLon {
	lat := math.Asin(clamp(v.z, -1, 1))
	lon := math.Atan2(v.y, v.x)
	return geo.FromRadians(lat, lon)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// nearestFace returns the face whose center is closest to the unit vector.
func nearestFace(v vec3) int {
	best, bestDot := 0, math.Inf(-1)
	for i := range faces {
		if d := faces[i].center.dot(v); d > bestDot {
			best, bestDot = i, d
		}
	}
	return best
}

// facePlane projects a unit vector onto the face's azimuthal-equidistant
// plane, returning meters east/north of the face center in the face basis.
func facePlane(f int, v vec3) (x, y float64) {
	fc := faces[f]
	d := clamp(fc.center.dot(v), -1, 1)
	theta := math.Acos(d) // angular distance from face center
	if theta < 1e-12 {
		return 0, 0
	}
	// Direction of v in the tangent plane.
	t := v.sub(fc.center.scale(d)).normalize()
	r := theta * geo.EarthRadiusMeters
	return r * t.dot(fc.e1), r * t.dot(fc.e2)
}

// planeToVec inverts facePlane.
func planeToVec(f int, x, y float64) vec3 {
	fc := faces[f]
	r := math.Hypot(x, y)
	if r < 1e-9 {
		return fc.center
	}
	theta := r / geo.EarthRadiusMeters
	t := fc.e1.scale(x / r).add(fc.e2.scale(y / r))
	return fc.center.scale(math.Cos(theta)).add(t.scale(math.Sin(theta))).normalize()
}

// resRotation returns the lattice rotation angle at a resolution. Successive
// resolutions rotate by the aperture-7 angle, mimicking H3's class II/III
// alternation.
func resRotation(res int) float64 { return float64(res) * res7RotRad }

// lattice is one resolution's pointy-top hexagon lattice: circumradius
// size, rotated by rot radians. The rotation's cosines and sines are
// computed once here instead of for every point hashed.
type lattice struct {
	size, rot        float64
	cos, sin         float64 // of rot
	cosUndo, sinUndo float64 // of -rot
}

var lattices [MaxResolution + 1]lattice

// planeToAxial converts plane meters to fractional axial coordinates of
// the lattice.
func (l *lattice) planeToAxial(x, y float64) (qf, rf float64) {
	// Undo the lattice rotation.
	xr := x*l.cosUndo - y*l.sinUndo
	yr := x*l.sinUndo + y*l.cosUndo
	qf = (math.Sqrt(3)/3*xr - 1.0/3*yr) / l.size
	rf = (2.0 / 3 * yr) / l.size
	return qf, rf
}

// axialToPlane converts axial coordinates back to plane meters.
func (l *lattice) axialToPlane(q, r float64) (x, y float64) {
	x = l.size * math.Sqrt(3) * (q + r/2)
	y = l.size * 1.5 * r
	return x*l.cos - y*l.sin, x*l.sin + y*l.cos
}

// axialRound rounds fractional axial coordinates to the containing hexagon
// using cube-coordinate rounding.
func axialRound(qf, rf float64) (q, r int) {
	sf := -qf - rf
	qr := math.Round(qf)
	rr := math.Round(rf)
	sr := math.Round(sf)
	dq := math.Abs(qr - qf)
	dr := math.Abs(rr - rf)
	ds := math.Abs(sr - sf)
	switch {
	case dq > dr && dq > ds:
		qr = -rr - sr
	case dr > ds:
		rr = -qr - sr
	}
	return int(qr), int(rr)
}

// LatLonToCell returns the cell containing p at the given resolution.
// It panics if res is out of range; positions are always mappable.
//
// It is Canonical(FaceCell(p, res)): p is hashed on its nearest face,
// then the cell is canonicalized across face seams.
func LatLonToCell(p geo.LatLon, res int) Cell {
	return Canonical(FaceCell(p, res))
}

// FaceCell returns the lattice cell p snaps to on its nearest face, before
// seam canonicalization. Callers hashing many nearby points (a GPS trace)
// can memoize Canonical on its result: consecutive points usually share
// a FaceCell, and Canonical depends on nothing else. It panics if res is
// out of range.
func FaceCell(p geo.LatLon, res int) Cell {
	if res < 0 || res > MaxResolution {
		panic(fmt.Sprintf("hexgrid: resolution %d out of range", res))
	}
	v := latLonToVec(p)
	return hashOnFace(nearestFace(v), v, res)
}

// Canonical resolves a FaceCell across face seams: when a cell hashed on
// one face has its center on a neighboring face, the index re-hashes at
// the center's face until it reaches a fixed point (breaking the rare
// two-face cycle by choosing the smallest index). This guarantees the
// idempotence the analysis relies on: LatLonToCell(CellToLatLon(c), res)
// == c.
func Canonical(c Cell) Cell {
	res := c.Resolution()
	// At most seven cells are visited (the start plus six re-hashes), so
	// a fixed array serves as the visited set.
	var visited [7]Cell
	visited[0] = c
	n := 1
	for iter := 0; iter < 6; iter++ {
		v := latLonToVec(CellToLatLon(c))
		f := nearestFace(v)
		if f == c.Face() {
			return c
		}
		next := hashOnFace(f, v, res)
		if slices.Contains(visited[:n], next) {
			// Cycle across a face seam: pick the smallest member so every
			// entry point into the cycle resolves to the same cell.
			return slices.Min(visited[:n])
		}
		visited[n] = next
		n++
		c = next
	}
	return c
}

// hashOnFace snaps the unit vector v to the lattice of face f.
func hashOnFace(f int, v vec3, res int) Cell {
	x, y := facePlane(f, v)
	qf, rf := lattices[res].planeToAxial(x, y)
	q, r := axialRound(qf, rf)
	return packCell(res, f, q, r)
}

// CellToLatLon returns the cell's center position.
func CellToLatLon(c Cell) geo.LatLon {
	res := c.Resolution()
	q, r := c.axial()
	x, y := lattices[res].axialToPlane(float64(q), float64(r))
	return vecToLatLon(planeToVec(c.Face(), x, y))
}

// CoverBBox returns the set of cells at a resolution that cover the bounding
// box, found by sampling the box on a grid finer than the cell pitch and
// hashing every sample. The result is deduplicated and includes every cell
// whose center falls in the box (cells only partially overlapping the box
// edges may be included too).
func CoverBBox(b geo.BBox, res int) []Cell {
	step := EdgeLengthM(res) * 0.8
	if step <= 0 {
		return nil
	}
	latStep := step / geo.EarthRadiusMeters * 180 / math.Pi
	midLat := (b.MinLat + b.MaxLat) / 2
	cosLat := math.Cos(midLat * math.Pi / 180)
	if cosLat < 0.01 {
		cosLat = 0.01
	}
	lonStep := latStep / cosLat
	seen := make(map[Cell]bool)
	var out []Cell
	for lat := b.MinLat; lat <= b.MaxLat+latStep; lat += latStep {
		for lon := b.MinLon; lon <= b.MaxLon+lonStep; lon += lonStep {
			c := LatLonToCell(geo.LatLon{Lat: clamp(lat, -90, 90), Lon: geo.NormalizeLon(lon)}, res)
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}
