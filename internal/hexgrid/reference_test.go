package hexgrid

import (
	"math"
	"math/rand"
	"testing"

	"tagsim/internal/geo"
)

// The reference below is LatLonToCell and CellToLatLon in their plain
// form: the lattice rotation's cosine and sine recomputed for every point,
// the unit vector recomputed for every hash, and the seam walk's visited
// set kept in a map. TestLatLonToCellMatchesReference pins the production
// code to it bit for bit.

func latLonToCellRef(p geo.LatLon, res int) Cell {
	c := hashOnFaceRef(nearestFace(latLonToVec(p)), p, res)
	visited := map[Cell]bool{c: true}
	for iter := 0; iter < 6; iter++ {
		center := cellToLatLonRef(c)
		f := nearestFace(latLonToVec(center))
		if f == c.Face() {
			return c
		}
		next := hashOnFaceRef(f, center, res)
		if visited[next] {
			best := next
			for v := range visited {
				if v < best {
					best = v
				}
			}
			return best
		}
		visited[next] = true
		c = next
	}
	return c
}

func hashOnFaceRef(f int, p geo.LatLon, res int) Cell {
	x, y := facePlane(f, latLonToVec(p))
	rot := resRotation(res)
	cos, sin := math.Cos(-rot), math.Sin(-rot)
	xr := x*cos - y*sin
	yr := x*sin + y*cos
	qf := (math.Sqrt(3)/3*xr - 1.0/3*yr) / hexSize(res)
	rf := (2.0 / 3 * yr) / hexSize(res)
	q, r := axialRound(qf, rf)
	return packCell(res, f, q, r)
}

func cellToLatLonRef(c Cell) geo.LatLon {
	res := c.Resolution()
	qi, ri := c.axial()
	q, r := float64(qi), float64(ri)
	size, rot := hexSize(res), resRotation(res)
	x := size * math.Sqrt(3) * (q + r/2)
	y := size * 1.5 * r
	cos, sin := math.Cos(rot), math.Sin(rot)
	return vecToLatLon(planeToVec(c.Face(), x*cos-y*sin, x*sin+y*cos))
}

// seamWalks steps 20 m at a time across every seam between two adjacent
// icosahedron faces, 3 km to either side, at five places along each seam.
func seamWalks() []geo.LatLon {
	var out []geo.LatLon
	for a := range faces {
		for b := a + 1; b < len(faces); b++ {
			// Adjacent faces' centers are the closest pairs (dot ~0.745;
			// the next ring is ~0.333).
			if faces[a].center.dot(faces[b].center) < 0.7 {
				continue
			}
			mid := vecToLatLon(faces[a].center.add(faces[b].center).normalize())
			across := geo.Bearing(mid, vecToLatLon(faces[b].center))
			for k := -2; k <= 2; k++ {
				start := geo.Destination(mid, across+90, float64(k)*50000)
				start = geo.Destination(start, across+180, 3000)
				for d := 0.0; d <= 6000; d += 20 {
					out = append(out, geo.Destination(start, across, d))
				}
			}
		}
	}
	return out
}

// TestLatLonToCellMatchesReference checks LatLonToCell and CellToLatLon
// against the reference on random points worldwide at several
// resolutions and on the seam walks, which must include points whose
// face cell the seam loop re-hashes onto the neighbouring face.
func TestLatLonToCellMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		p := geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		for _, res := range []int{0, 3, 5, 8, 10, 12, 15} {
			got, want := LatLonToCell(p, res), latLonToCellRef(p, res)
			if got != want {
				t.Fatalf("LatLonToCell(%v, %d) = %v, reference %v", p, res, got, want)
			}
			if gc, wc := CellToLatLon(got), cellToLatLonRef(want); gc != wc {
				t.Fatalf("CellToLatLon(%v) = %v, reference %v", got, gc, wc)
			}
		}
	}
	seam := seamWalks()
	for _, res := range []int{5, 8, 10} {
		rehashed := 0
		for _, p := range seam {
			fc := FaceCell(p, res)
			if nearestFace(latLonToVec(CellToLatLon(fc))) != fc.Face() {
				rehashed++
			}
			if got, want := LatLonToCell(p, res), latLonToCellRef(p, res); got != want {
				t.Fatalf("seam point %v res %d: LatLonToCell %v, reference %v", p, res, got, want)
			}
		}
		if rehashed == 0 {
			t.Fatalf("res %d: no seam point needed a second seam-loop pass", res)
		}
	}
}
