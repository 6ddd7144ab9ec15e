// Package geo provides the WGS-84 geodesic primitives used throughout the
// simulator: positions, distances, bearings, destination points, local
// tangent-plane (ENU) projections, and polyline paths.
//
// The simulator deals with distances of at most a few hundred kilometers, so
// a spherical earth model (haversine and rhumb-free direct geodesics) is
// accurate to well under the GPS noise floor the experiments care about.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean earth radius used by the spherical model.
const EarthRadiusMeters = 6371008.8

// LatLon is a WGS-84 position in decimal degrees.
//
// The zero value is the "null island" position (0, 0), which the simulator
// treats as a valid coordinate; use IsZero to test for it explicitly.
type LatLon struct {
	Lat float64 // degrees, positive north, in [-90, 90]
	Lon float64 // degrees, positive east, in (-180, 180]
}

// IsZero reports whether p is the zero position (0, 0).
func (p LatLon) IsZero() bool { return p.Lat == 0 && p.Lon == 0 }

// String formats the position with ~0.1 m precision (6 decimal places).
func (p LatLon) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Radians returns the position in radians.
func (p LatLon) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// FromRadians builds a LatLon from radians, normalizing the longitude into
// (-180, 180].
func FromRadians(lat, lon float64) LatLon {
	return LatLon{
		Lat: lat * 180 / math.Pi,
		Lon: NormalizeLon(lon * 180 / math.Pi),
	}
}

// NormalizeLon wraps a longitude in degrees into (-180, 180].
func NormalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon <= -180 {
		lon += 360
	}
	return lon
}

// Distance returns the great-circle distance between p and q in meters.
func Distance(p, q LatLon) float64 {
	lat1, lon1 := p.Radians()
	lat2, lon2 := q.Radians()
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(a))
}

// LatBandDeg returns the latitude difference, in degrees, beyond which
// two points are certainly more than radiusM apart. A great-circle
// distance is at least R·|Δlat| (in radians), so a pair whose latitudes
// differ by more than (radiusM + 1 m)/R fails a Distance <= radiusM test
// without computing the haversine; the 1 m of slack dwarfs the
// floating-point error of Distance, so the shortcut decides every pair
// the way Distance would.
func LatBandDeg(radiusM float64) float64 {
	return (radiusM + 1) / EarthRadiusMeters * 180 / math.Pi
}

// LonBandDeg is LatBandDeg's longitude counterpart: the longitude
// difference, in degrees, beyond which a point is certainly more than
// radiusM from a point at latitude lat. The points within angular
// distance δ of a point at latitude φ span the longitudes
// ±asin(sin δ / cos φ) around it, so with δ = (radiusM + 1 m)/R the
// band holds every point Distance puts within radiusM, float error
// included. It returns +Inf when the cap reaches a pole, where every
// longitude is that close.
func LonBandDeg(lat, radiusM float64) float64 {
	delta := (radiusM + 1) / EarthRadiusMeters
	s := math.Sin(delta) / math.Cos(lat*math.Pi/180)
	if delta >= math.Pi/2 || !(s < 1) {
		return math.Inf(1)
	}
	return math.Asin(s) * 180 / math.Pi
}

// Bearing returns the initial great-circle bearing from p to q in degrees
// clockwise from north, in [0, 360).
func Bearing(p, q LatLon) float64 {
	lat1, lon1 := p.Radians()
	lat2, lon2 := q.Radians()
	dLon := lon2 - lon1
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	deg := math.Atan2(y, x) * 180 / math.Pi
	if deg < 0 {
		deg += 360
	}
	return deg
}

// Destination returns the point reached by traveling distanceM meters from p
// along the given initial bearing (degrees clockwise from north).
func Destination(p LatLon, bearingDeg, distanceM float64) LatLon {
	lat1, lon1 := p.Radians()
	brg := bearingDeg * math.Pi / 180
	ad := distanceM / EarthRadiusMeters // angular distance
	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg)
	lat2 := math.Asin(clamp(sinLat2, -1, 1))
	y := math.Sin(brg) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*math.Sin(lat2)
	lon2 := lon1 + math.Atan2(y, x)
	return FromRadians(lat2, lon2)
}

// Midpoint returns the great-circle midpoint between p and q.
func Midpoint(p, q LatLon) LatLon {
	lat1, lon1 := p.Radians()
	lat2, lon2 := q.Radians()
	dLon := lon2 - lon1
	bx := math.Cos(lat2) * math.Cos(dLon)
	by := math.Cos(lat2) * math.Sin(dLon)
	lat := math.Atan2(math.Sin(lat1)+math.Sin(lat2),
		math.Sqrt((math.Cos(lat1)+bx)*(math.Cos(lat1)+bx)+by*by))
	lon := lon1 + math.Atan2(by, math.Cos(lat1)+bx)
	return FromRadians(lat, lon)
}

// Lerp interpolates along the great circle from p to q; t=0 yields p, t=1
// yields q. t outside [0,1] extrapolates.
func Lerp(p, q LatLon, t float64) LatLon {
	d := Distance(p, q)
	if d == 0 {
		return p
	}
	return lerpDist(p, q, d, t)
}

// lerpDist is Lerp for a caller that already holds d = Distance(p, q) > 0.
func lerpDist(p, q LatLon, d, t float64) LatLon {
	return Destination(p, Bearing(p, q), d*t)
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

// ENU is a local east-north-up tangent plane anchored at an origin. It maps
// nearby WGS-84 positions to planar meters, which the radio and hexgrid
// packages use for geometry that must be exactly Euclidean.
type ENU struct {
	cosLat   float64
	originLa float64 // origin latitude in radians
	originLo float64 // origin longitude in radians
}

// NewENU anchors a local tangent plane at origin.
func NewENU(origin LatLon) *ENU {
	lat, lon := origin.Radians()
	return &ENU{cosLat: math.Cos(lat), originLa: lat, originLo: lon}
}

// Forward projects a position to local (east, north) meters.
func (e *ENU) Forward(p LatLon) (x, y float64) {
	lat, lon := p.Radians()
	x = (lon - e.originLo) * e.cosLat * EarthRadiusMeters
	y = (lat - e.originLa) * EarthRadiusMeters
	return x, y
}

// Reverse maps local (east, north) meters back to a WGS-84 position.
func (e *ENU) Reverse(x, y float64) LatLon {
	lat := e.originLa + y/EarthRadiusMeters
	lon := e.originLo + x/(e.cosLat*EarthRadiusMeters)
	return FromRadians(lat, lon)
}

// BBox is a latitude/longitude bounding box. It does not handle antimeridian
// crossings; the simulated worlds are city-scale and never cross it.
type BBox struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// NewBBox returns the minimal box containing all points. An empty input
// yields the zero box.
func NewBBox(points ...LatLon) BBox {
	if len(points) == 0 {
		return BBox{}
	}
	b := BBox{
		MinLat: points[0].Lat, MaxLat: points[0].Lat,
		MinLon: points[0].Lon, MaxLon: points[0].Lon,
	}
	for _, p := range points[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns the box grown to contain p.
func (b BBox) Extend(p LatLon) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p LatLon) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat && p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Buffer returns the box expanded by meters on every side.
func (b BBox) Buffer(meters float64) BBox {
	dLat := meters / EarthRadiusMeters * 180 / math.Pi
	cos := math.Cos((b.MinLat + b.MaxLat) / 2 * math.Pi / 180)
	if cos < 0.01 {
		cos = 0.01
	}
	dLon := dLat / cos
	return BBox{
		MinLat: b.MinLat - dLat, MaxLat: b.MaxLat + dLat,
		MinLon: b.MinLon - dLon, MaxLon: b.MaxLon + dLon,
	}
}

// Path is an ordered sequence of waypoints traversed with great-circle
// segments.
type Path []LatLon

// Length returns the total path length in meters.
func (p Path) Length() float64 {
	var total float64
	for i := 1; i < len(p); i++ {
		total += Distance(p[i-1], p[i])
	}
	return total
}

// At returns the position at the given distance (meters) from the start,
// clamping to the endpoints. An empty path returns the zero position; a
// single-point path returns that point.
func (p Path) At(distanceM float64) LatLon {
	if len(p) == 0 {
		return LatLon{}
	}
	if len(p) == 1 || distanceM <= 0 {
		return p[0]
	}
	remaining := distanceM
	for i := 1; i < len(p); i++ {
		seg := Distance(p[i-1], p[i])
		if remaining <= seg {
			if seg == 0 {
				return p[i]
			}
			// seg is the Distance Lerp would compute again.
			return lerpDist(p[i-1], p[i], seg, remaining/seg)
		}
		remaining -= seg
	}
	return p[len(p)-1]
}

// Speed conversion helpers. The paper classifies mobility by km/h.

// KmhToMs converts km/h to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }
