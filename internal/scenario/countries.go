// Package scenario builds the paper's three experimental settings on top
// of the simulation substrates: the secluded-area RSSI measurement
// (Figure 2), the five-day instrumented cafeteria (Figures 3-4), and the
// six-country in-the-wild campaign (Table 1, Figures 5-8).
package scenario

import (
	"time"

	"tagsim/internal/geo"
)

// CountrySpec describes one row of Table 1: where the vantage point
// traveled, for how long, and how far in each mobility class.
type CountrySpec struct {
	Code   string
	Cities int
	Days   int
	// Distance quotas in km, summed over the whole stay.
	WalkKm, JogKm, TransitKm float64
	// Center anchors the synthetic geography.
	Center geo.LatLon
	// Population of each synthetic city.
	CityPopulation float64
	// AppleShare/SamsungShare split the reporting fleet; they encode the
	// per-country ecosystem skew visible in Table 1's report columns
	// (e.g. the US fleet is overwhelmingly Apple, Switzerland is nearly
	// balanced).
	AppleShare, SamsungShare float64
}

// Table1Countries returns the paper's campaign: 6 countries, 20 cities,
// 120 days, 9,378 km. Quotas are Table 1's Walk/Jog/Transit columns.
func Table1Countries() []CountrySpec {
	return []CountrySpec{
		{Code: "US", Cities: 2, Days: 30, WalkKm: 14, JogKm: 22, TransitKm: 871,
			Center: geo.LatLon{Lat: 40.7357, Lon: -74.1724}, CityPopulation: 280000,
			AppleShare: 0.62, SamsungShare: 0.05},
		{Code: "IT", Cities: 10, Days: 28, WalkKm: 157, JogKm: 68, TransitKm: 3170,
			Center: geo.LatLon{Lat: 45.4642, Lon: 9.1900}, CityPopulation: 220000,
			AppleShare: 0.50, SamsungShare: 0.22},
		{Code: "AE", Cities: 2, Days: 52, WalkKm: 145, JogKm: 151, TransitKm: 3384,
			Center: geo.LatLon{Lat: 24.4539, Lon: 54.3773}, CityPopulation: 300000,
			AppleShare: 0.58, SamsungShare: 0.13},
		{Code: "PK", Cities: 1, Days: 2, WalkKm: 13, JogKm: 16, TransitKm: 165,
			Center: geo.LatLon{Lat: 33.6844, Lon: 73.0479}, CityPopulation: 180000,
			AppleShare: 0.50, SamsungShare: 0.20},
		{Code: "CH", Cities: 1, Days: 3, WalkKm: 14, JogKm: 16, TransitKm: 62,
			Center: geo.LatLon{Lat: 47.3769, Lon: 8.5417}, CityPopulation: 200000,
			AppleShare: 0.42, SamsungShare: 0.35},
		{Code: "DE", Cities: 4, Days: 5, WalkKm: 46, JogKm: 45, TransitKm: 1021,
			Center: geo.LatLon{Lat: 52.5200, Lon: 13.4050}, CityPopulation: 240000,
			AppleShare: 0.58, SamsungShare: 0.13},
	}
}

// CampaignStart is when the paper's deployment began (March 2022).
var CampaignStart = time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC)
