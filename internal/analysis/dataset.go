// Package analysis implements the paper's measurement methodology — the
// primary contribution being reproduced: accuracy as hit/miss bucketing of
// crawled tag locations against vantage-point ground truth, responsiveness
// as first-hit delay, update rates, home filtering, mobility and temporal
// classification, and hexagon/population-density joins.
package analysis

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// Dataset bundles one campaign's collected data: the vantage points'
// ground truth and each companion-app crawler's records.
type Dataset struct {
	GroundTruth []trace.GroundTruth
	// Crawls maps each vendor's crawler output. VendorCombined is
	// synthesized by CrawlsFor.
	Crawls map[trace.Vendor][]trace.CrawlRecord
}

// NewDataset builds a dataset, sorting everything by time.
func NewDataset(gt []trace.GroundTruth, crawls map[trace.Vendor][]trace.CrawlRecord) *Dataset {
	ds := &Dataset{GroundTruth: append([]trace.GroundTruth(nil), gt...), Crawls: make(map[trace.Vendor][]trace.CrawlRecord)}
	trace.SortByTime(ds.GroundTruth)
	for v, recs := range crawls {
		cp := append([]trace.CrawlRecord(nil), recs...)
		trace.SortByTime(cp)
		ds.Crawls[v] = cp
	}
	return ds
}

// CrawlsFor returns the crawl records for a vendor. VendorCombined merges
// the Apple and Samsung records — the paper's emulated unified ecosystem,
// valid because both tags ride the same vantage point.
func (ds *Dataset) CrawlsFor(v trace.Vendor) []trace.CrawlRecord {
	if v != trace.VendorCombined {
		return ds.Crawls[v]
	}
	return trace.Merge(ds.Crawls[trace.VendorApple], ds.Crawls[trace.VendorSamsung])
}

// TruthIndex answers "where was the vantage point at time t" from the
// recorded ground truth, interpolating between fixes.
type TruthIndex struct {
	fixes []trace.GroundTruth
	// MaxGap bounds interpolation: instants farther than MaxGap from any
	// fix have no ground truth (the phone was off or GPS-denied).
	MaxGap time.Duration
}

// NewTruthIndex builds an index over fixes in any order: it stable-sorts
// a copy, so fixes at one instant keep their input order.
func NewTruthIndex(fixes []trace.GroundTruth) *TruthIndex {
	cp := append([]trace.GroundTruth(nil), fixes...)
	trace.SortByTime(cp)
	ti, err := NewSortedTruthIndex(cp)
	if err != nil {
		panic(err) // unreachable: cp was just sorted
	}
	return ti
}

// NewSortedTruthIndex builds an index that takes ownership of fixes
// already in time order. It checks the order instead of sorting, and
// returns an error naming the first fix that precedes its predecessor.
func NewSortedTruthIndex(fixes []trace.GroundTruth) (*TruthIndex, error) {
	for i := 1; i < len(fixes); i++ {
		if fixes[i].T.Before(fixes[i-1].T) {
			return nil, fmt.Errorf("analysis: truth fix %d at %v precedes fix %d at %v",
				i, fixes[i].T, i-1, fixes[i-1].T)
		}
	}
	return &TruthIndex{fixes: fixes, MaxGap: 3 * time.Minute}, nil
}

// Slice returns the index over fixes [lo, hi), sharing the backing array
// and carrying this index's MaxGap. An empty range holds no fixes, like
// NewTruthIndex(nil).
func (ti *TruthIndex) Slice(lo, hi int) *TruthIndex {
	view := &TruthIndex{MaxGap: ti.MaxGap}
	if lo != hi {
		view.fixes = ti.fixes[lo:hi:hi]
	}
	return view
}

// Fixes returns the indexed fixes in time order. The slice is the
// index's own storage: callers must not modify it.
func (ti *TruthIndex) Fixes() []trace.GroundTruth { return ti.fixes }

// Len returns the number of fixes.
func (ti *TruthIndex) Len() int { return len(ti.fixes) }

// All yields every fix in time order.
func (ti *TruthIndex) All() iter.Seq[trace.GroundTruth] { return slices.Values(ti.fixes) }

// Span returns the time range covered by the fixes.
func (ti *TruthIndex) Span() (from, to time.Time, ok bool) {
	if len(ti.fixes) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return ti.fixes[0].T, ti.fixes[len(ti.fixes)-1].T, true
}

// truthAtEdge resolves a query before the first or after the last fix:
// clamp to the edge fix when within maxGap of it.
func truthAtEdge(edge trace.GroundTruth, t time.Time, maxGap time.Duration) (geo.LatLon, bool) {
	d := edge.T.Sub(t)
	if d < 0 {
		d = -d
	}
	if d > maxGap {
		return geo.LatLon{}, false
	}
	return edge.Pos, true
}

// truthAtBetween resolves a query bracketed by two fixes: interpolate
// across small gaps, fall back to the nearer fix across large ones
// (stationary periods record no fixes because only changes are kept).
func truthAtBetween(prev, next trace.GroundTruth, t time.Time, maxGap time.Duration) (geo.LatLon, bool) {
	dPrev, dNext := t.Sub(prev.T), next.T.Sub(t)
	gap := next.T.Sub(prev.T)
	if gap <= maxGap {
		// Interpolate along the movement between the fixes.
		frac := float64(dPrev) / float64(gap)
		return geo.Lerp(prev.Pos, next.Pos, frac), true
	}
	if dPrev <= dNext {
		if dPrev > maxGap {
			return geo.LatLon{}, false
		}
		return prev.Pos, true
	}
	if dNext > maxGap {
		return geo.LatLon{}, false
	}
	return next.Pos, true
}

// At returns the vantage point's position at time t, interpolating between
// the bracketing fixes. ok is false when t falls in a coverage gap.
func (ti *TruthIndex) At(t time.Time) (geo.LatLon, bool) {
	n := len(ti.fixes)
	if n == 0 {
		return geo.LatLon{}, false
	}
	i := sort.Search(n, func(k int) bool { return !ti.fixes[k].T.Before(t) })
	switch {
	case i == 0:
		return truthAtEdge(ti.fixes[0], t, ti.MaxGap)
	case i == n:
		return truthAtEdge(ti.fixes[n-1], t, ti.MaxGap)
	}
	return truthAtBetween(ti.fixes[i-1], ti.fixes[i], t, ti.MaxGap)
}

// HasCoverage reports whether any fix falls within [from, to), or the
// window is bracketed by fixes at most MaxGap apart (a stationary period).
func (ti *TruthIndex) HasCoverage(from, to time.Time) bool {
	n := len(ti.fixes)
	i := sort.Search(n, func(k int) bool { return !ti.fixes[k].T.Before(from) })
	if i < n && ti.fixes[i].T.Before(to) {
		return true
	}
	mid := from.Add(to.Sub(from) / 2)
	_, ok := ti.At(mid)
	return ok
}

// AvgSpeedKmh returns the average ground speed over [from, to]: positions
// are sampled on a one-minute grid and consecutive displacements summed.
// The coarse grid matters: raw 5-second GPS fixes carry meters of white
// noise, and summing that jitter would make a stationary vantage point
// look like a pedestrian (~4 km/h of pure noise). At one-minute spacing
// the noise floor is ~0.25 km/h, safely under the stationary threshold,
// while real walking speeds are unaffected. ok is false when the window
// has no ground-truth coverage.
func (ti *TruthIndex) AvgSpeedKmh(from, to time.Time) (float64, bool) {
	if !to.After(from) {
		return 0, false
	}
	const step = time.Minute
	var dist float64
	var covered time.Duration
	var prevPos geo.LatLon
	prevOK := false
	for t := from; !t.After(to); t = t.Add(step) {
		pos, ok := ti.At(t)
		if ok && prevOK {
			dist += geo.Distance(prevPos, pos)
			covered += step
		}
		prevPos, prevOK = pos, ok
	}
	if covered == 0 {
		// Very short windows can fall between grid points; fall back to
		// direct endpoints.
		a, okA := ti.At(from)
		b, okB := ti.At(to)
		if okA && okB {
			return geo.MsToKmh(geo.Distance(a, b) / to.Sub(from).Seconds()), true
		}
		return 0, false
	}
	return geo.MsToKmh(dist / covered.Seconds()), true
}

// DetectHomes finds the participant's overnight locations (homes,
// hotels — "any place they slept overnight"): positions observed during
// the overnight window (00:00-06:00), clustered within clusterRadiusM
// (<= 0 means the paper's 300 m), kept only when the cluster accumulates
// at least 30 minutes of overnight presence. The dwell requirement
// separates sleeping places from clusters a midnight walk home would
// otherwise scatter along the route. The clustering is a single forward
// pass over fixes in the order given.
func DetectHomes(fixes []trace.GroundTruth, clusterRadiusM float64) []geo.LatLon {
	if clusterRadiusM <= 0 {
		clusterRadiusM = 300
	}
	type homeCluster struct {
		anchor geo.LatLon
		dwell  time.Duration
		lastAt time.Time
	}
	// A cluster outside the fix's latitude band fails the distance test
	// anyway (see geo.LatBandDeg), so skipping it keeps the first fit.
	bandDeg := geo.LatBandDeg(clusterRadiusM)
	var clusters []homeCluster
next:
	for _, f := range fixes {
		if f.T.UTC().Hour() >= 6 {
			continue
		}
		for i := range clusters {
			c := &clusters[i]
			if math.Abs(c.anchor.Lat-f.Pos.Lat) <= bandDeg && geo.Distance(c.anchor, f.Pos) <= clusterRadiusM {
				gap := f.T.Sub(c.lastAt)
				if gap > 0 && gap <= 10*time.Minute {
					// Contiguous presence (stationary periods record
					// sparse fixes, so allow generous gaps).
					c.dwell += gap
				}
				c.lastAt = f.T
				continue next
			}
		}
		clusters = append(clusters, homeCluster{anchor: f.Pos, lastAt: f.T})
	}
	const minDwell = 30 * time.Minute
	var homes []geo.LatLon
	for _, c := range clusters {
		if c.dwell >= minDwell {
			homes = append(homes, c.anchor)
		}
	}
	return homes
}

// NearAnyHome reports whether pos lies within radiusM of any home — the
// per-record predicate behind FilterNearHomes and FilterCrawlsNearHomes,
// exported so streaming paths can filter without materializing slices.
//
// A home outside pos's latitude band (geo.LatBandDeg) is skipped without
// a haversine, so every decision equals the plain all-homes check.
func NearAnyHome(pos geo.LatLon, homes []geo.LatLon, radiusM float64) bool {
	bandDeg := geo.LatBandDeg(radiusM)
	for _, h := range homes {
		if math.Abs(pos.Lat-h.Lat) > bandDeg {
			continue
		}
		if geo.Distance(pos, h) <= radiusM {
			return true
		}
	}
	return false
}

// FilterNearHomes drops fixes within radiusM of any home, returning the
// kept fixes and the fraction removed (the paper filtered 65% of its data
// this way, with a 300 m radius).
func FilterNearHomes(fixes []trace.GroundTruth, homes []geo.LatLon, radiusM float64) (kept []trace.GroundTruth, removedFrac float64) {
	if radiusM <= 0 {
		radiusM = 300
	}
	if len(homes) == 0 {
		return fixes, 0
	}
	kept = make([]trace.GroundTruth, 0, len(fixes))
	for _, f := range fixes {
		if !NearAnyHome(f.Pos, homes, radiusM) {
			kept = append(kept, f)
		}
	}
	if len(fixes) == 0 {
		return kept, 0
	}
	return kept, float64(len(fixes)-len(kept)) / float64(len(fixes))
}

// FilterCrawlsNearHomes applies the same home filter to crawl records (a
// neighbor's phone repeatedly reporting the tag at home would bias
// accuracy upward).
func FilterCrawlsNearHomes(records []trace.CrawlRecord, homes []geo.LatLon, radiusM float64) []trace.CrawlRecord {
	if radiusM <= 0 {
		radiusM = 300
	}
	if len(homes) == 0 {
		return records
	}
	return trace.Filter(records, func(r trace.CrawlRecord) bool {
		return !NearAnyHome(r.Pos, homes, radiusM)
	})
}
