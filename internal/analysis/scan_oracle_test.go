package analysis

import (
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

// The per-call scans below are the test oracles of the columnar Index
// (mirroring device.NearBrute): each query re-dedups the crawl log and
// walks it bucket by bucket, and index_test.go checks every Index
// metric against them. The plain forms of FirstHitDelays, NearAnyHome
// and HexVisits at the end are the oracles of their fast paths
// (oracle_prop_test.go).

// accuracyScan is the reference implementation of Index.Accuracy.
func accuracyScan(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time) AccuracyResult {
	if bucket <= 0 || !to.After(from) {
		return AccuracyResult{}
	}
	// Index distinct reports by ReportedAt.
	distinct := distinctByReportTime(reports)
	var res AccuracyResult
	ri := 0
	for bs := from; bs.Before(to); bs = bs.Add(bucket) {
		be := bs.Add(bucket)
		if !truth.HasCoverage(bs, be) {
			continue
		}
		res.Buckets++
		// Advance to the first report in this bucket.
		for ri < len(distinct) && distinct[ri].ReportedAt.Before(bs) {
			ri++
		}
		for k := ri; k < len(distinct) && distinct[k].ReportedAt.Before(be); k++ {
			pos, ok := truth.At(distinct[k].ReportedAt)
			if !ok {
				continue
			}
			if geo.Distance(pos, distinct[k].Pos) <= radiusM {
				res.Hits++
				break
			}
		}
	}
	return res
}

// dailyAccuracyScan is the pre-index reference implementation of
// DailyAccuracy (per-day rescan of the raw crawl log).
func dailyAccuracyScan(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, minBuckets int) []float64 {
	if minBuckets <= 0 {
		minBuckets = 3
	}
	var out []float64
	for day := from.UTC().Truncate(24 * time.Hour); day.Before(to); day = day.Add(24 * time.Hour) {
		dayEnd := day.Add(24 * time.Hour)
		lo, hi := maxTime(day, from), minTime(dayEnd, to)
		if !hi.After(lo) {
			continue
		}
		res := accuracyScan(truth, reports, bucket, radiusM, lo, hi)
		if res.Buckets >= minBuckets {
			out = append(out, res.Pct())
		}
	}
	return out
}

// accuracyByClassScan is the pre-index reference implementation of
// AccuracyByClass.
func accuracyByClassScan(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier) map[string]AccuracyResult {
	out := make(map[string]AccuracyResult)
	if bucket <= 0 || !to.After(from) {
		return out
	}
	distinct := distinctByReportTime(reports)
	ri := 0
	for bs := from; bs.Before(to); bs = bs.Add(bucket) {
		be := bs.Add(bucket)
		if !truth.HasCoverage(bs, be) {
			continue
		}
		class, ok := classify(bs, be)
		if !ok {
			continue
		}
		res := out[class]
		res.Buckets++
		for ri < len(distinct) && distinct[ri].ReportedAt.Before(bs) {
			ri++
		}
		for k := ri; k < len(distinct) && distinct[k].ReportedAt.Before(be); k++ {
			pos, tok := truth.At(distinct[k].ReportedAt)
			if !tok {
				continue
			}
			if geo.Distance(pos, distinct[k].Pos) <= radiusM {
				res.Hits++
				break
			}
		}
		out[class] = res
	}
	return out
}

// dailyAccuracyByClassScan is the pre-index reference implementation of
// DailyAccuracyByClass.
func dailyAccuracyByClassScan(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier, minBuckets int) map[string][]float64 {
	if minBuckets <= 0 {
		minBuckets = 3
	}
	out := make(map[string][]float64)
	for day := from.UTC().Truncate(24 * time.Hour); day.Before(to); day = day.Add(24 * time.Hour) {
		dayEnd := day.Add(24 * time.Hour)
		lo, hi := maxTime(day, from), minTime(dayEnd, to)
		if !hi.After(lo) {
			continue
		}
		byClass := accuracyByClassScan(truth, reports, bucket, radiusM, lo, hi, classify)
		for class, res := range byClass {
			if res.Buckets >= minBuckets {
				out[class] = append(out[class], res.Pct())
			}
		}
	}
	return out
}

// cellAccuracyScan is the pre-index reference implementation of
// CellAccuracy (one full accuracy scan per visit).
func cellAccuracyScan(truth *TruthIndex, reports []trace.CrawlRecord, visits []HexVisit, bucket time.Duration, radiusM float64) map[hexgrid.Cell]float64 {
	if bucket <= 0 {
		bucket = time.Hour
	}
	perCell := make(map[hexgrid.Cell]*AccuracyResult)
	for _, v := range visits {
		res := accuracyScan(truth, reports, bucket, radiusM, v.Enter, v.Leave.Add(bucket))
		acc, ok := perCell[v.Cell]
		if !ok {
			acc = &AccuracyResult{}
			perCell[v.Cell] = acc
		}
		acc.Add(res)
	}
	out := make(map[hexgrid.Cell]float64, len(perCell))
	for cell, acc := range perCell {
		if acc.Buckets > 0 {
			out[cell] = acc.Pct()
		}
	}
	return out
}

// firstHitDelaysScan is the reference implementation of FirstHitDelays:
// every episode scans the distinct reports from the start, skipping
// those before the episode instead of seeking past them.
func firstHitDelaysScan(episodes []Episode, reports []trace.CrawlRecord, radiusM float64, maxLag time.Duration) []HitDelay {
	distinct := distinctByReportTime(reports)
	out := make([]HitDelay, 0, len(episodes))
	for _, ep := range episodes {
		hd := HitDelay{Episode: ep}
		deadline := ep.End.Add(maxLag)
		for _, r := range distinct {
			if r.ReportedAt.Before(ep.Start) {
				continue
			}
			if r.ReportedAt.After(deadline) {
				break
			}
			if geo.Distance(r.Pos, ep.Anchor) <= radiusM {
				hd.Delay = r.ReportedAt.Sub(ep.Start)
				hd.Found = true
				break
			}
		}
		out = append(out, hd)
	}
	return out
}

// nearAnyHomeScan is the reference implementation of NearAnyHome: a
// haversine against every home, with no latitude-band cull.
func nearAnyHomeScan(pos geo.LatLon, homes []geo.LatLon, radiusM float64) bool {
	for _, h := range homes {
		if geo.Distance(pos, h) <= radiusM {
			return true
		}
	}
	return false
}

// hexVisitsScan is the reference implementation of HexVisits: every fix
// is hashed with a full hexgrid.LatLonToCell, with no seam memo.
func hexVisitsScan(fixes []trace.GroundTruth, res int, minDwell, maxGap time.Duration) []HexVisit {
	var out []HexVisit
	var cur *HexVisit
	flush := func() {
		if cur != nil && cur.Duration() >= minDwell {
			out = append(out, *cur)
		}
		cur = nil
	}
	for _, f := range fixes {
		cell := hexgrid.LatLonToCell(f.Pos, res)
		if cur != nil {
			if cell == cur.Cell && f.T.Sub(cur.Leave) <= maxGap {
				cur.Leave = f.T
				continue
			}
			flush()
		}
		cur = &HexVisit{Cell: cell, Enter: f.T, Leave: f.T}
	}
	flush()
	return out
}
