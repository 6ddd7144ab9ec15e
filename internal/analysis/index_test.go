package analysis

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// randomTruth fabricates a ground-truth track with realistic pathologies:
// several walk segments separated by coverage gaps of random length (some
// longer than MaxGap), occasional duplicate-instant fixes, and stationary
// stretches that record no fixes.
func randomTruth(rng *rand.Rand, start time.Time) []trace.GroundTruth {
	var fixes []trace.GroundTruth
	at := start
	pos := origin
	for seg := 0; seg < 3+rng.Intn(3); seg++ {
		dur := time.Duration(10+rng.Intn(120)) * time.Minute
		fixes = append(fixes, walkFixes(at, pos, 2+rng.Float64()*6, dur)...)
		if len(fixes) > 0 {
			last := fixes[len(fixes)-1]
			pos = last.Pos
			at = last.T
		}
		if rng.Intn(3) == 0 && len(fixes) > 0 {
			// Duplicate instant (buffered uploads can repeat a fix).
			fixes = append(fixes, fixes[len(fixes)-1])
		}
		// Gap before the next segment: sometimes within MaxGap, sometimes
		// far beyond it (phone off).
		at = at.Add(time.Duration(1+rng.Intn(40)) * time.Minute)
	}
	return fixes
}

// randomCrawl fabricates a crawl log with duplicates of the same report,
// equal-timestamp records across tags, reports during coverage gaps, and
// reports far outside the truth span.
func randomCrawl(rng *rand.Rand, ti *TruthIndex, from time.Time, span time.Duration, n int) []trace.CrawlRecord {
	tags := []string{"tag-a", "tag-b"}
	var out []trace.CrawlRecord
	for i := 0; i < n; i++ {
		at := from.Add(time.Duration(rng.Int63n(int64(span))) - span/8)
		base, ok := ti.At(at)
		if !ok {
			base = geo.Destination(origin, rng.Float64()*360, rng.Float64()*2000)
		}
		rec := trace.CrawlRecord{
			CrawlT:     at.Add(time.Minute),
			TagID:      tags[rng.Intn(len(tags))],
			Pos:        geo.Destination(base, rng.Float64()*360, rng.Float64()*200),
			ReportedAt: at,
		}
		out = append(out, rec)
		// Re-observe the same report a minute later with reconstruction
		// jitter, like the real crawlers do.
		for d := 0; d < rng.Intn(3); d++ {
			dup := rec
			dup.CrawlT = rec.CrawlT.Add(time.Duration(d+1) * time.Minute)
			dup.ReportedAt = rec.ReportedAt.Add(time.Duration(rng.Intn(120)-60) * time.Second)
			out = append(out, dup)
		}
		if rng.Intn(4) == 0 {
			// Equal-timestamp record for the other tag.
			twin := rec
			twin.TagID = tags[(rng.Intn(len(tags))+1)%len(tags)]
			out = append(out, twin)
		}
	}
	return out
}

// TestIndexMatchesScanReference is the equivalence property the whole PR
// rests on: for randomized truth tracks, crawl logs, bucket lengths,
// radii, and (possibly misaligned) windows, the index-backed metrics
// must reproduce the legacy scan implementations exactly.
func TestIndexMatchesScanReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fixes := randomTruth(rng, t0)
		ti := NewTruthIndex(fixes)
		from, to, ok := ti.Span()
		if !ok {
			t.Fatalf("seed %d: empty truth", seed)
		}
		span := to.Sub(from) + time.Hour
		reports := randomCrawl(rng, ti, from, span, 40+rng.Intn(120))
		ix := NewIndex(ti, reports)

		for _, bucket := range []time.Duration{time.Minute, 7 * time.Minute, 10 * time.Minute, time.Hour} {
			for _, radius := range []float64{5, 50, 100, 300} {
				// Misalign the window from the bucket grid and the fixes.
				lo := from.Add(-time.Duration(rng.Intn(600)) * time.Second)
				hi := to.Add(time.Duration(rng.Intn(600)) * time.Second)
				want := accuracyScan(ti, reports, bucket, radius, lo, hi)
				got := ix.Accuracy(bucket, radius, lo, hi)
				if got != want {
					t.Fatalf("seed %d bucket %v radius %.0f: Accuracy index %+v != scan %+v", seed, bucket, radius, got, want)
				}

				wantDaily := dailyAccuracyScan(ti, reports, bucket, radius, lo, hi, 2)
				gotDaily := ix.DailyAccuracy(bucket, radius, lo, hi, 2)
				if !reflect.DeepEqual(gotDaily, wantDaily) {
					t.Fatalf("seed %d bucket %v radius %.0f: DailyAccuracy index %v != scan %v", seed, bucket, radius, gotDaily, wantDaily)
				}

				wantClass := accuracyByClassScan(ti, reports, bucket, radius, lo, hi, PeriodClassifier)
				gotClass := ix.AccuracyByClass(bucket, radius, lo, hi, PeriodClassifier)
				if !reflect.DeepEqual(gotClass, wantClass) {
					t.Fatalf("seed %d bucket %v radius %.0f: AccuracyByClass index %v != scan %v", seed, bucket, radius, gotClass, wantClass)
				}
			}
		}

		wantDailyClass := dailyAccuracyByClassScan(ti, reports, 10*time.Minute, 100, from, to, SpeedClassifier(ti), 1)
		gotDailyClass := NewIndex(ti, reports).DailyAccuracyByClass(10*time.Minute, 100, from, to, SpeedClassifier(ti), 1)
		if !reflect.DeepEqual(gotDailyClass, wantDailyClass) {
			t.Fatalf("seed %d: DailyAccuracyByClass index %v != scan %v", seed, gotDailyClass, wantDailyClass)
		}

		visits := HexVisits(fixes, 8, 5*time.Minute, 5*time.Minute)
		for _, bucket := range []time.Duration{0, 20 * time.Minute, time.Hour} {
			wantCells := cellAccuracyScan(ti, reports, visits, bucket, 100)
			gotCells := ix.CellAccuracy(visits, bucket, 100)
			if !reflect.DeepEqual(gotCells, wantCells) {
				t.Fatalf("seed %d bucket %v: CellAccuracy index %v != scan %v", seed, bucket, gotCells, wantCells)
			}
		}
	}
}

// TestIndexCoverageMatchesTruthIndex pins the precomputed coverage spans
// against TruthIndex.HasCoverage on a dense grid of misaligned buckets.
func TestIndexCoverageMatchesTruthIndex(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		ti := NewTruthIndex(randomTruth(rng, t0))
		from, to, _ := ti.Span()
		ix := NewIndex(ti, nil)
		bucket := time.Duration(1+rng.Intn(13)) * time.Minute
		start := from.Add(-time.Duration(rng.Intn(300)) * time.Second)
		cur := ix.seek(start.UnixNano())
		for bs := start; bs.Before(to.Add(2 * ti.MaxGap)); bs = bs.Add(bucket) {
			be := bs.Add(bucket)
			want := ti.HasCoverage(bs, be)
			got := ix.covered(&cur, bs.UnixNano(), be.UnixNano())
			if got != want {
				t.Fatalf("seed %d: covered(%v, %v) = %v, HasCoverage = %v", seed, bs, be, got, want)
			}
		}
	}
}

// TestIndexEmptyInputs: degenerate shapes must not panic and must match
// the scan reference.
func TestIndexEmptyInputs(t *testing.T) {
	ti := NewTruthIndex(nil)
	ix := NewIndex(ti, nil)
	if got := ix.Accuracy(10*time.Minute, 100, t0, t0.Add(time.Hour)); got != (AccuracyResult{}) {
		t.Errorf("empty index accuracy = %+v", got)
	}
	if got := ix.Accuracy(0, 100, t0, t0.Add(time.Hour)); got != (AccuracyResult{}) {
		t.Errorf("zero bucket = %+v", got)
	}
	if got := ix.Accuracy(time.Minute, 100, t0.Add(time.Hour), t0); got != (AccuracyResult{}) {
		t.Errorf("inverted window = %+v", got)
	}
	if n := ix.Reports(); n != 0 {
		t.Errorf("Reports = %d", n)
	}
	if ix.Truth() != ti {
		t.Error("Truth accessor lost the truth index")
	}
}

// TestIndexReusableAcrossSweeps: one index must answer many different
// (bucket, radius, window) queries — the cursor state is per call, not
// per index.
func TestIndexReusableAcrossSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fixes := walkFixes(t0, origin, 3.6, 6*time.Hour)
	ti := NewTruthIndex(fixes)
	reports := randomCrawl(rng, ti, t0, 6*time.Hour, 80)
	ix := NewIndex(ti, reports)
	// Query in deliberately non-monotone order; every answer must match a
	// fresh scan.
	type q struct {
		bucket time.Duration
		radius float64
		from   time.Time
	}
	queries := []q{
		{time.Hour, 100, t0.Add(3 * time.Hour)},
		{10 * time.Minute, 10, t0},
		{30 * time.Minute, 300, t0.Add(time.Hour)},
		{10 * time.Minute, 10, t0}, // repeat of an earlier query
	}
	for i, qq := range queries {
		want := accuracyScan(ti, reports, qq.bucket, qq.radius, qq.from, t0.Add(6*time.Hour))
		if got := ix.Accuracy(qq.bucket, qq.radius, qq.from, t0.Add(6*time.Hour)); got != want {
			t.Fatalf("query %d: %+v != %+v", i, got, want)
		}
	}
}

func BenchmarkIndexAccuracySweep(b *testing.B) {
	fixes := walkFixes(t0, origin, 3.6, 24*time.Hour)
	ti := NewTruthIndex(fixes)
	var reports []trace.CrawlRecord
	for i := 0; i < 24*6; i++ {
		at := t0.Add(time.Duration(i) * 10 * time.Minute)
		pos, _ := ti.At(at)
		reports = append(reports, crawlAt(at, geo.Destination(pos, 45, 30)))
	}
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range []int{1, 10, 60, 120} {
				accuracyScan(ti, reports, time.Duration(m)*time.Minute, 100, t0, t0.Add(24*time.Hour))
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		ix := NewIndex(ti, reports)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range []int{1, 10, 60, 120} {
				ix.Accuracy(time.Duration(m)*time.Minute, 100, t0, t0.Add(24*time.Hour))
			}
		}
	})
}
