package analysis_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/pipeline"
	"tagsim/internal/trace"
)

// diskFixture builds a sorted fix sequence with the shapes the cursor
// must get right: dense runs (interpolation), stationary sparse runs
// (nearer-fix fallback), and coverage holes wider than MaxGap.
func diskFixture(n int, seed int64) []trace.GroundTruth {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(2026, 4, 2, 7, 30, 0, 0, time.UTC)
	fixes := make([]trace.GroundTruth, n)
	cur := t0
	pos := geo.LatLon{Lat: 40.4, Lon: -3.7}
	for i := range fixes {
		switch rng.Intn(10) {
		case 0:
			cur = cur.Add(time.Duration(4+rng.Intn(40)) * time.Minute) // hole
		case 1, 2:
			cur = cur.Add(time.Duration(100+rng.Intn(80)) * time.Second) // sparse
		default:
			cur = cur.Add(time.Duration(5+rng.Intn(40)) * time.Second) // dense
		}
		pos.Lat += (rng.Float64() - 0.5) * 1e-3
		pos.Lon += (rng.Float64() - 0.5) * 1e-3
		fixes[i] = trace.GroundTruth{
			T: cur, Pos: pos, VantageID: "vp-0",
			SpeedKmh: rng.Float64() * 20, UploadedAt: cur,
		}
	}
	return fixes
}

// diskIndex spills fixes through the columnar codec and opens them as a
// disk-backed TruthIndex. Small frames force queries across many frame
// boundaries.
func diskIndex(t *testing.T, fixes []trace.GroundTruth, flushEvery int) *analysis.TruthIndex {
	t.Helper()
	var buf bytes.Buffer
	if err := pipeline.WriteTruth(&buf, fixes, flushEvery); err != nil {
		t.Fatal(err)
	}
	tf, err := pipeline.OpenTruthFile(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return analysis.NewDiskTruthIndex(tf)
}

// TestTruthCursorEquivalence checks a disk-backed TruthIndex answers
// every query class exactly as the resident index over the same fixes:
// At on a dense sweep (plus jittered probes), HasCoverage windows,
// AvgSpeedKmh, Len, Span, and the All walk.
func TestTruthCursorEquivalence(t *testing.T) {
	for _, tc := range []struct {
		n, flushEvery int
	}{
		{0, 8}, {1, 8}, {5, 2}, {400, 7}, {400, 64}, {400, 1000},
	} {
		t.Run(fmt.Sprintf("n=%d/frame=%d", tc.n, tc.flushEvery), func(t *testing.T) {
			fixes := diskFixture(tc.n, int64(tc.n*1000+tc.flushEvery))
			res := analysis.NewTruthIndex(fixes)
			disk := diskIndex(t, fixes, tc.flushEvery)
			defer disk.Close()

			if res.Len() != disk.Len() {
				t.Fatalf("Len: resident %d, disk %d", res.Len(), disk.Len())
			}
			rf, rt, rok := res.Span()
			df, dt, dok := disk.Span()
			if rok != dok || !rf.Equal(df) || !rt.Equal(dt) {
				t.Fatalf("Span: resident (%v,%v,%v), disk (%v,%v,%v)", rf, rt, rok, df, dt, dok)
			}
			if got := slices.Collect(disk.All()); !reflect.DeepEqual(got, slices.Collect(res.All())) {
				t.Fatalf("All: disk yielded %d fixes unlike the resident %d", len(got), res.Len())
			}
			if tc.n == 0 {
				return
			}

			from, to := fixes[0].T.Add(-5*time.Minute), fixes[len(fixes)-1].T.Add(5*time.Minute)
			rng := rand.New(rand.NewSource(42))
			for probe := from; probe.Before(to); probe = probe.Add(9 * time.Second) {
				q := probe.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
				rp, rok := res.At(q)
				dp, dok := disk.At(q)
				if rok != dok || rp != dp {
					t.Fatalf("At(%v): resident (%v,%v), disk (%v,%v)", q, rp, rok, dp, dok)
				}
			}
			for w := 0; w < 200; w++ {
				ws := from.Add(time.Duration(rng.Int63n(int64(to.Sub(from)))))
				we := ws.Add(time.Duration(1+rng.Intn(1800)) * time.Second)
				if rc, dc := res.HasCoverage(ws, we), disk.HasCoverage(ws, we); rc != dc {
					t.Fatalf("HasCoverage(%v,%v): resident %v, disk %v", ws, we, rc, dc)
				}
				rv, rok := res.AvgSpeedKmh(ws, we)
				dv, dok := disk.AvgSpeedKmh(ws, we)
				if rok != dok || rv != dv {
					t.Fatalf("AvgSpeedKmh(%v,%v): resident (%v,%v), disk (%v,%v)", ws, we, rv, rok, dv, dok)
				}
			}
		})
	}
}

// TestDiskTruthIndexEquivalence checks the accuracy Index built over a
// disk-backed TruthIndex reproduces the resident-built Index: same
// resolution of every distinct report and the same bucket accuracy
// across radii and bucket lengths.
func TestDiskTruthIndexEquivalence(t *testing.T) {
	fixes := diskFixture(300, 77)
	rng := rand.New(rand.NewSource(7))
	from, to := fixes[0].T, fixes[len(fixes)-1].T
	var crawls []trace.CrawlRecord
	for i := 0; i < 400; i++ {
		at := from.Add(time.Duration(rng.Int63n(int64(to.Sub(from)))))
		f := fixes[rng.Intn(len(fixes))]
		pos := f.Pos
		pos.Lat += (rng.Float64() - 0.5) * 5e-4
		crawls = append(crawls, trace.CrawlRecord{
			CrawlT: at.Add(time.Minute), TagID: "tag-1", Vendor: trace.VendorApple,
			Pos: pos, ReportedAt: at,
		})
	}

	res := analysis.NewIndex(analysis.NewTruthIndex(fixes), crawls)
	diskTI := diskIndex(t, fixes, 13)
	defer diskTI.Close()
	disk := analysis.NewIndex(diskTI, crawls)

	if res.Reports() != disk.Reports() {
		t.Fatalf("Reports: resident %d, disk %d", res.Reports(), disk.Reports())
	}
	for _, bucket := range []time.Duration{10 * time.Minute, time.Hour} {
		for _, radius := range []float64{10, 25, 100} {
			ra := res.Accuracy(bucket, radius, from, to)
			da := disk.Accuracy(bucket, radius, from, to)
			if ra != da {
				t.Errorf("Accuracy(%v, %gm): resident %+v, disk %+v", bucket, radius, ra, da)
			}
		}
	}
}
