package analysis

import (
	"math"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

func TestPeriodOf(t *testing.T) {
	mk := func(h int) time.Time { return time.Date(2022, 3, 7, h, 30, 0, 0, time.UTC) }
	cases := []struct {
		hour int
		want DayPeriod
		ok   bool
	}{
		{6, PeriodMorning, true}, {9, PeriodMorning, true},
		{10, PeriodLunch, true}, {13, PeriodLunch, true},
		{14, PeriodAfternoon, true}, {17, PeriodAfternoon, true},
		{18, PeriodEvening, true}, {21, PeriodEvening, true},
		{22, PeriodNight, true}, {23, PeriodNight, true},
		{0, PeriodNight, true}, {1, PeriodNight, true},
		{2, "", false}, {5, "", false},
	}
	for _, c := range cases {
		got, ok := PeriodOf(mk(c.hour))
		if got != c.want || ok != c.ok {
			t.Errorf("PeriodOf(%02d:30) = %q,%v want %q,%v", c.hour, got, ok, c.want, c.ok)
		}
	}
}

func TestWeekPartOf(t *testing.T) {
	if WeekPartOf(t0) != Weekday { // Monday
		t.Error("Monday should be a weekday")
	}
	if WeekPartOf(t0.Add(5*24*time.Hour)) != Weekend { // Saturday
		t.Error("Saturday should be weekend")
	}
}

func TestSpeedClassifier(t *testing.T) {
	fixes := walkFixes(t0, origin, 8, 30*time.Minute) // jogging speed
	ti := NewTruthIndex(fixes)
	classify := SpeedClassifier(ti)
	class, ok := classify(t0, t0.Add(10*time.Minute))
	if !ok || class != "Jogging" {
		t.Errorf("classify = %q, %v", class, ok)
	}
	// No coverage: excluded.
	if _, ok := classify(t0.Add(5*time.Hour), t0.Add(5*time.Hour+10*time.Minute)); ok {
		t.Error("uncovered bucket must be excluded")
	}
}

func TestHourlyUpdateCounts(t *testing.T) {
	history := []trace.Report{
		{T: t0}, {T: t0.Add(10 * time.Minute)}, {T: t0.Add(70 * time.Minute)},
	}
	counts := HourlyUpdateCounts(history)
	if counts[t0.Truncate(time.Hour)] != 2 {
		t.Errorf("hour 0 = %d", counts[t0.Truncate(time.Hour)])
	}
	if counts[t0.Add(time.Hour).Truncate(time.Hour)] != 1 {
		t.Error("hour 1 wrong")
	}
}

func TestUpdateRateByHourOfDay(t *testing.T) {
	// Two days: 3 updates at 12:00 each day, 320 devices at noon.
	var history []trace.Report
	var counts []trace.DeviceCount
	for d := 0; d < 2; d++ {
		noon := time.Date(2022, 3, 7+d, 12, 0, 0, 0, time.UTC)
		for i := 0; i < 3; i++ {
			history = append(history, trace.Report{T: noon.Add(time.Duration(i*7) * time.Minute)})
		}
		counts = append(counts, trace.DeviceCount{T: noon, Apple: 320})
	}
	from := time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC)
	rows := UpdateRateByHourOfDay(history, counts, func(c trace.DeviceCount) int { return c.Apple }, from, from.Add(48*time.Hour))
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24", len(rows))
	}
	for _, r := range rows {
		switch r.Hour {
		case 12:
			if math.Abs(r.MeanRate-3) > 0.01 || math.Abs(r.MeanDevices-320) > 0.01 {
				t.Errorf("noon row = %+v", r)
			}
			if r.StdRate != 0 {
				t.Errorf("identical days should have zero std, got %v", r.StdRate)
			}
		case 3:
			if r.MeanRate != 0 {
				t.Errorf("3am rate = %v", r.MeanRate)
			}
		}
	}
}

func TestUpdateRateVsDevices(t *testing.T) {
	var history []trace.Report
	var counts []trace.DeviceCount
	base := time.Date(2022, 3, 7, 0, 0, 0, 0, time.UTC)
	// 10 hours with 5 devices and rate 5; 10 hours with 95 devices, rate 18.
	for i := 0; i < 10; i++ {
		h := base.Add(time.Duration(i) * time.Hour)
		counts = append(counts, trace.DeviceCount{T: h, Apple: 5})
		for k := 0; k < 5; k++ {
			history = append(history, trace.Report{T: h.Add(time.Duration(k) * time.Minute)})
		}
		h2 := base.Add(time.Duration(100+i) * time.Hour)
		counts = append(counts, trace.DeviceCount{T: h2, Apple: 95})
		for k := 0; k < 18; k++ {
			history = append(history, trace.Report{T: h2.Add(time.Duration(k) * time.Minute)})
		}
	}
	// An hour with zero devices is excluded.
	counts = append(counts, trace.DeviceCount{T: base.Add(50 * time.Hour), Apple: 0})

	buckets := UpdateRateVsDevices(history, counts, func(c trace.DeviceCount) int { return c.Apple }, 10)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}
	lo, hi := buckets[0], buckets[1]
	if lo.MinDevices != 1 || lo.MaxDevices != 10 || math.Abs(lo.MeanRate-5) > 0.01 {
		t.Errorf("low bucket = %+v", lo)
	}
	if hi.MinDevices != 91 || hi.MaxDevices != 100 || math.Abs(hi.MeanRate-18) > 0.01 {
		t.Errorf("high bucket = %+v", hi)
	}
	if math.Abs(lo.Likelihood-0.5) > 0.01 || math.Abs(hi.Likelihood-0.5) > 0.01 {
		t.Errorf("likelihoods = %v / %v", lo.Likelihood, hi.Likelihood)
	}
	if UpdateRateVsDevices(nil, nil, func(trace.DeviceCount) int { return 0 }, 10) != nil {
		t.Error("empty inputs should yield nil")
	}
}

func TestEpisodes(t *testing.T) {
	var fixes []trace.GroundTruth
	placeA := origin
	placeB := geo.Destination(origin, 90, 500)
	// 10 min at A, walk to B (~6 min), 10 min at B.
	for i := 0; i <= 120; i++ {
		fixes = append(fixes, trace.GroundTruth{T: t0.Add(time.Duration(i*5) * time.Second), Pos: placeA})
	}
	walkStart := t0.Add(10*time.Minute + 5*time.Second)
	for i := 0; i < 70; i++ {
		at := walkStart.Add(time.Duration(i*5) * time.Second)
		fixes = append(fixes, trace.GroundTruth{T: at, Pos: geo.Lerp(placeA, placeB, float64(i)/70)})
	}
	bStart := walkStart.Add(350 * time.Second)
	for i := 0; i <= 120; i++ {
		fixes = append(fixes, trace.GroundTruth{T: bStart.Add(time.Duration(i*5) * time.Second), Pos: placeB})
	}
	eps := Episodes(fixes, 25, 5*time.Minute)
	if len(eps) != 2 {
		t.Fatalf("episodes = %d, want 2 (A and B)", len(eps))
	}
	if geo.Distance(eps[0].Anchor, placeA) > 30 || geo.Distance(eps[1].Anchor, placeB) > 30 {
		t.Error("episode anchors off")
	}
	if eps[0].Duration() < 9*time.Minute {
		t.Errorf("episode A lasted %v", eps[0].Duration())
	}
}

func TestFirstHitDelaysAndBacktrack(t *testing.T) {
	ep := Episode{Anchor: origin, Start: t0, End: t0.Add(30 * time.Minute)}
	ep2 := Episode{Anchor: geo.Destination(origin, 90, 2000), Start: t0.Add(time.Hour), End: t0.Add(90 * time.Minute)}
	reports := []trace.CrawlRecord{
		crawlAt(t0.Add(20*time.Minute), geo.Destination(origin, 0, 5)), // hits ep after 20 min
		// nothing near ep2
	}
	delays := FirstHitDelays([]Episode{ep, ep2}, reports, 10, time.Hour)
	if len(delays) != 2 {
		t.Fatal("want 2 delay samples")
	}
	if !delays[0].Found || delays[0].Delay != 20*time.Minute {
		t.Errorf("ep delay = %+v", delays[0])
	}
	if delays[1].Found {
		t.Error("ep2 should have no hit")
	}
	if f := BacktrackFraction(delays, time.Hour); f != 0.5 {
		t.Errorf("backtrack fraction = %v, want 0.5", f)
	}
	if f := BacktrackFraction(delays, 10*time.Minute); f != 0 {
		t.Errorf("10-min fraction = %v, want 0", f)
	}
	if BacktrackFraction(nil, time.Hour) != 0 {
		t.Error("empty delays fraction must be 0")
	}
}

func TestHexVisits(t *testing.T) {
	cellA := hexgrid.LatLonToCell(origin, 8)
	centerA := hexgrid.CellToLatLon(cellA)
	farB := geo.Destination(centerA, 90, 3000)
	var fixes []trace.GroundTruth
	// 10 minutes in A.
	for i := 0; i <= 120; i++ {
		fixes = append(fixes, trace.GroundTruth{T: t0.Add(time.Duration(i*5) * time.Second), Pos: centerA})
	}
	// Brief pass through B (30 seconds).
	passStart := t0.Add(11 * time.Minute)
	for i := 0; i < 6; i++ {
		fixes = append(fixes, trace.GroundTruth{T: passStart.Add(time.Duration(i*5) * time.Second), Pos: farB})
	}
	visits := HexVisits(fixes, 8, 5*time.Minute, 5*time.Minute)
	if len(visits) != 1 {
		t.Fatalf("visits = %d, want 1 (pass-through dropped)", len(visits))
	}
	if visits[0].Cell != cellA {
		t.Error("wrong visited cell")
	}
	if visits[0].Duration() < 9*time.Minute {
		t.Errorf("dwell = %v", visits[0].Duration())
	}
	cells := DistinctCells(visits)
	if len(cells) != 1 || cells[0] != cellA {
		t.Errorf("distinct cells = %v", cells)
	}
}

func TestHexVisitsGapSplits(t *testing.T) {
	cellA := hexgrid.LatLonToCell(origin, 8)
	centerA := hexgrid.CellToLatLon(cellA)
	var fixes []trace.GroundTruth
	for i := 0; i <= 120; i++ {
		fixes = append(fixes, trace.GroundTruth{T: t0.Add(time.Duration(i*5) * time.Second), Pos: centerA})
	}
	// One-hour gap, then 10 more minutes in the same cell.
	resume := t0.Add(70 * time.Minute)
	for i := 0; i <= 120; i++ {
		fixes = append(fixes, trace.GroundTruth{T: resume.Add(time.Duration(i*5) * time.Second), Pos: centerA})
	}
	visits := HexVisits(fixes, 8, 5*time.Minute, 5*time.Minute)
	if len(visits) != 2 {
		t.Fatalf("gap should split visits: got %d", len(visits))
	}
}

func TestCellAccuracy(t *testing.T) {
	cellA := hexgrid.LatLonToCell(origin, 8)
	centerA := hexgrid.CellToLatLon(cellA)
	var fixes []trace.GroundTruth
	for i := 0; i <= 720; i++ { // one hour in the cell
		fixes = append(fixes, trace.GroundTruth{T: t0.Add(time.Duration(i*5) * time.Second), Pos: centerA})
	}
	ti := NewTruthIndex(fixes)
	visits := HexVisits(fixes, 8, 5*time.Minute, 5*time.Minute)
	reports := []trace.CrawlRecord{crawlAt(t0.Add(30*time.Minute), geo.Destination(centerA, 0, 20))}
	acc := CellAccuracy(ti, reports, visits, time.Hour, 100)
	pct, ok := acc[cellA]
	if !ok {
		t.Fatal("no accuracy for the visited cell")
	}
	if pct < 40 || pct > 100 {
		t.Errorf("cell accuracy = %v", pct)
	}
	// No reports: zero accuracy but present.
	acc2 := CellAccuracy(ti, nil, visits, time.Hour, 100)
	if pct2, ok := acc2[cellA]; !ok || pct2 != 0 {
		t.Errorf("no-report accuracy = %v, %v", pct2, ok)
	}
}
