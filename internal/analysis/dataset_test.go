package analysis

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

var (
	t0     = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC) // Monday 09:00
	origin = geo.LatLon{Lat: 24.4539, Lon: 54.3773}
)

// walkFixes generates a ground-truth walk: fixes every 5 s moving east at
// speedKmh for the duration.
func walkFixes(start time.Time, from geo.LatLon, speedKmh float64, dur time.Duration) []trace.GroundTruth {
	var out []trace.GroundTruth
	step := 5 * time.Second
	mps := geo.KmhToMs(speedKmh)
	for el := time.Duration(0); el <= dur; el += step {
		out = append(out, trace.GroundTruth{
			T:         start.Add(el),
			Pos:       geo.Destination(from, 90, mps*el.Seconds()),
			VantageID: "vp1",
			SpeedKmh:  speedKmh,
		})
	}
	return out
}

func TestTruthIndexInterpolation(t *testing.T) {
	fixes := walkFixes(t0, origin, 3.6, 10*time.Minute) // 1 m/s east
	ti := NewTruthIndex(fixes)
	// Halfway between two fixes: 2.5 s after a fix = 2.5 m beyond it.
	at := t0.Add(62*time.Second + 500*time.Millisecond)
	pos, ok := ti.At(at)
	if !ok {
		t.Fatal("no coverage mid-walk")
	}
	want := geo.Destination(origin, 90, 62.5)
	if d := geo.Distance(pos, want); d > 0.5 {
		t.Errorf("interpolated position off by %.2f m", d)
	}
}

func TestTruthIndexEdges(t *testing.T) {
	fixes := walkFixes(t0, origin, 3.6, 10*time.Minute)
	ti := NewTruthIndex(fixes)
	// Slightly before the first fix: clamps to it.
	if _, ok := ti.At(t0.Add(-time.Minute)); !ok {
		t.Error("1 min before start should clamp within MaxGap")
	}
	if _, ok := ti.At(t0.Add(-time.Hour)); ok {
		t.Error("1 h before start should have no coverage")
	}
	if _, ok := ti.At(t0.Add(10*time.Minute + 2*time.Minute)); !ok {
		t.Error("2 min after end should clamp within MaxGap")
	}
	if _, ok := ti.At(t0.Add(3 * time.Hour)); ok {
		t.Error("3 h after end should have no coverage")
	}
	empty := NewTruthIndex(nil)
	if _, ok := empty.At(t0); ok {
		t.Error("empty index should have no coverage")
	}
	if _, _, ok := empty.Span(); ok {
		t.Error("empty index has no span")
	}
}

func TestTruthIndexGapHandling(t *testing.T) {
	// Two walk sessions separated by a 2-hour gap.
	a := walkFixes(t0, origin, 3.6, 10*time.Minute)
	b := walkFixes(t0.Add(2*time.Hour), geo.Destination(origin, 0, 5000), 3.6, 10*time.Minute)
	ti := NewTruthIndex(append(a, b...))
	if _, ok := ti.At(t0.Add(time.Hour)); ok {
		t.Error("middle of a 2-hour gap must have no coverage")
	}
	// Within MaxGap of the gap edges: covered.
	if _, ok := ti.At(t0.Add(10*time.Minute + 90*time.Second)); !ok {
		t.Error("90 s past the last fix should clamp")
	}
	if ti.HasCoverage(t0.Add(30*time.Minute), t0.Add(40*time.Minute)) {
		t.Error("gap window should have no coverage")
	}
	if !ti.HasCoverage(t0, t0.Add(time.Minute)) {
		t.Error("walk window should have coverage")
	}
}

func TestAvgSpeed(t *testing.T) {
	fixes := walkFixes(t0, origin, 7.2, 10*time.Minute) // 2 m/s
	ti := NewTruthIndex(fixes)
	got, ok := ti.AvgSpeedKmh(t0, t0.Add(10*time.Minute))
	if !ok {
		t.Fatal("no speed estimate")
	}
	if math.Abs(got-7.2) > 0.3 {
		t.Errorf("avg speed = %.2f, want 7.2", got)
	}
	// Window with no fixes but bracketing coverage (stationary): speed 0.
	stat := []trace.GroundTruth{
		{T: t0, Pos: origin}, {T: t0.Add(time.Hour), Pos: origin},
	}
	ti2 := NewTruthIndex(stat)
	ti2.MaxGap = 2 * time.Hour
	v, ok := ti2.AvgSpeedKmh(t0.Add(20*time.Minute), t0.Add(30*time.Minute))
	if !ok || v != 0 {
		t.Errorf("stationary speed = %v, %v", v, ok)
	}
	// Degenerate window.
	if _, ok := ti.AvgSpeedKmh(t0, t0); ok {
		t.Error("empty window should fail")
	}
}

func TestDetectHomesAndFilter(t *testing.T) {
	home := origin
	away := geo.Destination(origin, 90, 5000)
	var fixes []trace.GroundTruth
	// Three nights at home (01:00-02:00, fixes every 2 min), days away.
	for d := 0; d < 3; d++ {
		night := time.Date(2022, 3, 7+d, 1, 0, 0, 0, time.UTC)
		for i := 0; i < 30; i++ {
			fixes = append(fixes, trace.GroundTruth{T: night.Add(time.Duration(i*2) * time.Minute), Pos: geo.Destination(home, float64(i*12), 10)})
		}
		day := time.Date(2022, 3, 7+d, 12, 0, 0, 0, time.UTC)
		for i := 0; i < 30; i++ {
			fixes = append(fixes, trace.GroundTruth{T: day.Add(time.Duration(i*2) * time.Minute), Pos: geo.Destination(away, float64(i*12), 10)})
		}
	}
	homes := DetectHomes(fixes, 300)
	if len(homes) != 1 {
		t.Fatalf("detected %d homes, want 1", len(homes))
	}
	if geo.Distance(homes[0], home) > 50 {
		t.Errorf("home detected %.0f m from truth", geo.Distance(homes[0], home))
	}
	kept, frac := FilterNearHomes(fixes, homes, 300)
	if len(kept) != 90 {
		t.Errorf("kept %d fixes, want 90 (the away half)", len(kept))
	}
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("removed fraction = %.2f, want 0.5", frac)
	}
	for _, f := range kept {
		if geo.Distance(f.Pos, home) <= 300 {
			t.Fatal("kept a fix near home")
		}
	}
	// No homes: nothing removed.
	kept2, frac2 := FilterNearHomes(fixes, nil, 300)
	if len(kept2) != len(fixes) || frac2 != 0 {
		t.Error("filter with no homes must be a no-op")
	}
}

func TestFilterCrawlsNearHomes(t *testing.T) {
	homes := []geo.LatLon{origin}
	recs := []trace.CrawlRecord{
		{TagID: "a", Pos: geo.Destination(origin, 0, 100)},  // near home
		{TagID: "a", Pos: geo.Destination(origin, 0, 1000)}, // far
	}
	out := FilterCrawlsNearHomes(recs, homes, 300)
	if len(out) != 1 || geo.Distance(out[0].Pos, origin) < 900 {
		t.Errorf("filtered crawls = %v", out)
	}
	if got := FilterCrawlsNearHomes(recs, nil, 300); len(got) != 2 {
		t.Error("no homes: no filtering")
	}
}

func TestDatasetCombined(t *testing.T) {
	apple := []trace.CrawlRecord{{CrawlT: t0, TagID: "air", Vendor: trace.VendorApple}}
	samsung := []trace.CrawlRecord{{CrawlT: t0.Add(time.Minute), TagID: "smart", Vendor: trace.VendorSamsung}}
	ds := NewDataset(nil, map[trace.Vendor][]trace.CrawlRecord{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	})
	combined := ds.CrawlsFor(trace.VendorCombined)
	if len(combined) != 2 {
		t.Fatalf("combined has %d records", len(combined))
	}
	if !combined[0].CrawlT.Before(combined[1].CrawlT) {
		t.Error("combined records must be time-sorted")
	}
	if got := ds.CrawlsFor(trace.VendorApple); len(got) != 1 {
		t.Error("vendor passthrough broken")
	}
}

// TestSortedTruthIndexAndSlice: the sorted constructor owns its input
// (no copy) and rejects a fix that precedes its predecessor while
// accepting equal instants; NewTruthIndex equals it over a stable-sorted
// copy; a Slice view shares the backing array, carries MaxGap, and
// answers every query like an index built over the same fixes.
func TestSortedTruthIndexAndSlice(t *testing.T) {
	var fixes []trace.GroundTruth
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i/2) * 4 * time.Minute) // pairs share an instant
		fixes = append(fixes, trace.GroundTruth{T: at, Pos: geo.Destination(origin, float64(i*9), float64(i*25))})
	}
	ti, err := NewSortedTruthIndex(fixes)
	if err != nil {
		t.Fatalf("sorted fixes with equal instants rejected: %v", err)
	}
	if &ti.Fixes()[0] != &fixes[0] {
		t.Error("NewSortedTruthIndex copied its input")
	}
	shuffled := slices.Clone(fixes)
	slices.Reverse(shuffled[10:30])
	if _, err := NewSortedTruthIndex(shuffled); err == nil {
		t.Error("out-of-order fixes accepted")
	}
	if got := NewTruthIndex(slices.Concat(fixes[20:], fixes[:20])); !reflect.DeepEqual(got, ti) {
		t.Error("NewTruthIndex differs from the sorted constructor over the same fixes")
	}

	ti.MaxGap = 5 * time.Minute
	view := ti.Slice(11, 29)
	want := NewTruthIndex(fixes[11:29])
	want.MaxGap = ti.MaxGap
	if !reflect.DeepEqual(view, want) || &view.Fixes()[0] != &fixes[11] {
		t.Fatal("Slice is not a shared view of fixes [11, 29) with the parent's MaxGap")
	}
	none := NewTruthIndex(nil)
	none.MaxGap = ti.MaxGap
	if empty := ti.Slice(7, 7); !reflect.DeepEqual(empty, none) {
		t.Errorf("empty view holds %#v, want the index over no fixes", empty.Fixes())
	}
	for m := -10; m < 90; m++ {
		at := t0.Add(time.Duration(m) * time.Minute)
		p1, ok1 := view.At(at)
		p2, ok2 := want.At(at)
		if p1 != p2 || ok1 != ok2 || view.HasCoverage(at, at.Add(time.Minute)) != want.HasCoverage(at, at.Add(time.Minute)) {
			t.Fatalf("view and index disagree at %v", at)
		}
	}
}
