package pipeline

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// TestAccumulatorUnfinishedStream: Close must refuse to assemble a
// campaign state while any world's stream never delivered its final
// batch — a half-streamed world would silently drop its truth.
func TestAccumulatorUnfinishedStream(t *testing.T) {
	const nWorlds = 3
	acc := NewCampaignAccumulator(nWorlds, 1)
	for w := 0; w < nWorlds; w++ {
		b := Batch{World: w, Final: w < nWorlds-1}
		for i := 0; i < 200; i++ {
			b.Fixes = append(b.Fixes, synthFix(w, i))
		}
		if err := acc.Consume(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := acc.Close(); err == nil {
		t.Fatal("Close succeeded over an unfinished stream")
	}
	if acc.State() != nil {
		t.Error("a failed Close published a campaign state")
	}
}

// stay returns n fixes from start, step apart, each within 20 m of at.
func stay(at geo.LatLon, start time.Time, step time.Duration, n int) []trace.GroundTruth {
	out := make([]trace.GroundTruth, n)
	for i := range out {
		out[i] = trace.GroundTruth{T: start.Add(time.Duration(i) * step), Pos: geo.Destination(at, float64(i*30), float64(i%3)*10)}
	}
	return out
}

// streamWorlds streams each world's fixes, in the order given, as two
// batches (the second Final) and closes the accumulator.
func streamWorlds(worlds ...[]trace.GroundTruth) (*CampaignAccumulator, error) {
	acc := NewCampaignAccumulator(len(worlds), 1)
	for w, fixes := range worlds {
		half := len(fixes) / 2
		for _, b := range []Batch{{World: w, Fixes: fixes[:half]}, {World: w, Fixes: fixes[half:], Final: true}} {
			if err := acc.Consume(b); err != nil {
				return nil, err
			}
		}
	}
	return acc, acc.Close()
}

// TestAccumulatorCrossWorldHome: each world's truth is filtered by its
// own homes only, so a kept fix within 300 m of another world's home
// would be kept where the campaign-wide filter drops it. Close must
// return an error instead; with that home 5 km away it must succeed.
func TestAccumulatorCrossWorldHome(t *testing.T) {
	day := stay(base, t0.Add(12*time.Hour), 5*time.Minute, 20) // daytime: no home
	for _, tc := range []struct {
		homeM   float64
		wantErr bool
	}{{150, true}, {5000, false}} {
		home := geo.Destination(base, 90, tc.homeM)
		night := stay(home, t0.Add(24*time.Hour), 5*time.Minute, 20)
		if homes := analysis.DetectHomes(night, 300); len(homes) != 1 {
			t.Fatalf("home %.0f m away: world 1 has %d homes, want 1", tc.homeM, len(homes))
		}
		acc, err := streamWorlds(day, night)
		if acc == nil {
			t.Fatalf("home %.0f m away: Consume failed: %v", tc.homeM, err)
		}
		switch {
		case tc.wantErr && !errors.Is(err, errCrossWorldHome):
			t.Errorf("home %.0f m away: Close returned %v, want the cross-world home error", tc.homeM, err)
		case tc.wantErr && acc.State() != nil:
			t.Error("a failed Close published a campaign state")
		case !tc.wantErr && err != nil:
			t.Errorf("home %.0f m away: Close failed: %v", tc.homeM, err)
		}
	}
}

// TestAccumulatorInterleavedWorlds: the campaign truth is the worlds'
// ranges concatenated, which is the sorted truth only while each world
// ends no later than the next begins. Close must return an error when
// world times interleave, and accept a world that starts at the very
// instant the previous one ends.
func TestAccumulatorInterleavedWorlds(t *testing.T) {
	first := stay(base, t0.Add(12*time.Hour), 5*time.Minute, 20) // ends 13:35
	far := geo.Destination(base, 0, 50000)
	for _, tc := range []struct {
		start   time.Duration
		wantErr bool
	}{{13 * time.Hour, true}, {13*time.Hour + 35*time.Minute, false}} {
		_, err := streamWorlds(first, stay(far, t0.Add(tc.start), 5*time.Minute, 20))
		switch {
		case tc.wantErr && !errors.Is(err, errInterleaved):
			t.Errorf("second world at %v: Close returned %v, want the interleave error", tc.start, err)
		case !tc.wantErr && err != nil:
			t.Errorf("second world at %v: Close failed: %v", tc.start, err)
		}
	}
}

// TestAccumulatorTruthRanges: every world's [TruthLo, TruthHi) holds
// exactly its sorted truth filtered by its own homes, the ranges tile
// the campaign truth, and that truth is the one the campaign-wide
// filter over the concatenated stream, then a stable sort, computes.
func TestAccumulatorTruthRanges(t *testing.T) {
	var worlds [][]trace.GroundTruth
	var stream []trace.GroundTruth
	for w := 0; w < 3; w++ {
		at := geo.Destination(base, float64(w*120), 40000)
		dayStart := t0.Add(time.Duration(w) * 24 * time.Hour)
		// The day streams before the night, so stream order is not time
		// order; the night's own fixes stay in order for DetectHomes.
		fixes := append(stay(geo.Destination(at, 45, 3000), dayStart.Add(12*time.Hour), time.Minute, 30+w), stay(at, dayStart, 5*time.Minute, 20)...)
		worlds = append(worlds, fixes)
		stream = append(stream, fixes...)
	}
	acc, err := streamWorlds(worlds...)
	if err != nil {
		t.Fatal(err)
	}
	st := acc.State()
	next := 0
	for w, wd := range st.Worlds {
		if wd.TruthLo != next {
			t.Errorf("world %d's range starts at %d, want %d", w, wd.TruthLo, next)
		}
		next = wd.TruthHi
		want, removed := analysis.FilterNearHomes(wd.Dataset.GroundTruth, wd.Homes, 300)
		if removed == 0 {
			t.Errorf("world %d: the home filter removed nothing", w)
		}
		if got := st.Truth.Fixes()[wd.TruthLo:wd.TruthHi]; !reflect.DeepEqual(got, want) {
			t.Errorf("world %d: range holds %d fixes, want its %d home-filtered fixes", w, len(got), len(want))
		}
	}
	if next != st.Truth.Len() {
		t.Errorf("ranges end at %d, truth holds %d fixes", next, st.Truth.Len())
	}
	kept, removed := analysis.FilterNearHomes(stream, st.Homes, 300)
	if want := analysis.NewTruthIndex(kept); !reflect.DeepEqual(st.Truth, want) {
		t.Errorf("campaign truth (%d fixes) differs from the campaign-wide filter and sort (%d)", st.Truth.Len(), want.Len())
	}
	if st.RemovedFrac != removed {
		t.Errorf("removed fraction %v, want %v", st.RemovedFrac, removed)
	}
}
