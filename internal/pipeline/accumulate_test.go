package pipeline

import (
	"os"
	"testing"

	"tagsim/internal/analysis"
)

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestSpillFDsReleasedOnError: when the accumulator's Close fails — a
// corrupt spill, or a world whose stream never finished — every world's
// unlinked spill file must still be closed, or each failed campaign
// leaks one fd per world.
func TestSpillFDsReleasedOnError(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors")
	}
	was := analysis.SetResidentTruth(false)
	defer analysis.SetResidentTruth(was)
	const nWorlds = 3
	for _, tc := range []struct {
		name     string
		finished int   // worlds whose stream ends with a final batch
		corrupt  int64 // offset overwritten in world 1's spill; -1 for none
	}{
		{"bad spill magic", nWorlds, 0},
		{"bad spill frame", nWorlds, 16},
		{"unfinished stream", nWorlds - 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := openFDs(t)
			acc := NewCampaignAccumulator(nWorlds, 1)
			for w := 0; w < nWorlds; w++ {
				b := Batch{World: w, Final: w < tc.finished}
				for i := 0; i < 200; i++ {
					b.Fixes = append(b.Fixes, synthFix(w, i))
				}
				if err := acc.Consume(b); err != nil {
					t.Fatal(err)
				}
			}
			if got := openFDs(t); got != baseline+nWorlds {
				t.Fatalf("%d fds open with %d spills, want %d", got, nWorlds, baseline+nWorlds)
			}
			if tc.corrupt >= 0 {
				if _, err := acc.worlds[1].spill.f.WriteAt([]byte("garbage!"), tc.corrupt); err != nil {
					t.Fatal(err)
				}
			}
			if err := acc.Close(); err == nil {
				t.Fatal("Close succeeded over a broken stream")
			}
			if got := openFDs(t); got != baseline {
				t.Errorf("%d fds open after the failed Close, want the baseline %d", got, baseline)
			}
		})
	}
}
