package pipeline

import "testing"

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
