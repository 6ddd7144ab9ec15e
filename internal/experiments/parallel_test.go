package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

// tinyOpts shrinks the campaign to one simulated day per country so the
// parallel-equivalence tests stay fast.
func tinyOpts(seed int64, workers int) Options {
	return Options{Seed: seed, Scale: 0.02, DevicesPerCity: 60, Workers: workers}
}

// TestCampaignParallelDeterminism is the acceptance check for the
// parallel runner: the rendered tables of a Workers=8 campaign must be
// byte-identical to Workers=1.
func TestCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	seq := NewCampaign(tinyOpts(41, 1))
	par := NewCampaign(tinyOpts(41, 8))

	if got, want := Table1(par).Render(), Table1(seq).Render(); got != want {
		t.Errorf("Table 1 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	for _, radius := range []float64{25, 100} {
		if got, want := Figure5Sweep(par, radius).Render(), Figure5Sweep(seq, radius).Render(); got != want {
			t.Errorf("Figure 5 (%.0f m) rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", radius, got, want)
		}
	}
	if got, want := Figure5d(par).Render(), Figure5d(seq).Render(); got != want {
		t.Errorf("Figure 5d rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Figure7(par).Render(), Figure7(seq).Render(); got != want {
		t.Errorf("Figure 7 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Figure8(par).Render(), Figure8(seq).Render(); got != want {
		t.Errorf("Figure 8 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Headline(par).Render(), Headline(seq).Render(); got != want {
		t.Errorf("Headline rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
}

// renderWildFigures renders every wild-campaign artifact the paper's
// evaluation reproduces (Table 1, Figures 5a-f, 6, 7, 8, headline) into
// one string.
func renderWildFigures(c *Campaign) string {
	var b strings.Builder
	b.WriteString(Table1(c).Render())
	for _, radius := range []float64{10, 25, 100} {
		b.WriteString(Figure5Sweep(c, radius).Render())
	}
	b.WriteString(Figure5d(c).Render())
	b.WriteString(Figure5e(c).Render())
	b.WriteString(Figure5f(c).Render())
	b.WriteString(Figure6(c, "AE").Render())
	b.WriteString(Figure7(c).Render())
	b.WriteString(Figure8(c).Render())
	b.WriteString(Headline(c).Render())
	return b.String()
}

// wildFiguresSHA256 is the SHA-256 of renderWildFigures over
// tinyOpts(47, 0), recorded while the per-figure scan implementations
// were still selectable in production and rendered these exact bytes.
const wildFiguresSHA256 = "113742088a5ff872a41a22551f96a803605dc6fe1aad694b866757a57ac184e0"

// TestFigurePipelineIndexEquivalence pins every reproduced table and
// figure to the bytes the historical per-figure rescans produced, so the
// index-backed analysis plane stays equivalent to them.
func TestFigurePipelineIndexEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	out := renderWildFigures(NewCampaign(tinyOpts(47, 0)))
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != wildFiguresSHA256 {
		t.Errorf("figure pipeline output changed: sha256 %s, want %s\n%s", got, wildFiguresSHA256, out)
	}
}

// TestCampaignReplicates pins every replicate to a plain campaign at its
// derived seed — replicate r renders byte-identically to NewCampaign at
// scenario.ReplicateSeed(seed, r), at any worker count — and checks the
// across-replicate aggregates.
func TestCampaignReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	const seed, n = 43, 2
	want := make([]string, n)
	for r := range want {
		want[r] = renderWildFigures(NewCampaign(tinyOpts(scenario.ReplicateSeed(seed, r), 0)))
	}
	if want[0] == want[1] {
		t.Error("replicates 0 and 1 rendered identical figures; seeds did not diverge")
	}
	var set *ReplicateSet
	for _, workers := range []int{1, 2} {
		set = CampaignReplicates(tinyOpts(seed, workers), n)
		if set.N() != n {
			t.Fatalf("workers=%d: N = %d, want %d", workers, set.N(), n)
		}
		for r, c := range set.Campaigns {
			if got := renderWildFigures(c); got != want[r] {
				t.Errorf("workers=%d: replicate %d diverged from NewCampaign at seed %d:\ngot:\n%s\nwant:\n%s",
					workers, r, scenario.ReplicateSeed(seed, r), got, want[r])
			}
			// Every replicate runs on the same country schedule.
			for i, cr := range c.Result.Countries {
				if !cr.Start.Equal(set.Campaigns[0].Result.Countries[i].Start) {
					t.Errorf("workers=%d: replicate %d country %d starts %v, want the shared schedule", workers, r, i, cr.Start)
				}
			}
		}
	}
	if got := CampaignReplicates(tinyOpts(seed, 1), 0).N(); got != 0 {
		t.Errorf("0 replicates yielded %d campaigns", got)
	}

	t1 := set.Table1Stats()
	if len(t1.Rows) != 6 {
		t.Fatalf("%d Table 1 rows, want 6", len(t1.Rows))
	}
	if t1.Total.AppleNow.N != 2 {
		t.Errorf("total aggregate over %d samples, want 2", t1.Total.AppleNow.N)
	}
	if t1.Total.AppleNow.Mean <= t1.Total.SamsungNow.Mean {
		t.Errorf("mean Apple Now (%.0f) should exceed Samsung (%.0f)",
			t1.Total.AppleNow.Mean, t1.Total.SamsungNow.Mean)
	}

	f5 := set.Figure5Stats(100)
	if got := f5.Acc(trace.VendorCombined, 120); got.N != 2 {
		t.Errorf("figure 5 aggregate over %d samples, want 2", got.N)
	}
	// Accuracy still improves with responsiveness in the aggregate.
	if f5.Acc(trace.VendorCombined, 120).Mean < f5.Acc(trace.VendorCombined, 1).Mean-5 {
		t.Errorf("mean accuracy at 120 min (%.1f) below 1 min (%.1f)",
			f5.Acc(trace.VendorCombined, 120).Mean, f5.Acc(trace.VendorCombined, 1).Mean)
	}

	head := set.HeadlineStats()
	if head.Acc10Min100M.Mean <= 0 || head.Acc10Min100M.Mean > 100 {
		t.Errorf("aggregate headline accuracy = %.1f", head.Acc10Min100M.Mean)
	}

	out := set.Render()
	for _, want := range []string{"2 replicates", "Table 1", "Figure 5", "Headline", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicate rendering missing %q:\n%s", want, out)
		}
	}
}

func TestReplicateStatDegenerate(t *testing.T) {
	one := newReplicateStat([]float64{4})
	if one.Std != 0 || one.N != 1 || one.Mean != 4 {
		t.Errorf("single-sample stat = %+v", one)
	}
	if s := newReplicateStat([]float64{2, 4}); s.Mean != 3 || s.N != 2 || s.Std <= 0 {
		t.Errorf("two-sample stat = %+v", s)
	}
}
