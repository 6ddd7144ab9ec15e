package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload so that all of them, untraced and
// traced, run in seconds.
var tinySizes = sizes{
	Scale: 0.01, DevicesPerCity: 30,
	Shards:  16,
	HotTags: 64, HotReports: 16, HotWarmup: 400, HotChunk: 400,
	ColdTags: 256, ColdReports: 8, ColdWarmup: 200, ColdChunk: 300,
	ColdLoadMem: 64 << 10, ColdMem: 4 << 10,
	// Loose limits: tiny runs check the plumbing, not this host's speed,
	// and the race detector alone slows requests past the real limits.
	HotP99: time.Second, ColdP99: time.Second,
	ReplayOps: 300,
	SetupReps: 2,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloads runs every workload of BENCHMARK.json untraced and
// traced at tiny sizes: each run passes its checks, prints every metric
// BENCHMARK.json lists with its unit and a finite value, and a traced
// run's spans nest and cover at least 90% of its wall time.
func TestWorkloads(t *testing.T) {
	bench := readBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, tagbench has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{
					workload: w.Name, seed: 3, seconds: 300 * time.Millisecond, trace: traced,
					traceOut: filepath.Join(dir, "spans.json"), workdir: dir, sizes: tinySizes,
				}
				var out bytes.Buffer
				res, err := execute(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run failed its checks (%d of %d):\n%s", res.Failed, res.Attempted, out.String())
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want unit %s and a finite value", m.Name, got, ok, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}
				if a := res.Metrics["trace.attributed_share"].Value; a < 0.9 {
					t.Errorf("named spans cover %.1f%% of the traced wall time, want >= 90%%", 100*a)
				}
				b, err := os.ReadFile(cfg.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var dump struct{ Spans []span }
				if err := json.Unmarshal(b, &dump); err != nil {
					t.Fatal(err)
				}
				if len(dump.Spans) == 0 {
					t.Fatal("no spans written")
				}
				if err := checkNesting(dump.Spans); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestFailedCheckFailsRun: an output that differs from its recorded
// digest, or a p99 over the workload's limit, makes the run incorrect.
func TestFailedCheckFailsRun(t *testing.T) {
	digest := config{workload: "figures", seed: 3, seconds: time.Millisecond, sizes: tinySizes}
	digest.digests = map[string]string{digestKey("figures", digest.sizes, digest.seed): strings.Repeat("0", 64)}
	latency := config{workload: "serve-hot", seed: 3, seconds: time.Millisecond, sizes: tinySizes}
	latency.sizes.HotP99 = time.Nanosecond
	for want, cfg := range map[string]config{"differs from the recorded": digest, "over serve-hot's limit": latency} {
		t.Run(cfg.workload, func(t *testing.T) {
			cfg.workdir = t.TempDir()
			cfg.sizes.SetupReps = 1
			var out bytes.Buffer
			res, err := execute(cfg, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 || !strings.Contains(out.String(), want) {
				t.Fatalf("want a failed check %q, got correct=%v:\n%s", want, res.Correct, out.String())
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}
