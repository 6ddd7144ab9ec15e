package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagsim/internal/stats"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// A gauge is collected on scrape, so it moves both ways.
	r := NewRegistry()
	g := 7.0
	r.GaugeFunc("g", func() float64 { return g })
	if out := r.Compact(); out != "g=7" {
		t.Fatalf("gauge render = %q, want g=7", out)
	}
	g -= 3
	if out := r.Compact(); out != "g=4" {
		t.Fatalf("gauge render = %q, want g=4", out)
	}
}

func TestSetEnabledGatesUpdates(t *testing.T) {
	defer SetEnabled(SetEnabled(false))
	if Enabled() {
		t.Fatal("Enabled() after SetEnabled(false)")
	}
	var c Counter
	var h Histogram
	c.Inc()
	h.Observe(time.Second)
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled metrics moved: counter=%d hist=%d", c.Value(), h.Count())
	}
	SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled counter did not move")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("zero histogram not empty")
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if q := h.Quantile(p); q != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0 (NaN-free like stats.Quantiles)", p, q)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Observe(300 * time.Nanosecond) // bucket [256, 512)
	if h.Count() != 1 || h.Sum() != 300*time.Nanosecond {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	for _, p := range []float64{0, 50, 99, 100} {
		q := h.Quantile(p)
		if q < 256 || q >= 512 {
			t.Fatalf("Quantile(%v) = %v, want within the sample's bucket [256, 512)", p, q)
		}
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Exact powers of two land in the bucket they open: bucket i covers
	// [2^(i-1), 2^i), so 2^k maps to bucket k+1 and 2^k - 1 to bucket k.
	cases := []struct {
		ns     uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3},
		{255, 8}, {256, 9}, {257, 9},
		{1 << 20, 21}, {1<<20 - 1, 20},
		{math.MaxInt64, HistBuckets - 1},
	}
	var h Histogram
	for _, c := range cases {
		h.Observe(time.Duration(c.ns))
	}
	snap := h.Snapshot()
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.bucket)
		}
	}
	if snap.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(cases))
	}
	// Negative durations clamp into the zero bucket.
	h.Observe(-time.Second)
	if got := h.Snapshot().Buckets[0]; got != 2 {
		t.Fatalf("zero bucket = %d after negative observe, want 2", got)
	}
}

// TestHistogramQuantilesAgreeWithStats is the histogram-vs-
// stats.Quantiles equivalence property: for random samples, both the
// exact percentile and the histogram's estimate must lie between the
// power-of-two bucket bounds of the order statistics the percentile
// interpolates between — bucket-resolution agreement, the precision the
// log-bucketed design promises.
func TestHistogramQuantilesAgreeWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"uniform", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(rng.Intn(1_000_000))
			}
			return xs
		}},
		{"lognormal", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Exp(rng.NormFloat64()*3 + 8)
			}
			return xs
		}},
		{"constant", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 12345
			}
			return xs
		}},
		{"bimodal", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 100
				if rng.Intn(10) == 0 {
					xs[i] = 5_000_000
				}
			}
			return xs
		}},
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 2, 3, 10, 500} {
			xs := shape.gen(n)
			var h Histogram
			for _, x := range xs {
				h.Observe(time.Duration(x))
			}
			sorted := append([]float64(nil), xs...)
			stats.Quantiles(sorted) // exercises the same sorting path
			exact := func(p float64) float64 { return stats.Percentile(xs, p) }
			for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
				rank := p / 100 * float64(n-1)
				lo := append([]float64(nil), xs...)
				sortFloats(lo)
				bLo := bucketOf(uint64(lo[int(math.Floor(rank))]))
				bHi := bucketOf(uint64(lo[int(math.Ceil(rank))]))
				lower, upper := bucketLower(bLo), BucketUpper(bHi)
				if e := exact(p); e < lower || e >= upper {
					t.Fatalf("%s n=%d p=%v: exact %v outside its own bucket span [%v, %v)",
						shape.name, n, p, e, lower, upper)
				}
				q := h.Quantile(p)
				if q < lower || q > upper {
					t.Errorf("%s n=%d p=%v: hist quantile %v outside bucket span [%v, %v] of exact %v",
						shape.name, n, p, q, lower, upper, exact(p))
				}
			}
		}
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestHistogramP99MatchesLoadQuantiles drives both quantile engines
// over the same latency-shaped sample and checks the millisecond
// summaries agree to within a factor of two (one bucket) on every
// reported quantile.
func TestHistogramP99MatchesLoadQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	var ms []float64
	for i := 0; i < 4000; i++ {
		d := time.Duration(50_000 + rng.Intn(500_000)) // 50-550 µs
		if rng.Intn(100) == 0 {
			d = time.Duration(5_000_000 + rng.Intn(20_000_000)) // tail
		}
		h.Observe(d)
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	exact := stats.Quantiles(ms)
	snap := h.Snapshot()
	p50, p95, p99 := snap.QuantilesMs()
	for _, q := range []struct {
		name        string
		hist, exact float64
	}{{"p50", p50, exact.P50}, {"p95", p95, exact.P95}, {"p99", p99, exact.P99}} {
		if q.hist < q.exact/2 || q.hist > q.exact*2 {
			t.Errorf("%s: hist %.4f ms vs exact %.4f ms — outside one-bucket agreement", q.name, q.hist, q.exact)
		}
	}
}

func TestRegistryDedupeAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("k", "v"))
	b := r.Counter("x_total", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if r.Counter("x_total", L("k", "w")) == a {
		t.Fatal("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.GaugeFunc("x_total", func() float64 { return 0 }, L("k", "v"))
}

func TestPrometheusRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", L("endpoint", "lastknown"), L("code", "2xx")).Add(7)
	r.GaugeFunc("queue_depth", func() float64 { return 3 })
	r.GaugeFunc("tags", func() float64 { return 42 })
	r.CounterFunc("epoch_total", func() uint64 { return 9 })
	h := r.Histogram("latency_seconds", L("endpoint", "track"))
	h.Observe(300 * time.Nanosecond)
	h.Observe(100 * time.Microsecond)
	r.Help("requests_total", "requests by endpoint and status class")

	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total requests by endpoint and status class",
		"# TYPE requests_total counter",
		`requests_total{code="2xx",endpoint="lastknown"} 7`,
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"tags 42",
		"# TYPE epoch_total counter",
		"epoch_total 9",
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{endpoint="track",le="5.12e-07"} 1`,
		// Interior empty buckets between the two samples must still be
		// emitted (cumulatively), so the le-series set a scraper stores
		// never loses a boundary once a later sample makes it interior.
		`latency_seconds_bucket{endpoint="track",le="1.024e-06"} 1`,
		`latency_seconds_bucket{endpoint="track",le="6.5536e-05"} 1`,
		`latency_seconds_bucket{endpoint="track",le="0.000131072"} 2`,
		`latency_seconds_bucket{endpoint="track",le="+Inf"} 2`,
		`latency_seconds_count{endpoint="track"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus render missing %q in:\n%s", want, out)
		}
	}
	// The all-empty tail past the last sample is still elided.
	if strings.Contains(out, `le="0.000262144"`) {
		t.Errorf("prometheus render emits empty tail buckets:\n%s", out)
	}
}

// TestPrometheusExemplars pins the OpenMetrics-style exemplar suffix:
// a histogram bucket that a captured trace landed in carries the trace
// ID, and buckets without exemplars stay plain.
func TestPrometheusExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds")
	h.Observe(300 * time.Nanosecond)
	h.Observe(100 * time.Microsecond)
	h.SetExemplar(100*time.Microsecond, 0xbeef)

	var buf bytes.Buffer
	WritePrometheus(&buf, r)
	out := buf.String()
	want := `latency_seconds_bucket{le="0.000131072"} 2 # {trace_id="000000000000beef"} 0.0001`
	if !strings.Contains(out, want) {
		t.Errorf("prometheus render missing exemplar line %q in:\n%s", want, out)
	}
	if strings.Contains(out, `le="5.12e-07"} 1 #`) {
		t.Errorf("exemplar leaked onto a bucket without one:\n%s", out)
	}
}

func TestJSONRenderParsesAndMerges(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("alpha_total").Add(2)
	b.GaugeFunc("beta", func() float64 { return -4 })
	b.Histogram("lat_seconds").Observe(time.Millisecond)
	var buf bytes.Buffer
	WriteJSON(&buf, a, b)
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("JSON render does not parse: %v\n%s", err, buf.String())
	}
	if m["alpha_total"].(float64) != 2 {
		t.Errorf("alpha_total = %v", m["alpha_total"])
	}
	if m["beta"].(float64) != -4 {
		t.Errorf("beta = %v", m["beta"])
	}
	hist, ok := m["lat_seconds"].(map[string]any)
	if !ok || hist["count"].(float64) != 1 {
		t.Errorf("lat_seconds = %v", m["lat_seconds"])
	}
}

func TestCompactRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("ticks_total").Add(11)
	r.Histogram("lat_seconds").Observe(2 * time.Millisecond)
	out := r.Compact()
	if !strings.Contains(out, "ticks_total=11") || !strings.Contains(out, "lat_seconds=n1/") {
		t.Fatalf("compact render = %q", out)
	}
	if strings.Contains(out, "\n") {
		t.Fatal("compact render spans lines")
	}
}

// TestConcurrentObserveAndRender is the package's race gate: every
// metric type updated from many goroutines while renders and quantile
// reads run concurrently. Run under -race in CI.
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	var g atomic.Int64
	h := r.Histogram("h_seconds")
	r.GaugeFunc("f", func() float64 { return float64(c.Value()) })
	r.GaugeFunc("g", func() float64 { return float64(g.Load()) })
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
				g.Add(int64(w - 1))
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		WritePrometheus(&buf, r)
		WriteJSON(&buf, r)
		_ = r.Compact()
		_ = h.Quantile(99)
		// Concurrent registration of new series must also be safe.
		r.Counter("late_total", L("i", string(rune('a'+i%26)))).Inc()
		runtime.Gosched()
	}
	wg.Wait()
	if c.Value() == 0 || h.Count() == 0 {
		t.Fatal("no updates landed")
	}
}
