package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance of the classic dataset: population var is 4,
	// sample var is 32/7.
	if v := Variance(xs); !almostEqual(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestMeanShiftInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 1000
		}
		return almostEqual(Mean(shifted), Mean(xs)+1000, 1e-6) &&
			almostEqual(Variance(shifted), Variance(xs), math.Max(1e-6, Variance(xs)*1e-9))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantilesKnownDistributions(t *testing.T) {
	// 0..999 uniform grid: rank p/100*(n-1) with linear interpolation.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	// Shuffle deterministically: Quantiles must sort internally.
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	q := Quantiles(xs)
	if q.N != 1000 {
		t.Errorf("N = %d", q.N)
	}
	if !almostEqual(q.P50, 499.5, 1e-9) || !almostEqual(q.P95, 949.05, 1e-9) || !almostEqual(q.P99, 989.01, 1e-9) {
		t.Errorf("uniform quantiles = %+v", q)
	}
	// Quantiles must agree with Percentile on any sample set.
	exp := make([]float64, 500)
	for i := range exp {
		exp[i] = rng.ExpFloat64()
	}
	qe := Quantiles(exp)
	for _, c := range []struct{ got, p float64 }{{qe.P50, 50}, {qe.P95, 95}, {qe.P99, 99}} {
		if want := Percentile(exp, c.p); !almostEqual(c.got, want, 1e-12) {
			t.Errorf("p%v = %v, Percentile says %v", c.p, c.got, want)
		}
	}
	// Input must not be reordered by the call.
	before := append([]float64(nil), exp...)
	Quantiles(exp)
	for i := range exp {
		if exp[i] != before[i] {
			t.Fatal("Quantiles mutated its input")
		}
	}
}

// TestQuantilesDegenerate pins the NaN-free contract for tiny inputs:
// the load harness and serving reports embed these summaries in JSON
// and rendered tables, where a NaN would poison both.
func TestQuantilesDegenerate(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want QuantileSummary
	}{
		{"nil", nil, QuantileSummary{}},
		{"empty", []float64{}, QuantileSummary{}},
		{"single", []float64{42}, QuantileSummary{N: 1, P50: 42, P95: 42, P99: 42}},
		{"single-zero", []float64{0}, QuantileSummary{N: 1}},
		{"single-negative", []float64{-3.5}, QuantileSummary{N: 1, P50: -3.5, P95: -3.5, P99: -3.5}},
		{"pair", []float64{1, 3}, QuantileSummary{N: 2, P50: 2, P95: 2.9, P99: 2.98}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Quantiles(c.xs)
			if math.IsNaN(got.P50) || math.IsNaN(got.P95) || math.IsNaN(got.P99) {
				t.Fatalf("Quantiles(%v) contains NaN: %+v", c.xs, got)
			}
			if got.N != c.want.N ||
				!almostEqual(got.P50, c.want.P50, 1e-12) ||
				!almostEqual(got.P95, c.want.P95, 1e-12) ||
				!almostEqual(got.P99, c.want.P99, 1e-12) {
				t.Errorf("Quantiles(%v) = %+v, want %+v", c.xs, got, c.want)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	// Percentiles must not depend on input order.
	shuffled := []float64{7, 1, 9, 3, 10, 5, 2, 8, 6, 4}
	if got := Percentile(shuffled, 50); !almostEqual(got, 5.5, 1e-12) {
		t.Errorf("Percentile of shuffled = %v, want 5.5", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.CI95 <= 0 || math.IsNaN(s.CI95) {
		t.Errorf("CI95 = %v, want positive", s.CI95)
	}
	// Half-width = t_{0.975,4} * stderr = 2.776 * sqrt(2.5)/sqrt(5).
	want := 2.7764 * math.Sqrt(2.5) / math.Sqrt(5)
	if !almostEqual(s.CI95, want, 0.01) {
		t.Errorf("CI95 = %v, want %v", s.CI95, want)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) || !math.IsNaN(empty.Median) {
		t.Errorf("empty Summarize = %+v", empty)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(NewECDF(nil).Eval(1)) {
		t.Error("empty ECDF Eval should be NaN")
	}
}

func TestECDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	e := NewECDF(xs)
	prev := 0.0
	for x := -40.0; x <= 40; x += 0.5 {
		v := e.Eval(x)
		if v < prev-1e-12 {
			t.Fatalf("ECDF decreased at %v", x)
		}
		prev = v
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.7} {
		lhs := RegIncBeta(2.5, 3.5, x)
		rhs := 1 - RegIncBeta(3.5, 2.5, 1-x)
		if !almostEqual(lhs, rhs, 1e-10) {
			t.Errorf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
	// I_{0.5}(a,a) = 0.5 by symmetry.
	if got := RegIncBeta(4, 4, 0.5); !almostEqual(got, 0.5, 1e-10) {
		t.Errorf("I_0.5(4,4) = %v, want 0.5", got)
	}
}

func TestStudentTCDFAgainstTables(t *testing.T) {
	// Standard two-sided critical values: P(|T| > crit) = alpha.
	cases := []struct {
		df, crit, alpha float64
	}{
		{1, 12.706, 0.05},
		{5, 2.571, 0.05},
		{10, 2.228, 0.05},
		{30, 2.042, 0.05},
		{10, 3.169, 0.01},
		{100, 1.984, 0.05},
	}
	for _, c := range cases {
		p := 2 * studentTSF(c.crit, c.df)
		if !almostEqual(p, c.alpha, 0.001) {
			t.Errorf("df=%v t=%v: p = %v, want %v", c.df, c.crit, p, c.alpha)
		}
		crit := TCritical(c.df, c.alpha)
		if !almostEqual(crit, c.crit, 0.01) {
			t.Errorf("TCritical(%v, %v) = %v, want %v", c.df, c.alpha, crit, c.crit)
		}
	}
}

func TestWelchTTest(t *testing.T) {
	// Clearly different populations.
	a := []float64{10.1, 10.3, 9.8, 10.0, 10.2, 9.9, 10.1, 10.0}
	b := []float64{12.1, 12.3, 11.8, 12.0, 12.2, 11.9, 12.1, 12.0}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("p = %v, want tiny", res.P)
	}
	if res.T >= 0 {
		t.Errorf("t = %v, want negative (a < b)", res.T)
	}

	// Same population: p should usually be large.
	res2, err := WelchTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res2.P < 0.99 {
		t.Errorf("identical samples: p = %v, want ~1", res2.P)
	}

	if _, err := WelchTTest([]float64{1}, a); err == nil {
		t.Error("want ErrInsufficientData for n=1")
	}
}

func TestWelchTTestConstantSamples(t *testing.T) {
	same, err := WelchTTest([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil || same.P != 1 {
		t.Errorf("constant equal samples: p = %v err = %v, want 1, nil", same.P, err)
	}
	diff, err := WelchTTest([]float64{5, 5, 5}, []float64{6, 6, 6})
	if err != nil || diff.P != 0 {
		t.Errorf("constant different samples: p = %v err = %v, want 0, nil", diff.P, err)
	}
}

func TestWelchTTestFalsePositiveRate(t *testing.T) {
	// Drawing both samples from N(0,1), p < 0.05 should occur ~5% of
	// the time.
	rng := rand.New(rand.NewSource(1234))
	trials, rejects := 2000, 0
	for i := 0; i < trials; i++ {
		a := make([]float64, 20)
		b := make([]float64, 20)
		for j := range a {
			a[j] = rng.NormFloat64()
			b[j] = rng.NormFloat64()
		}
		res, err := WelchTTest(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			rejects++
		}
	}
	rate := float64(rejects) / float64(trials)
	if rate < 0.02 || rate > 0.09 {
		t.Errorf("false positive rate = %v, want ~0.05", rate)
	}
}

func TestStars(t *testing.T) {
	cases := []struct {
		p    float64
		want string
	}{
		{0.5, "ns"}, {0.051, "ns"}, {0.05, "*"}, {0.02, "*"},
		{0.01, "**"}, {0.005, "**"}, {0.001, "***"}, {0.0005, "***"},
		{0.0001, "****"}, {1e-9, "****"}, {math.NaN(), "ns"},
	}
	for _, c := range cases {
		if got := Stars(c.p); got != c.want {
			t.Errorf("Stars(%v) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestTCriticalEdgeCases(t *testing.T) {
	if !math.IsNaN(TCritical(0, 0.05)) || !math.IsNaN(TCritical(5, 0)) || !math.IsNaN(TCritical(5, 1)) {
		t.Error("invalid TCritical inputs should return NaN")
	}
}

func BenchmarkWelchTTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WelchTTest(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECDFEval(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	e := NewECDF(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(0.5)
	}
}
