// Package stats provides the statistical machinery the paper's analysis
// uses: summary statistics, percentiles, empirical CDFs, Welch's t-test
// with exact p-values, 95% confidence intervals, and the significance-star
// notation from Figure 5 (ns, *, **, ***, ****).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned by tests and intervals that need more
// samples than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or NaN for n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation, or NaN for n < 2.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean, or NaN for n < 2.
func StdErr(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Summary bundles the descriptive statistics reported throughout the
// experiment tables.
type Summary struct {
	N            int
	Mean, Std    float64
	Min, Max     float64
	Median       float64
	P25, P75     float64
	StdErr, CI95 float64 // CI95 is the half-width of the 95% interval
}

// Summarize computes a Summary. For N < 2 the spread fields are NaN.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Std: StdDev(xs), StdErr: StdErr(xs)}
	if len(xs) == 0 {
		s.Min, s.Max, s.Median, s.P25, s.P75, s.CI95 = nan, nan, nan, nan, nan, nan
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = percentileSorted(sorted, 50)
	s.P25 = percentileSorted(sorted, 25)
	s.P75 = percentileSorted(sorted, 75)
	if len(xs) >= 2 {
		s.CI95 = TCritical(float64(len(xs)-1), 0.05) * s.StdErr
	} else {
		s.CI95 = nan
	}
	return s
}

var nan = math.NaN()

// Percentile returns the p-th percentile (0..100) with linear interpolation
// between order statistics, or NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return nan
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantileSummary bundles the latency quantiles the serving benchmarks
// and the load harness report.
type QuantileSummary struct {
	N             int
	P50, P95, P99 float64
}

// Quantiles computes the p50/p95/p99 summary of the samples with the
// same linear interpolation as Percentile. Degenerate inputs stay
// NaN-free so reports render and serialize cleanly: an empty slice
// yields the zero summary, and a single sample is its own p50/p95/p99.
func Quantiles(xs []float64) QuantileSummary {
	// Only the empty input needs special casing: a single sample already
	// comes out NaN-free from the interpolation (rank 0 -> sorted[0]).
	if len(xs) == 0 {
		return QuantileSummary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSummary{
		N:   len(xs),
		P50: percentileSorted(sorted, 50),
		P95: percentileSorted(sorted, 95),
		P99: percentileSorted(sorted, 99),
	}
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over the samples. The input is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// Eval returns P(X <= x), or NaN when the ECDF is empty.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return nan
	}
	// Count of samples <= x via binary search.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// TTestResult reports a two-sided Welch's t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs a two-sample, two-sided Welch's t-test (unequal
// variances), the test used for Figures 5d-f. Each sample needs n >= 2.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		if ma == mb {
			return TTestResult{T: 0, DF: na + nb - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(ma - mb)), DF: na + nb - 2, P: 0}, nil
	}
	t := (ma - mb) / se
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	p := 2 * studentTSF(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// Stars renders a p-value in the paper's notation: ns for p > 0.05,
// * for 0.01 < p <= 0.05, ** for 0.001 < p <= 0.01, *** for
// 0.0001 < p <= 0.001, and **** for p <= 0.0001.
func Stars(p float64) string {
	switch {
	case math.IsNaN(p) || p > 0.05:
		return "ns"
	case p > 0.01:
		return "*"
	case p > 0.001:
		return "**"
	case p > 0.0001:
		return "***"
	default:
		return "****"
	}
}

// studentTSF returns the survival function P(T > t) of Student's t with df
// degrees of freedom, for t >= 0.
func studentTSF(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * RegIncBeta(df/2, 0.5, x)
}

// TCritical returns the two-sided critical value t* with P(|T| > t*) =
// alpha for Student's t with df degrees of freedom, via bisection.
func TCritical(df, alpha float64) float64 {
	if df <= 0 || alpha <= 0 || alpha >= 1 {
		return nan
	}
	target := alpha / 2
	lo, hi := 0.0, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if studentTSF(mid, df) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style, with
// the modified Lentz algorithm).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
