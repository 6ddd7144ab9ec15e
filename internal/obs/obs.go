// Package obs is the observability core every plane reports through:
// allocation-free, always-on counters and lock-free log-bucketed
// latency histograms, plus a registry (registry.go) that also collects
// func-backed counters and gauges on scrape and renders one snapshot of
// everything as Prometheus text and JSON.
//
// Design constraints, in order:
//
//   - The instrumented hot path must stay within noise of the
//     uninstrumented one. Every metric is a plain struct of atomics —
//     no maps, no locks, no interface dispatch, no allocation on
//     update. A counter bump is one atomic add; a histogram
//     observation is three (count, sum, bucket).
//   - Reads never coordinate with writers. Quantiles derive from a
//     point-in-time copy of the bucket array — atomic loads only — so
//     a scrape can run while every core is observing.
//   - SetEnabled is the escape hatch the overhead benchmarks toggle:
//     disabled, every update compiles down to one atomic flag load and
//     a branch (BENCH_obs.json records both sides on the cached read
//     path).
//
// Histogram buckets are powers of two of nanoseconds (bucket i holds
// values in [2^(i-1), 2^i)), so the full range from 1 ns to ~146 years
// fits in 64 fixed buckets and bucketing is one bits.Len64 — no search,
// no configuration. Quantiles are exact to bucket resolution: the
// reported p99 lands in the same power-of-two bucket as the true p99
// (TestHistogramQuantilesAgreeWithStats pins this against
// stats.Quantiles).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// disabled gates every metric update. Default off: metrics are always
// on, and SetEnabled(false) is the benchmark escape hatch mirroring
// cloud.SetHotCache.
var disabled atomic.Bool

// SetEnabled toggles metric collection (default on). Disabled, every
// update is one atomic load and a branch; already-collected values stay
// readable. It returns the previous setting.
func SetEnabled(on bool) (was bool) { return !disabled.Swap(!on) }

// Enabled reports whether metric updates are being applied.
func Enabled() bool { return !disabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use, so counters embed directly into hot-path structs.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: bucket 0
// holds zero-duration observations and bucket i (i >= 1) holds
// durations in [2^(i-1), 2^i) nanoseconds, the last bucket catching
// everything above 2^62 ns.
const HistBuckets = 64

// Histogram is a lock-free log-bucketed latency histogram: a fixed
// array of atomic bucket counters plus running count and sum. All
// methods are safe for unsynchronized concurrent use; an observation
// is three atomic adds and quantiles need no locks. The zero value is
// ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
	// exemplars, allocated on first SetExemplar, holds per bucket the
	// last captured trace that landed in it. Observe never touches it —
	// only the tracer's capture path (which already decided the request
	// was tail-worthy) pays the stores.
	exemplars atomic.Pointer[[HistBuckets]exemplar]
}

// exemplar is one bucket's last captured trace: the ID every trace
// surface formats, plus the observed duration the Prometheus exemplar
// syntax wants as its value. The two fields are independently atomic;
// a concurrent overwrite can pair an ID with the other capture's
// duration, but both are then valid exemplars of the same bucket.
type exemplar struct {
	id atomic.Uint64
	ns atomic.Int64
}

// bucketOf maps a nanosecond value onto its bucket index.
func bucketOf(ns uint64) int {
	b := bits.Len64(ns)
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// BucketUpper returns bucket i's exclusive upper bound in nanoseconds
// (2^i; bucket 0, which holds only exact zeros, reports 1).
func BucketUpper(i int) float64 {
	if i <= 0 {
		return 1
	}
	return math.Ldexp(1, i)
}

// bucketLower returns bucket i's inclusive lower bound in nanoseconds.
func bucketLower(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Ldexp(1, i-1)
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if disabled.Load() {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

// SetExemplar links trace id as the exemplar of the bucket duration d
// lands in. The tracer calls it at capture time, so /metrics tail
// buckets point at concrete traces on /debug/traces.
func (h *Histogram) SetExemplar(d time.Duration, id uint64) {
	ex := h.exemplars.Load()
	if ex == nil {
		ex = new([HistBuckets]exemplar)
		if !h.exemplars.CompareAndSwap(nil, ex) {
			ex = h.exemplars.Load()
		}
	}
	ns := int64(0)
	if d > 0 {
		ns = int64(d)
	}
	e := &ex[bucketOf(uint64(ns))]
	e.id.Store(id)
	e.ns.Store(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram, the unit
// the renderers and quantile math work from. Counts across buckets are
// mutually consistent to within the observations that landed while the
// copy was taken (each bucket load is individually atomic).
type HistogramSnapshot struct {
	Count   uint64
	SumNs   uint64
	Buckets [HistBuckets]uint64
	// Exemplars is nil until the histogram's first SetExemplar; then
	// Exemplars[i] names the last captured trace in bucket i (ID 0 =
	// none yet).
	Exemplars *[HistBuckets]Exemplar
}

// Exemplar is a snapshot of one bucket's exemplar.
type Exemplar struct {
	ID uint64
	Ns int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.SumNs = h.sum.Load()
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		s.Count += c
	}
	if ex := h.exemplars.Load(); ex != nil {
		out := new([HistBuckets]Exemplar)
		for i := range ex {
			out[i] = Exemplar{ID: ex[i].id.Load(), Ns: ex[i].ns.Load()}
		}
		s.Exemplars = out
	}
	return s
}

// Quantile returns the p-th percentile (0..100) of the observed
// durations in nanoseconds, to bucket resolution: the returned value
// lies in the same power-of-two bucket as the exact order statistic,
// linearly interpolated by rank within the bucket. An empty histogram
// returns 0, mirroring stats.Quantiles' NaN-free zero summary.
func (h *Histogram) Quantile(p float64) float64 {
	s := h.Snapshot()
	return s.Quantile(p)
}

// Quantile is Histogram.Quantile over a snapshot, using the same rank
// convention as stats.Percentile (rank = p/100 * (n-1), rounded up to
// the next whole sample).
func (s *HistogramSnapshot) Quantile(p float64) float64 {
	n := s.Count
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	k := uint64(math.Ceil(p / 100 * float64(n-1))) // 0-based sample index
	var cum uint64
	for i := range s.Buckets {
		c := s.Buckets[i]
		if c > 0 && cum+c > k {
			// Sample k is the (k-cum+1)-th of this bucket's c samples;
			// interpolate its position across the bucket's span.
			frac := (float64(k-cum) + 0.5) / float64(c)
			lo, hi := bucketLower(i), BucketUpper(i)
			if i == 0 {
				return 0 // bucket 0 holds only exact zeros
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return BucketUpper(HistBuckets - 1)
}

// QuantilesMs returns the p50/p95/p99 summary in milliseconds — the
// unit the load harness and the serving benches report.
func (s *HistogramSnapshot) QuantilesMs() (p50, p95, p99 float64) {
	const ms = float64(time.Millisecond)
	return s.Quantile(50) / ms, s.Quantile(95) / ms, s.Quantile(99) / ms
}
