package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Label is one name="value" dimension of a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// series is one registered metric instance: a family name plus its
// label set, bound to the live metric (or a collect-on-scrape func).
type series struct {
	name   string
	labels string // pre-rendered `{k="v",...}` or ""
	kind   metricKind

	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// Registry holds named metrics and renders them. Registration takes a
// lock; the metrics themselves never touch the registry again, so the
// hot path is unaffected by how many series are registered. Rendering
// walks a sorted copy of the series list and loads every value
// atomically (func-backed series are collected at render time).
type Registry struct {
	mu     sync.Mutex
	series []*series
	index  map[string]*series
	help   map[string]string
	sorted bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*series{}, help: map[string]string{}}
}

// Default is the process-wide registry: the planes' global counters
// (scan ticks, pipeline batches, store ingest totals) register here at
// package init, cmd/tagsim's -metrics-every logger snapshots it, and
// the query API appends it to every /metrics and /debug/vars response.
var Default = NewRegistry()

// renderLabels pre-formats a label set in sorted-key order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// register adds (or, for value-backed kinds, returns the existing)
// series under name+labels. Re-registering a name+labels pair as a
// different kind is a programming error.
func (r *Registry) register(name string, labels []Label, kind metricKind) *series {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.index[key]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as a different metric kind", key))
		}
		return s
	}
	s := &series{name: name, labels: renderLabels(labels), kind: kind}
	switch kind {
	case kindCounter:
		s.counter = &Counter{}
	case kindHistogram:
		s.hist = &Histogram{}
	}
	r.index[key] = s
	r.series = append(r.series, s)
	r.sorted = false
	return s
}

// Counter returns the counter registered under name+labels, creating
// it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.register(name, labels, kindCounter).counter
}

// Histogram returns the histogram registered under name+labels,
// creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.register(name, labels, kindHistogram).hist
}

// CounterFunc registers a collect-on-scrape monotonic counter — the
// bridge for planes that already keep their own atomics (store
// accept/reject counters, cache hit counters, shard epochs).
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	r.register(name, labels, kindCounterFunc).counterFn = fn
}

// GaugeFunc registers a collect-on-scrape gauge (tag counts, queue
// depths — anything that can move both ways).
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(name, labels, kindGaugeFunc).gaugeFn = fn
}

// Help attaches a # HELP line to a metric family.
func (r *Registry) Help(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// snapshot returns the series sorted by (name, labels) — the stable
// render order — plus the help map. Sorting is cached between
// registrations, so steady-state scrapes don't re-sort.
func (r *Registry) snapshot() ([]*series, map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.SliceStable(r.series, func(i, j int) bool {
			if r.series[i].name != r.series[j].name {
				return r.series[i].name < r.series[j].name
			}
			return r.series[i].labels < r.series[j].labels
		})
		r.sorted = true
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	return append([]*series(nil), r.series...), help
}

func promType(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// seconds formats a nanosecond quantity as seconds for the Prometheus
// text format.
func seconds(ns float64) string {
	return strconv.FormatFloat(ns/1e9, 'g', -1, 64)
}

// histLabels splices an le="..." pair into a rendered label set.
func histLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// WritePrometheus renders every registry, in order, in the Prometheus
// text exposition format. Histograms render as real cumulative
// histograms (_bucket le-series in seconds plus _sum and _count), so a
// scraper can aggregate and re-quantile them.
func WritePrometheus(w io.Writer, regs ...*Registry) {
	for _, r := range regs {
		series, help := r.snapshot()
		lastFamily := ""
		for _, s := range series {
			if s.name != lastFamily {
				lastFamily = s.name
				if h, ok := help[s.name]; ok {
					fmt.Fprintf(w, "# HELP %s %s\n", s.name, h)
				}
				fmt.Fprintf(w, "# TYPE %s %s\n", s.name, promType(s.kind))
			}
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.counterFn())
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels,
					strconv.FormatFloat(s.gaugeFn(), 'g', -1, 64))
			case kindHistogram:
				snap := s.hist.Snapshot()
				// Emit every boundary up to the last non-empty bucket —
				// including interior empty ones, so the le-series set a
				// scraper stores is cumulative and stable across scrapes
				// (a bucket once emitted never disappears) — then elide
				// the all-empty tail down to +Inf.
				last := -1
				for i, c := range snap.Buckets {
					if c > 0 {
						last = i
					}
				}
				var cum uint64
				for i := 0; i <= last; i++ {
					cum += snap.Buckets[i]
					fmt.Fprintf(w, "%s_bucket%s %d", s.name, histLabels(s.labels, seconds(BucketUpper(i))), cum)
					// OpenMetrics-style exemplar: the last captured trace
					// that landed in this bucket, linking the tail bucket
					// to /debug/traces.
					if ex := snap.Exemplars; ex != nil && ex[i].ID != 0 {
						fmt.Fprintf(w, " # {trace_id=\"%016x\"} %s", ex[i].ID, seconds(float64(ex[i].Ns)))
					}
					io.WriteString(w, "\n")
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, histLabels(s.labels, "+Inf"), snap.Count)
				fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, seconds(float64(snap.SumNs)))
				fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, snap.Count)
			}
		}
	}
}

// WriteJSON renders every registry as one flat JSON object — the
// /debug/vars-style snapshot. Keys are "name{labels}"; counters and
// gauges map to numbers, histograms to {count, sum_s, p50_ms, p95_ms,
// p99_ms}. Later registries win on (impossible within one process,
// but defined) key collisions by simply rendering after.
func WriteJSON(w io.Writer, regs ...*Registry) {
	io.WriteString(w, "{")
	first := true
	for _, r := range regs {
		series, _ := r.snapshot()
		for _, s := range series {
			if !first {
				io.WriteString(w, ",")
			}
			first = false
			fmt.Fprintf(w, "%s:", strconv.Quote(s.name+s.labels))
			switch s.kind {
			case kindCounter:
				fmt.Fprintf(w, "%d", s.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(w, "%d", s.counterFn())
			case kindGaugeFunc:
				fmt.Fprintf(w, "%s", strconv.FormatFloat(s.gaugeFn(), 'g', -1, 64))
			case kindHistogram:
				snap := s.hist.Snapshot()
				p50, p95, p99 := snap.QuantilesMs()
				fmt.Fprintf(w, `{"count":%d,"sum_s":%s,"p50_ms":%s,"p95_ms":%s,"p99_ms":%s}`,
					snap.Count, seconds(float64(snap.SumNs)),
					strconv.FormatFloat(p50, 'g', -1, 64),
					strconv.FormatFloat(p95, 'g', -1, 64),
					strconv.FormatFloat(p99, 'g', -1, 64))
			}
		}
	}
	io.WriteString(w, "}\n")
}

// Compact renders the registry as one space-separated line of
// name{labels}=value pairs (histograms as count/p50/p99 in ms) — the
// shape cmd/tagsim's -metrics-every stderr logger emits for headless
// campaigns.
func (r *Registry) Compact() string {
	series, _ := r.snapshot()
	var b strings.Builder
	for i, s := range series {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.name)
		b.WriteString(s.labels)
		b.WriteByte('=')
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%d", s.counter.Value())
		case kindCounterFunc:
			fmt.Fprintf(&b, "%d", s.counterFn())
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s", strconv.FormatFloat(s.gaugeFn(), 'g', -1, 64))
		case kindHistogram:
			snap := s.hist.Snapshot()
			p50, _, p99 := snap.QuantilesMs()
			fmt.Fprintf(&b, "n%d/p50=%.3fms/p99=%.3fms", snap.Count, p50, p99)
		}
	}
	return b.String()
}

// GetCounter, GetHistogram and the Func variants address the
// Default registry — the one-line way a plane registers its global
// series at package init.
func GetCounter(name string, labels ...Label) *Counter { return Default.Counter(name, labels...) }

// GetHistogram returns a histogram in the Default registry.
func GetHistogram(name string, labels ...Label) *Histogram { return Default.Histogram(name, labels...) }

// Since is shorthand for observing an elapsed duration when metrics
// are enabled; callers guard the time.Now() itself behind Enabled so
// the disabled path never reads the clock:
//
//	var t0 time.Time
//	if obs.Enabled() { t0 = time.Now() }
//	...
//	obs.Since(h, t0)
//
// A zero t0 (metrics were disabled at entry) records nothing even if
// metrics were re-enabled mid-request.
func Since(h *Histogram, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}
