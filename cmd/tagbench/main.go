package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tagsim/internal/stats"
)

// workers is the concurrency of every workload: the campaign's world
// and figure fan-out, and the serving workloads' closed-loop clients
// (one HTTP connection each). It matches the 2-vCPU host the ledger in
// bench/ was recorded on.
const workers = 2

// sizes holds every input size and latency limit. The CLI always runs
// defaultSizes; the tests pass tiny ones.
type sizes struct {
	// Campaign and figures: experiments.Options.
	Scale          float64 `json:"scale"`
	DevicesPerCity int     `json:"devices_per_city"`
	// Serving: Tags tags split across two vendor stores of Shards
	// shards, Reports accepted reports each; Warmup requests before
	// the measured phase, which issues Chunk-request load runs until
	// the time budget is spent.
	Shards      int   `json:"shards"`
	HotTags     int   `json:"hot_tags"`
	HotReports  int   `json:"hot_reports"`
	HotWarmup   int   `json:"hot_warmup"`
	HotChunk    int   `json:"hot_chunk"`
	ColdTags    int   `json:"cold_tags"`
	ColdReports int   `json:"cold_reports"`
	ColdWarmup  int   `json:"cold_warmup"`
	ColdChunk   int   `json:"cold_chunk"`
	ColdLoadMem int64 `json:"cold_load_memtable_bytes"`
	ColdMem     int64 `json:"cold_memtable_bytes"`
	// HotP99, ColdP99 are the latency limits a run's p99_ms must meet.
	HotP99  time.Duration `json:"hot_p99_limit_ns"`
	ColdP99 time.Duration `json:"cold_p99_limit_ns"`
	// ReplayOps caps the in-process replay of a traced serving run.
	ReplayOps int `json:"replay_ops"`
	// SetupReps is how many times an untraced run sets its workload
	// up; setup_s adds the median to the median of StartupProbes
	// launches of the process.
	SetupReps     int `json:"setup_reps"`
	StartupProbes int `json:"startup_probes"`
}

var defaultSizes = sizes{
	Scale: 0.1, DevicesPerCity: 500,
	Shards:  256,
	HotTags: 768, HotReports: 192, HotWarmup: 20000, HotChunk: 5000,
	ColdTags: 16384, ColdReports: 96, ColdWarmup: 5000, ColdChunk: 2500,
	ColdLoadMem: 32 << 20, ColdMem: 128 << 10,
	HotP99: 2 * time.Millisecond, ColdP99: 5 * time.Millisecond,
	ReplayOps:     20000,
	SetupReps:     3,
	StartupProbes: 5,
}

// config is one invocation of one workload.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	workdir  string
	sizes    sizes
	// digests maps digestKey values to the expected output digests.
	digests map[string]string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, in print order.
// Their bounds live in BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// workloads maps each workload name to its run function; BENCHMARK.json
// and doc.go say why each exists.
var workloads = map[string]func(*run) error{
	"campaign":   runCampaign,
	"figures":    runFigures,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is the state of one workload invocation.
type run struct {
	cfg config
	out io.Writer // human-readable report lines

	attempted, failed int

	startup    time.Duration   // median process start-up
	setups     []time.Duration // each set-up
	units      []time.Duration // each unit of measured work
	p50s, p99s []float64       // each unit's median and 99th-percentile op latency, ms
	ops        int             // operations completed in the measured phase

	rec    *recorder          // traced runs only
	layers map[string]float64 // traced runs: per-layer values
}

func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// check records one output check.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.logf("check FAILED: "+format, args...)
	}
}

// setUp runs the workload's set-up SetupReps times, timing each; the
// state the last call leaves is what gets measured. Before each
// repetition, teardown (if any) releases the previous one's state and a
// collection keeps its garbage out of the next timing and out of the
// memory high-water mark.
func (r *run) setUp(teardown func(), fn func() error) error {
	for i := 0; i < max(r.cfg.sizes.SetupReps, 1); i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t))
	}
	return nil
}

// measure repeats unit until the time budget is spent. It stops before
// a unit that would overrun the budget by more than half a unit, so a
// run measures close to budget of work whatever the unit's length; at
// least one unit always runs. unit returns the duration of its work,
// leaving out any preparation it does first.
func (r *run) measure(budget time.Duration, unit func() (time.Duration, error)) error {
	begin := time.Now()
	for {
		d, err := unit()
		if err != nil {
			return err
		}
		r.units = append(r.units, d)
		if time.Since(begin)+d/2 >= budget {
			return nil
		}
	}
}

// opLatencies records the latencies of one unit's operations, in ms.
// Every end-to-end metric is a median over units, so a burst of
// interference from outside the process moves a few units, not the
// result.
func (r *run) opLatencies(lat []float64) {
	q := stats.Quantiles(lat)
	r.p50s = append(r.p50s, q.P50)
	r.p99s = append(r.p99s, q.P99)
	r.ops += len(lat)
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// result assembles the run's output line.
func (r *run) result() result {
	res := result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	if r.cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{finite(r.layers[m.name]), m.unit}
		}
		return res
	}
	us := seconds(r.units)
	wall := median(us)
	vals := map[string]float64{
		"setup_s":     r.startup.Seconds() + median(seconds(r.setups)),
		"wall_s":      wall,
		"ops_per_s":   float64(r.ops) / float64(len(r.units)) / wall,
		"p50_ms":      median(r.p50s),
		"p99_ms":      median(r.p99s),
		"rss_peak_mb": peakRSSMB(),
	}
	sort.Float64s(us)
	r.logf("measured %d units of %d ops: %.4fs min, %.4fs median, %.4fs max; set-up %v start-up + %v median of %d",
		len(us), r.ops/len(us), us[0], wall, us[len(us)-1], r.startup, time.Duration(median(seconds(r.setups))*1e9), len(r.setups))
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{finite(vals[m.name]), m.unit}
	}
	return res
}

// finite maps a value JSON cannot carry to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// rtSnap is the process-wide runtime state a traced phase differences.
type rtSnap struct {
	at         time.Time
	cpu        time.Duration
	gcs        int64
	pause      time.Duration
	allocBytes uint64
}

func takeRT() rtSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return rtSnap{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcs:        gc.NumGC,
		pause:      gc.PauseTotal,
		allocBytes: s[0].Value.Uint64(),
	}
}

// runtimeLayers fills the runtime.* per-layer metrics for the window
// between two snapshots that completed ops operations.
func (r *run) runtimeLayers(a, b rtSnap, ops int) {
	wall := b.at.Sub(a.at).Seconds()
	r.layers["runtime.cpu_util"] = (b.cpu - a.cpu).Seconds() / wall
	r.layers["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
	r.layers["runtime.gc_pause_s"] = (b.pause - a.pause).Seconds()
	r.layers["runtime.alloc_bytes_per_op"] = float64(b.allocBytes-a.allocBytes) / float64(max(ops, 1))
}

// traceLayers fills the trace.* metrics from the measured root span and
// the untraced wall time of the same work, and prints the attribution:
// self time per layer under the root, and what no span claims.
func (r *run) traceLayers(p *profile, rootName string, untraced time.Duration) (span, error) {
	root, ok := p.root(rootName)
	if !ok {
		return span{}, fmt.Errorf("trace has no %s span", rootName)
	}
	att, unatt := p.attribution(root)
	r.layers["trace.wall_s"] = root.dur().Seconds()
	r.layers["trace.overhead_s"] = (root.dur() - untraced).Seconds()
	r.layers["trace.unattributed_s"] = unatt.Seconds()
	r.layers["trace.attributed_share"] = float64(att) / float64(root.dur())
	r.logf("trace %s: wall %.3fs, untraced %.3fs, attributed %.1f%%, unattributed %.3fs",
		rootName, root.dur().Seconds(), untraced.Seconds(), 100*float64(att)/float64(root.dur()), unatt.Seconds())
	self := p.self[root.ID]
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		r.logf("self %-12s %10.4fs", l, self[l].Seconds())
	}
	return root, nil
}

// share is a span total as seconds per second of the traced wall.
func share(d, wall time.Duration) float64 { return float64(d) / float64(wall) }

// provenance says where and how a result was measured.
type provenance struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Sizes      sizes   `json:"sizes"`
}

func newProvenance(cfg config) provenance {
	p := provenance{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Go: runtime.Version(), Revision: "unknown",
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace, Sizes: cfg.sizes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// execute runs one workload and returns its result line.
func execute(cfg config, out io.Writer) (result, error) {
	runWorkload, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	prov, err := json.Marshal(newProvenance(cfg))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "provenance %s\n", prov)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}
	r := &run{cfg: cfg, out: out}
	if n := cfg.sizes.StartupProbes; n > 0 && !cfg.trace {
		d, err := startupTime(n)
		if err != nil {
			return result{}, err
		}
		r.startup = d
	}
	if cfg.trace {
		r.rec = newRecorder()
		r.layers = map[string]float64{}
	}
	if err := runWorkload(r); err != nil {
		return result{}, err
	}
	if cfg.trace {
		spans := r.rec.snapshot()
		err := checkNesting(spans)
		r.check(err == nil, "spans nest: %v", err)
		path := cfg.traceOut
		if path == "" {
			path = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		}
		if err := r.rec.writeFile(path); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		r.logf("spans: %d written to %s", len(spans), path)
	}
	res := r.result()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// startupTime launches this binary n times with -startup-probe, which
// exits as soon as its flags are parsed, and returns the median time
// from launch to exit: process start and runtime and package
// initialisation, the part of set-up every run pays before main.
func startupTime(n int) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		if err := exec.Command(exe, "-startup-probe").Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		ds[i] = time.Since(t).Seconds()
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses flags and runs one workload, or with -runs re-executes
// itself N times. Exit status: 0 when every check passed, 1 when one
// failed, 2 on bad usage or a run that could not complete.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tagbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file a traced run writes its spans to (default <workdir>/trace-<workload>-<seed>.json)")
	runs := fs.Int("runs", 0, "re-execute tagbench this many times on seeds seed, seed+1, ... and print each metric's median and quartiles")
	workdir := fs.String("workdir", ".bench_build", "directory for store files and span dumps")
	probe := fs.Bool("startup-probe", false, "exit right after start-up; runs launch themselves this way to time process start")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "tagbench: -trace must be 0 or 1")
		return 2
	}
	if *runs > 0 {
		return runMany(*runs, *seed, args, stdout, stderr)
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)),
		trace: *traced == 1, traceOut: *traceOut, workdir: *workdir,
		sizes: defaultSizes, digests: recordedDigests,
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "tagbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "tagbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runMany re-executes this binary n times with the same flags on
// consecutive seeds and prints one JSON document: the provenance of the
// first run, every run's result, and per metric the median and the
// quartiles (Python's statistics.quantiles, exclusive method).
func runMany(n int, seed int64, args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "tagbench:", err)
		return 2
	}
	var base []string
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("runs", 0, "")
	fs.Int64("seed", 0, "")
	// Keep every flag except -runs and -seed, which this loop sets.
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(name, "=")
		if name == "runs" || name == "seed" {
			if !hasValue {
				i++
			}
			continue
		}
		base = append(base, args[i])
	}
	type runOut struct {
		Seed   int64  `json:"seed"`
		Result result `json:"result"`
	}
	doc := struct {
		Provenance json.RawMessage               `json:"provenance"`
		Runs       []runOut                      `json:"runs"`
		Summary    map[string]map[string]float64 `json:"summary"`
	}{Summary: map[string]map[string]float64{}}
	status := 0
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, append(append([]string{}, base...), "-seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintln(stderr, "tagbench:", err)
			return 2
		}
		var res result
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if p, ok := bytes.CutPrefix(line, []byte("provenance ")); ok && doc.Provenance == nil {
				doc.Provenance = append(json.RawMessage(nil), p...)
			}
			last = append(last[:0], line...)
		}
		stderr.Write(bytes.TrimSuffix(out, append(last, '\n')))
		if err := json.Unmarshal(last, &res); err != nil {
			fmt.Fprintf(stderr, "tagbench: run %d (seed %d) printed no result: %v\n", i, s, err)
			return 2
		}
		if !res.Correct {
			status = 1
		}
		doc.Runs = append(doc.Runs, runOut{Seed: s, Result: res})
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		fmt.Fprintf(stderr, "tagbench: run %d/%d seed %d done (correct=%v)\n", i+1, n, s, res.Correct)
	}
	for name, vs := range values {
		q1, med, q3 := quartiles(vs)
		sum := map[string]float64{"median": med, "q1": q1, "q3": q3}
		if med != 0 {
			sum["iqr_share"] = (q3 - q1) / math.Abs(med)
		}
		doc.Summary[name] = sum
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "tagbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return status
}

// quartiles returns the first quartile, median and third quartile of
// vs the way Python's statistics.quantiles(vs, n=4) and
// statistics.median compute them.
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n == 1 {
		return d[0], med, d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
