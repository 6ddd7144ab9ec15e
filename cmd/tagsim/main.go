// Command tagsim runs one simulation scenario and writes its raw traces
// (ground truth and crawler logs) as CSV/JSONL, the format of the paper's
// released dataset.
//
// Usage:
//
//	tagsim -scenario wild|cafeteria -seed N -out DIR [-scale F] [-workers N] [-replicates N]
//
// -workers fans the wild campaign's country worlds across CPUs (0 = one
// per CPU) without changing any output; -scan-workers additionally
// region-shards each world's scan tick across a pool (also
// output-preserving). -replicates N > 1 runs the wild campaign from N
// derived seeds and writes each replicate's traces under DIR/repNNN/.
// -reportlog additionally streams every cloud-accepted report to
// DIR/reports.col (TAGRPT1) as the simulation runs, and -truthlog every
// ground-truth GPS fix to DIR/truth.col (TAGGTC2, time-sorted within
// each country). Both are internal/pipeline's columnar logs: the magic,
// then frames of 4096 rows, no index or trailer;
// tagsim.ReadReportsColumnar and pipeline.ReadAllTruth read them back
// front to back. -metrics-every D logs the
// process-wide metrics snapshot (scan ticks, region scan latency,
// truth-log bytes, pipeline throughput, storage-tier activity — WAL
// records/fsyncs, flushes, compactions — the obs.Default registry) to
// stderr every D while the scenario runs, plus once at the end — the
// headless campaign's progress view. -trace-every D additionally renders every
// newly captured slow-op trace (tier flushes, compactions, pipeline
// batches slower than their own p99) as a flame-line block.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"tagsim"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/pipeline"
	"tagsim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tagsim: ")
	scenarioName := flag.String("scenario", "wild", "scenario to run: wild or cafeteria")
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.1, "wild campaign scale")
	fleetScale := flag.Float64("fleet-scale", 1, "reporting-fleet size multiplier (residents, pedestrians, staff, neighbors, co-travelers)")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = one per CPU, 1 = sequential)")
	scanWorkers := flag.Int("scan-workers", 0, "region-shard each world's scan tick across this many workers (0 = serial)")
	replicates := flag.Int("replicates", 1, "wild campaign replicates to run from derived seeds")
	reportLog := flag.Bool("reportlog", false, "stream accepted cloud reports to DIR/reports.col (columnar) during the wild run")
	truthLog := flag.Bool("truthlog", false, "stream ground-truth GPS fixes to DIR/truth.col (columnar) during the wild run")
	metricsEvery := flag.Duration("metrics-every", 0, "log the process metrics snapshot to stderr at this period (0 disables)")
	traceEvery := flag.Duration("trace-every", 0, "render newly captured slow-op traces to stderr as flame lines at this period (0 disables)")
	out := flag.String("out", "traces", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	if *metricsEvery > 0 {
		stop := startMetricsLogger(*metricsEvery)
		defer stop()
	}
	if *traceEvery > 0 {
		stop := startTraceLogger(*traceEvery)
		defer stop()
	}
	switch *scenarioName {
	case "wild":
		runWild(*seed, *scale, *fleetScale, *workers, *scanWorkers, *replicates, *reportLog, *truthLog, *out)
	case "cafeteria":
		runCafeteria(*seed, *out)
	default:
		log.Fatalf("unknown scenario %q", *scenarioName)
	}
}

// startMetricsLogger emits the obs.Default snapshot to stderr on the
// given period (and once more when stopped — the final totals), as one
// compact name=value line per tick. Differencing two consecutive lines
// gives the live rates: pipeline_reports_total over the period is the
// campaign's reports/s.
func startMetricsLogger(every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				log.Printf("metrics: %s", obs.Default.Compact())
			case <-done:
				log.Printf("metrics (final): %s", obs.Default.Compact())
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// startTraceLogger renders every slow-op trace newly captured since
// the previous tick as a compact flame-line block on stderr — the
// headless campaign's answer to tagserve's /debug/traces. Capture IDs
// are monotonically assigned, so "new since last tick" is one
// high-water mark; ticks render oldest-first so the log reads in
// capture order.
func startTraceLogger(every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	var seen uint64
	dump := func() {
		caps := otrace.DefaultRing.Snapshot(0) // newest first
		for i := len(caps) - 1; i >= 0; i-- {
			c := caps[i]
			if c.ID <= seen {
				continue
			}
			seen = c.ID
			log.Printf("trace captured:\n%s", c.Flame())
		}
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				dump()
			case <-done:
				dump()
				return
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func runWild(seed int64, scale, fleetScale float64, workers, scanWorkers, replicates int, reportLog, truthLog bool, out string) {
	cfg := tagsim.WildConfig{Seed: seed, Scale: scale, FleetScale: fleetScale, Workers: workers, ScanWorkers: scanWorkers}
	// One pipeline per campaign: the collector behind tagsim.RunWild
	// rebuilds the datasets the CSV dumps write, and the requested
	// columnar logs stream to disk beside it while the campaign runs.
	run := func(cfg tagsim.WildConfig, dir string) *tagsim.WildResult {
		var sinks []pipeline.Consumer
		var files []*os.File
		addSink := func(name string, mk func(f *os.File) pipeline.Consumer) {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				log.Fatal(err)
			}
			sinks = append(sinks, mk(f))
			files = append(files, f)
		}
		if reportLog {
			addSink("reports.col", func(f *os.File) pipeline.Consumer { return pipeline.NewReportSink(f) })
		}
		if truthLog {
			addSink("truth.col", func(f *os.File) pipeline.Consumer { return pipeline.NewTruthSink(f) })
		}
		res, err := tagsim.CollectWild(cfg, sinks...)
		if err != nil {
			log.Fatalf("columnar log: %v", err)
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				log.Fatalf("close %s: %v", f.Name(), err)
			}
			log.Printf("wrote %s", f.Name())
		}
		return res
	}
	if replicates <= 1 {
		writeWildTraces(run(cfg, out), out)
		return
	}
	// One replicate at a time (countries still parallel within each),
	// flushed to disk before the next starts, so peak memory stays at
	// one campaign no matter how many replicates are requested.
	for r := 0; r < replicates; r++ {
		rcfg := cfg
		rcfg.Seed = tagsim.ReplicateSeed(seed, r)
		dir := filepath.Join(out, fmt.Sprintf("rep%03d", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Fatal(err)
		}
		log.Printf("replicate %d (seed %d):", r, rcfg.Seed)
		writeWildTraces(run(rcfg, dir), dir)
	}
}

func writeWildTraces(res *tagsim.WildResult, out string) {
	for _, cr := range res.Countries {
		gtPath := filepath.Join(out, fmt.Sprintf("groundtruth_%s.csv", cr.Spec.Code))
		writeFile(gtPath, func(f *os.File) error {
			return trace.WriteGroundTruthCSV(f, cr.Dataset.GroundTruth)
		})
		for _, v := range []tagsim.Vendor{tagsim.VendorApple, tagsim.VendorSamsung} {
			p := filepath.Join(out, fmt.Sprintf("crawls_%s_%s.csv", cr.Spec.Code, v))
			recs := cr.Dataset.CrawlsFor(v)
			writeFile(p, func(f *os.File) error {
				return trace.WriteCrawlCSV(f, recs)
			})
		}
		log.Printf("%s: %d fixes, %d apple + %d samsung crawl records",
			cr.Spec.Code, len(cr.Dataset.GroundTruth),
			len(cr.Dataset.CrawlsFor(tagsim.VendorApple)),
			len(cr.Dataset.CrawlsFor(tagsim.VendorSamsung)))
	}
}

func runCafeteria(seed int64, out string) {
	res := tagsim.RunCafeteria(tagsim.CafeteriaConfig{Seed: seed})
	writeFile(filepath.Join(out, "cafeteria_counts.jsonl"), func(f *os.File) error {
		return trace.WriteJSONL(f, res.Counts)
	})
	writeFile(filepath.Join(out, "cafeteria_apple_reports.jsonl"), func(f *os.File) error {
		return trace.WriteJSONL(f, res.AppleHistory)
	})
	writeFile(filepath.Join(out, "cafeteria_samsung_reports.jsonl"), func(f *os.File) error {
		return trace.WriteJSONL(f, res.SamsungHistory)
	})
	log.Printf("cafeteria: %d hourly counts, %d apple + %d samsung reports",
		len(res.Counts), len(res.AppleHistory), len(res.SamsungHistory))
}

func writeFile(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	log.Printf("wrote %s", path)
}
