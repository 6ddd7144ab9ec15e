// Command tagserve stands up the serving subsystem: it populates the
// sharded report stores — by streaming an in-the-wild campaign into
// them through the campaign pipeline's store ingester (to completion,
// or with -live while serving), or by loading cmd/tagsim trace dumps —
// and exposes the vendor query API the paper's crawlers
// reverse-engineered (/v1/lastknown, /v1/history, /v1/track, /v1/stats,
// plus POST /v1/report for live ingest).
//
// By default it then turns the load harness on itself — a closed-loop,
// Zipf-skewed query stream over real HTTP against an in-process
// listener — and prints the throughput / latency-quantile report. With
// -live the campaign streams into the serving stores through the
// campaign pipeline while the load harness queries them concurrently —
// reads race real ingest instead of a frozen snapshot. With -addr it
// keeps serving until SIGINT/SIGTERM, then shuts down gracefully:
// in-flight requests (including POST ingests) drain before the final
// stats snapshot prints.
//
// Usage:
//
//	tagserve [-seed N] [-scale F] [-workers N] [-devices N]   # simulate…
//	tagserve -traces DIR                                      # …or load dumps
//	tagserve -live                                            # …or stream live
//	         [-shards N] [-history-limit N]
//	         [-store-dir DIR] [-memtable-bytes N] [-retention SPEC]
//	         [-load N] [-requests N] [-direct] [-writes PCT]
//	         [-open-loop -rate R]
//	         [-no-cache]
//	         [-addr :8080] [-pprof]
//
// -store-dir makes the vendor stores persistent: every vendor keeps a
// write-ahead log and immutable columnar segments under its own
// subdirectory, a SIGINT flushes on the way out, and the next run warm-
// starts from the manifest, replaying only the WAL tail. -retention
// bounds per-tag history ("keep=1000", "window=72h", or both) and
// compaction reclaims the rows it hides; -memtable-bytes dials how much
// history stays resident between flushes.
//
// -writes dials the write share of the load mix (reads get the rest,
// in the crawler's proportions). -open-loop switches the harness to
// Poisson arrivals at -rate requests/second — the
// coordinated-omission-honest view of tail latency. -no-cache is the
// serving plane's escape hatch: it bypasses the hot-tag cache, the
// configuration the cache is benchmarked against.
//
// Observability: the server always exposes GET /metrics (Prometheus
// text) and GET /debug/vars (flat JSON) — per-endpoint latency
// histograms and request counters, per-vendor and per-shard store
// counters, hot-cache effectiveness, and (with -live) pipeline consumer
// lag. -pprof additionally mounts net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/crawler"
	"tagsim/internal/load"
	"tagsim/internal/obs"
	"tagsim/internal/pipeline"
	"tagsim/internal/scenario"
	"tagsim/internal/serve"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tagserve: ")
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.02, "wild campaign scale (1 = the paper's 120 days)")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = one per CPU)")
	devices := flag.Int("devices", 200, "reporting devices per simulated city")
	traces := flag.String("traces", "", "load cmd/tagsim crawl dumps from this directory instead of simulating")
	live := flag.Bool("live", false, "stream the campaign into the serving stores while the load harness queries them")
	shards := flag.Int("shards", 16, "store shards per vendor service")
	historyLimit := flag.Int("history-limit", 0, "retained accepted reports per tag (0 = unbounded)")
	storeDir := flag.String("store-dir", "", "persist the vendor stores under this directory (WAL + segments; restarts warm); empty = in-memory")
	memtableBytes := flag.Int64("memtable-bytes", 8<<20, "retained in-memory history per store before a flush to an immutable segment")
	retention := flag.String("retention", "", `per-tag history retention, e.g. "keep=1000", "window=72h", or both comma-separated (empty = keep everything)`)
	loadWorkers := flag.Int("load", 8, "load-harness client workers (0 disables the self-drive report)")
	requests := flag.Int("requests", 4000, "total load-harness requests")
	direct := flag.Bool("direct", false, "drive the stores directly instead of over HTTP")
	writes := flag.Int("writes", 0, "write (POST /v1/report) share of the load mix in percent")
	openLoop := flag.Bool("open-loop", false, "open-loop Poisson arrivals instead of the closed loop")
	rate := flag.Float64("rate", 2000, "open-loop offered arrival rate across all workers, requests/second")
	noCache := flag.Bool("no-cache", false, "escape hatch: bypass the hot-tag query cache")
	addr := flag.String("addr", "", "serve the query API on this address until SIGINT/SIGTERM (empty: exit after the load report)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	if *writes < 0 || *writes > 100 {
		log.Fatalf("-writes must be in [0, 100], got %d", *writes)
	}
	ret, retErr := store.ParseRetention(*retention)
	if retErr != nil {
		log.Fatalf("-retention: %v", retErr)
	}
	tierCfg := store.Tiering{Dir: *storeDir, MemtableBytes: *memtableBytes, Retention: ret}
	cloud.SetHotCache(!*noCache)
	loadCfg := load.Config{
		Workers: *loadWorkers, Requests: *requests, Seed: *seed,
		OpenLoop: *openLoop, OfferedRate: *rate,
	}
	if *writes > 0 {
		loadCfg.Mix = load.ReadMix(100 - *writes)
	}

	if *live {
		if *traces != "" {
			log.Fatal("-live and -traces are mutually exclusive")
		}
		if err := runLive(*seed, *scale, *workers, *devices, *shards, *historyLimit, tierCfg, loadCfg, *direct, *addr, *pprofOn); err != nil {
			log.Fatal(err)
		}
		return
	}

	var services map[trace.Vendor]*cloud.Service
	var err error
	if *traces != "" {
		services, err = servicesFromTraces(*traces, *shards, *historyLimit, tierCfg)
	} else {
		services, err = servicesFromCampaign(*seed, *scale, *workers, *devices, *shards, *historyLimit, tierCfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer closeServices(services)
	tags := serveTags(services)
	if len(tags) == 0 {
		log.Fatal("no tags to serve")
	}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if svc, ok := services[v]; ok {
			log.Printf("%s", svc)
		}
	}

	handler := maybePprof(serve.NewServer(services), *pprofOn)
	if *loadWorkers > 0 {
		res, err := driveLoad(handler, services, tags, loadCfg, *direct)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Render())
	}
	if *addr != "" {
		if err := serveUntilSignal(*addr, handler, services); err != nil {
			log.Fatal(err)
		}
	}
}

// maybePprof mounts net/http/pprof in front of the query handler when
// requested. Opt-in: profiling handlers can run seconds-long CPU
// captures, so they never ship on by default.
func maybePprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// registerPipelineMetrics bridges the live pipeline's consumer progress
// into the server's registry, labeled by consumer name, so /metrics
// shows batch lag and queue depth next to the serve histograms.
func registerPipelineMetrics(reg *obs.Registry, pl *pipeline.Pipeline) {
	for i, cs := range pl.ConsumerStats() {
		i := i
		consumer := obs.L("consumer", cs.Name)
		reg.CounterFunc("pipeline_consumed_batches_total",
			func() uint64 { return pl.ConsumerStats()[i].Batches }, consumer)
		reg.CounterFunc("pipeline_consumed_records_total",
			func() uint64 { return pl.ConsumerStats()[i].Records }, consumer)
		reg.GaugeFunc("pipeline_queue_depth",
			func() float64 { return float64(pl.ConsumerStats()[i].QueueDepth) }, consumer)
		reg.GaugeFunc("pipeline_lag_batches",
			func() float64 { return float64(pl.ConsumerStats()[i].Lag) }, consumer)
	}
}

// runLive streams an in-the-wild campaign through the pipeline into the
// serving stores while they serve queries: the simulation's accepted
// reports flow batch by batch into the sharded stores, the load harness
// reads concurrently, and the report prints both planes' sustained
// rates.
func runLive(seed int64, scale float64, workers, devices, shards, historyLimit int, tierCfg store.Tiering, loadCfg load.Config, direct bool, addr string, pprofOn bool) error {
	services, err := newServices(shards, historyLimit, tierCfg)
	if err != nil {
		return err
	}
	defer closeServices(services)
	simStart := time.Now()
	ingester, pl, simDone := startCampaign(seed, scale, workers, devices, services)
	log.Printf("live campaign (seed %d, scale %g): streaming %d country worlds into the stores...", seed, scale, pl.Worlds())

	// A signal during the streaming phase still exits gracefully: the
	// stores are consistent at every instant (ingest holds the shard
	// locks), so print the stats snapshot as of the interrupt and stop.
	// The -addr serve phase afterwards installs its own drain handling.
	sigCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	streamPhaseDone := make(chan struct{})
	go func() {
		select {
		case <-sigCtx.Done():
			select {
			case <-streamPhaseDone: // normal completion released the signals
				return
			default:
			}
			log.Printf("signal received mid-stream; stats snapshot at exit (%d reports streamed):", ingester.Ingested())
			for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
				log.Printf("  %s", services[v])
			}
			closeServices(services) // flush so the restart replays nothing
			os.Exit(0)
		case <-streamPhaseDone:
		}
	}()

	srv := serve.NewServer(services)
	registerPipelineMetrics(srv.Metrics(), pl)
	handler := maybePprof(srv, pprofOn)
	if loadCfg.Workers > 0 {
		tags, err := awaitTags(services, simDone)
		if err != nil {
			return err
		}
		res, err := driveLoad(handler, services, tags, loadCfg, direct)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
	}
	<-simDone
	if err := pl.Wait(); err != nil {
		return err
	}
	close(streamPhaseDone)
	stopSig()
	elapsed := time.Since(simStart)
	log.Printf("pipeline: %d reports streamed into the stores in %v (%.0f reports/s)",
		ingester.Ingested(), elapsed.Round(time.Millisecond),
		float64(ingester.Ingested())/elapsed.Seconds())
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		log.Printf("%s", services[v])
	}
	if addr != "" {
		return serveUntilSignal(addr, handler, services)
	}
	return nil
}

// driveLoad runs the load harness against the handler (over in-process
// HTTP, or the store surface with direct — cached when the hot-tag
// cache is on, mirroring what the HTTP query plane deploys).
func driveLoad(handler http.Handler, services map[trace.Vendor]*cloud.Service, tags []string, cfg load.Config, direct bool) (*load.Result, error) {
	cfg.Tags = tags
	var target load.Target
	if direct {
		log.Printf("load: %d workers x store surface (no HTTP)", cfg.Workers)
		if cloud.HotCacheEnabled() {
			target = load.NewCachedServiceTarget(services)
		} else {
			target = load.NewServiceTarget(services)
		}
	} else {
		ts := httptest.NewServer(handler)
		defer ts.Close()
		log.Printf("load: %d workers over HTTP at %s", cfg.Workers, ts.URL)
		target = load.NewHTTPTarget(ts.URL)
	}
	return load.Run(cfg, target)
}

// serveUntilSignal serves the query API until SIGINT/SIGTERM, then
// shuts down gracefully: the listener stops accepting, in-flight
// requests — including POST /v1/report ingests — drain, and the final
// per-vendor stats snapshot prints.
func serveUntilSignal(addr string, handler http.Handler, services map[trace.Vendor]*cloud.Service) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving the vendor query API on %s (SIGINT/SIGTERM to stop)", addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second ^C kills hard
	log.Printf("signal received; draining in-flight requests...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("final stats snapshot:")
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		if svc, ok := services[v]; ok {
			log.Printf("  %s", svc)
		}
	}
	return nil
}

// serveTags collects the sorted union of tag IDs across services.
func serveTags(services map[trace.Vendor]*cloud.Service) []string {
	var tags []string
	seen := map[string]bool{}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		svc, ok := services[v]
		if !ok {
			continue
		}
		for _, id := range svc.TagIDs() {
			if !seen[id] {
				seen[id] = true
				tags = append(tags, id)
			}
		}
	}
	sort.Strings(tags)
	return tags
}

// awaitTags polls until the live stream has registered tags in every
// service (registrations ride the first pipeline batches) or the
// simulation ends, so the load harness queries the full tag universe
// rather than whichever world flushed first.
func awaitTags(services map[trace.Vendor]*cloud.Service, simDone <-chan struct{}) ([]string, error) {
	everyService := func() bool {
		for _, svc := range services {
			if svc.NumTags() == 0 {
				return false
			}
		}
		return true
	}
	for {
		if everyService() {
			return serveTags(services), nil
		}
		select {
		case <-simDone:
			if tags := serveTags(services); len(tags) > 0 {
				return tags, nil
			}
			return nil, fmt.Errorf("campaign finished without registering any tags")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// startCampaign streams an in-the-wild campaign into services through
// the pipeline's store ingester, the only way campaign reports reach
// the stores. simDone closes once every world has run; the stores are
// complete when pl.Wait returns after that.
func startCampaign(seed int64, scale float64, workers, devices int, services map[trace.Vendor]*cloud.Service) (ingester *pipeline.StoreIngester, pl *pipeline.Pipeline, simDone chan struct{}) {
	ingester = pipeline.NewStoreIngester(services)
	cfg := scenario.WildConfig{Seed: seed, Scale: scale, Workers: workers, DevicesPerCity: devices}
	pl = pipeline.New(len(scenario.PlanWild(cfg)), pipeline.Config{}, ingester)
	cfg.Stream = pl
	simDone = make(chan struct{})
	go func() {
		defer close(simDone)
		scenario.RunWild(cfg)
	}()
	return ingester, pl, simDone
}

// servicesFromCampaign simulates the wild campaign into fresh serving
// stores and returns them once the stream has drained.
func servicesFromCampaign(seed int64, scale float64, workers, devices, shards, historyLimit int, tierCfg store.Tiering) (map[trace.Vendor]*cloud.Service, error) {
	log.Printf("simulating campaign (seed %d, scale %g)...", seed, scale)
	out, err := newServices(shards, historyLimit, tierCfg)
	if err != nil {
		return nil, err
	}
	_, pl, simDone := startCampaign(seed, scale, workers, devices, out)
	<-simDone
	return out, pl.Wait()
}

// servicesFromTraces rebuilds serving state from cmd/tagsim crawl dumps
// (crawls_*.csv): consecutive crawl polls that observed the same report
// collapse to one distinct report each — the paper's own history
// reconstruction — which then restores into the stores.
func servicesFromTraces(dir string, shards, historyLimit int, tierCfg store.Tiering) (map[trace.Vendor]*cloud.Service, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "crawls_*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no crawls_*.csv dumps in %s (run cmd/tagsim first)", dir)
	}
	sort.Strings(paths)
	var reports []trace.Report
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		records, err := trace.ReadCrawlCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for _, rec := range crawler.DistinctReports(records) {
			reports = append(reports, trace.Report{
				T: rec.ReportedAt, HeardAt: rec.ReportedAt,
				TagID: rec.TagID, Vendor: rec.Vendor, Pos: rec.Pos,
			})
		}
		log.Printf("loaded %s: %d crawl records", p, len(records))
	}
	trace.SortByTime(reports)
	out, err := newServices(shards, historyLimit, tierCfg)
	if err != nil {
		return nil, err
	}
	perVendor := map[trace.Vendor][]trace.Report{}
	for _, r := range reports {
		perVendor[r.Vendor] = append(perVendor[r.Vendor], r)
	}
	for v, rs := range perVendor {
		svc, ok := out[v]
		if !ok {
			return nil, fmt.Errorf("dump contains reports for unserved vendor %s", v)
		}
		svc.Restore(rs)
	}
	return out, nil
}

// newServices builds the per-vendor services: in-memory by default, or
// persistent (each vendor under its own subdirectory of tierCfg.Dir,
// warm-loading whatever a previous run left there) with -store-dir.
func newServices(shards, historyLimit int, tierCfg store.Tiering) (map[trace.Vendor]*cloud.Service, error) {
	out := map[trace.Vendor]*cloud.Service{}
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		cfg := tierCfg
		if tierCfg.Dir != "" {
			cfg.Dir = filepath.Join(tierCfg.Dir, strings.ToLower(v.String()))
		}
		if cfg.Retention.KeepLast == 0 && historyLimit > 0 {
			// -history-limit maps onto keep-last retention, the bound
			// both ring appends and (on a persistent store) WAL replay
			// and reads trim to.
			cfg.Retention.KeepLast = historyLimit
		}
		svc, err := cloud.NewServicePersistent(v, shards, cfg)
		if err != nil {
			return nil, err
		}
		if st := svc.TierStats(); st.Segments > 0 || st.WALRecords > 0 {
			log.Printf("%s store: warm start from %s (%d segments, %d WAL records replayed)",
				v, cfg.Dir, st.Segments, st.WALRecords)
		}
		out[v] = svc
	}
	return out, nil
}

// closeServices flushes and closes persistent stores so a restart
// replays nothing (a no-op for in-memory services).
func closeServices(services map[trace.Vendor]*cloud.Service) {
	for _, v := range []trace.Vendor{trace.VendorApple, trace.VendorSamsung} {
		svc, ok := services[v]
		if !ok || !svc.Tiered() {
			continue
		}
		if err := svc.Close(); err != nil {
			log.Printf("closing %s store: %v", v, err)
		}
	}
}
