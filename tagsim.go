// Package tagsim reproduces "I Tag, You Tag, Everybody Tags!" (IMC 2023)
// as a deterministic simulation study: the AirTag and SmartTag crowd-
// finding ecosystems — BLE advertising, reporting-device fleets, vendor
// clouds, companion-app crawlers, and vantage-point ground truth — plus
// the paper's full measurement methodology and every table/figure of its
// evaluation.
//
// This package is the public facade. The typical entry points are:
//
//	c := tagsim.NewCampaign(tagsim.CampaignOptions{Seed: 1, Scale: 0.25})
//	fmt.Print(tagsim.Table1(c).Render())
//	fmt.Print(tagsim.Figure5Sweep(c, 100).Render())
//
// or, for the controlled experiments:
//
//	fmt.Print(tagsim.Figure2(1).Render())          // beacon RSSI
//	fmt.Print(tagsim.Figure3(1, 5).Render())       // cafeteria update rates
//
// Lower-level building blocks (the BLE layer codec, the discrete-event
// engine, mobility models, the analysis primitives) are re-exported here
// so downstream code can compose its own experiments.
package tagsim

import (
	"fmt"
	"io"

	"tagsim/internal/analysis"
	"tagsim/internal/antistalk"
	"tagsim/internal/ble"
	"tagsim/internal/cloud"
	"tagsim/internal/experiments"
	"tagsim/internal/geo"
	"tagsim/internal/load"
	"tagsim/internal/mobility"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/pipeline"
	"tagsim/internal/runner"
	"tagsim/internal/scenario"
	"tagsim/internal/serve"
	"tagsim/internal/stats"
	"tagsim/internal/store"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// Core geographic and record types.
type (
	// LatLon is a WGS-84 position in decimal degrees.
	LatLon = geo.LatLon
	// Vendor identifies a tag ecosystem (Apple, Samsung, Combined).
	Vendor = trace.Vendor
	// GroundTruth is one vantage-point GPS fix.
	GroundTruth = trace.GroundTruth
	// CrawlRecord is one companion-app crawler observation.
	CrawlRecord = trace.CrawlRecord
	// Report is one crowd report accepted by a vendor cloud.
	Report = trace.Report
)

// Vendor identifiers.
const (
	VendorApple    = trace.VendorApple
	VendorSamsung  = trace.VendorSamsung
	VendorCombined = trace.VendorCombined
	VendorOther    = trace.VendorOther
)

// Campaign types and experiment entry points.
type (
	// CampaignOptions sizes the in-the-wild campaign. Workers bounds how
	// many independent worlds simulate concurrently (0 = one per CPU);
	// output is identical for any value.
	CampaignOptions = experiments.Options
	// Campaign is one executed in-the-wild campaign with its analysis
	// state (shared by Table 1 and Figures 5-8).
	Campaign = experiments.Campaign
	// ReplicateSet bundles N same-config campaigns run from distinct
	// derived seeds, with across-replicate mean ± spread aggregates.
	ReplicateSet = experiments.ReplicateSet
	// ReplicateStat is one across-replicate aggregate (mean, std, N).
	ReplicateStat = experiments.ReplicateStat
)

// NewCampaign runs the six-country in-the-wild campaign.
func NewCampaign(opts CampaignOptions) *Campaign { return experiments.NewCampaign(opts) }

// CampaignReplicates runs the campaign at n derived seeds, one campaign
// after another, and bundles the runs for aggregate analysis.
func CampaignReplicates(opts CampaignOptions, n int) *ReplicateSet {
	return experiments.CampaignReplicates(opts, n)
}

// DefaultCampaignOptions is sized to regenerate every figure in tens of
// seconds; set Scale to 1 for the paper's full 120 days.
func DefaultCampaignOptions() CampaignOptions { return experiments.DefaultOptions() }

// Experiment constructors, one per paper artifact.
var (
	// Figure2 runs the secluded-area beacon RSSI experiment.
	Figure2 = experiments.Figure2
	// Figure3 runs the cafeteria deployment, aggregated by hour of day.
	Figure3 = experiments.Figure3
	// Figure4 buckets cafeteria update rates by reporting-device count.
	Figure4 = experiments.Figure4
	// Figure3From and Figure4From render Figures 3 and 4 from one
	// RunCafeteria result, so rendering both simulates the deployment
	// once.
	Figure3From = experiments.Figure3From
	Figure4From = experiments.Figure4From
	// Table1 summarizes the campaign dataset like the paper's Table 1.
	Table1 = experiments.Table1
	// Figure5Sweep computes accuracy vs responsiveness at one radius.
	Figure5Sweep = experiments.Figure5Sweep
	// Figure5d/e/f compute the classified accuracy panels.
	Figure5d = experiments.Figure5d
	Figure5e = experiments.Figure5e
	Figure5f = experiments.Figure5f
	// Figure6 computes visited hexagons for one country.
	Figure6 = experiments.Figure6
	// Figure7 computes accuracy CDFs by population density.
	Figure7 = experiments.Figure7
	// Figure8 sweeps accuracy over radius x time window.
	Figure8 = experiments.Figure8
	// Headline computes the paper's abstract-level numbers.
	Headline = experiments.Headline
	// Battery compares the tags' battery models.
	Battery = experiments.Battery
	// AblationStrategies compares reporting policies in a fixed crowd.
	AblationStrategies = experiments.AblationStrategies
)

// Scenario building blocks for custom experiments.
type (
	// WildConfig parameterizes a custom in-the-wild campaign.
	WildConfig = scenario.WildConfig
	// WildResult is a full campaign's output, one entry per country.
	WildResult = scenario.WildResult
	// CountryResult is one country's campaign output.
	CountryResult = scenario.CountryResult
	// CountryJob is one schedulable country world (see PlanWild).
	CountryJob = scenario.CountryJob
	// CountrySpec is one Table 1 row worth of campaign.
	CountrySpec = scenario.CountrySpec
	// CafeteriaConfig parameterizes the instrumented cafeteria.
	CafeteriaConfig = scenario.CafeteriaConfig
	// CafeteriaResult is a cafeteria run: what Figures 3 and 4 read.
	CafeteriaResult = scenario.CafeteriaResult
	// SecludedConfig parameterizes the RSSI measurement.
	SecludedConfig = scenario.SecludedConfig
)

// RunWild simulates an in-the-wild campaign, countries in parallel on
// WildConfig.Workers workers, and returns every country's raw ground
// truth, crawl logs and homes: CollectWild with no sinks, so
// cfg.Stream is replaced.
func RunWild(cfg WildConfig) *WildResult {
	res, err := scenario.CollectWild(cfg)
	if err != nil {
		// The collector does no I/O; an error here is a broken pipeline
		// contract, not a runtime condition.
		panic(err)
	}
	return res
}

// Scenario runners.
var (
	// CollectWild is RunWild with sinks: further pipeline consumers
	// (a ReportSink, say) fed from the same campaign stream.
	CollectWild = scenario.CollectWild
	// PlanWild lays out a campaign's CountryJobs without running them.
	PlanWild = scenario.PlanWild
	// ReplicateSeed derives the base seed of replicate r.
	ReplicateSeed = scenario.ReplicateSeed
	// RunCafeteria simulates the cafeteria deployment.
	RunCafeteria = scenario.RunCafeteria
	// SecludedRSSI runs the controlled RSSI measurement.
	SecludedRSSI = scenario.SecludedRSSI
	// Table1Countries returns the paper's six-country campaign spec.
	Table1Countries = scenario.Table1Countries
)

// Analysis primitives for working with datasets directly.
type (
	// Dataset bundles ground truth with crawler records.
	Dataset = analysis.Dataset
	// TruthIndex answers position-at-time queries over ground truth.
	TruthIndex = analysis.TruthIndex
	// AccuracyResult is a hit/miss tally.
	AccuracyResult = analysis.AccuracyResult
	// AnalysisIndex is the one-time columnar index over (truth, distinct
	// crawl records) that every accuracy metric merges against.
	AnalysisIndex = analysis.Index
	// BucketClassifier assigns accuracy buckets to classes (Figures 5d-f).
	BucketClassifier = analysis.BucketClassifier
)

// Analysis entry points.
var (
	// NewDataset builds a time-sorted dataset.
	NewDataset = analysis.NewDataset
	// NewTruthIndex indexes ground-truth fixes.
	NewTruthIndex = analysis.NewTruthIndex
	// NewAnalysisIndex dedups and indexes a crawl log against ground
	// truth; build it once when evaluating many (bucket, radius, window)
	// combinations over the same data.
	NewAnalysisIndex = analysis.NewIndex
	// Accuracy computes the paper's bucketed hit/miss accuracy.
	Accuracy = analysis.Accuracy
	// DailyAccuracy computes one accuracy sample per UTC day.
	DailyAccuracy = analysis.DailyAccuracy
	// AccuracyByClass tallies accuracy per classifier class.
	AccuracyByClass = analysis.AccuracyByClass
	// DailyAccuracyByClass produces per-day samples per class (the
	// t-test inputs behind Figures 5d-f).
	DailyAccuracyByClass = analysis.DailyAccuracyByClass
	// SpeedClassifier/PeriodClassifier/WeekPartClassifier are the
	// paper's bucket stratifications (mobility, day period, week part).
	SpeedClassifier    = analysis.SpeedClassifier
	PeriodClassifier   = analysis.PeriodClassifier
	WeekPartClassifier = analysis.WeekPartClassifier
	// DistinctReports collapses repeated crawl observations of one
	// underlying report (shared by the analysis plane and the crawler).
	DistinctReports = trace.DistinctReports
	// SortCrawlByReportTime sorts crawl records by reconstructed report
	// time under a deterministic total order.
	SortCrawlByReportTime = trace.SortByReportTime
	// DetectHomes finds overnight locations for the home filter.
	DetectHomes = analysis.DetectHomes
	// FilterNearHomes applies the 300 m home filter.
	FilterNearHomes = analysis.FilterNearHomes
	// Episodes segments ground truth into place visits.
	Episodes = analysis.Episodes
	// FirstHitDelays measures backtracking delay per episode.
	FirstHitDelays = analysis.FirstHitDelays
	// BacktrackFraction summarizes backtrackable movement share.
	BacktrackFraction = analysis.BacktrackFraction
)

// SweepMinutes are the responsiveness values swept in Figures 5a-c.
var SweepMinutes = experiments.SweepMinutes

// Statistics helpers used across the analyses.
var (
	// WelchTTest is the two-sided unequal-variance t-test.
	WelchTTest = stats.WelchTTest
	// Stars renders p-values in the paper's ns/*/**/***/**** notation.
	Stars = stats.Stars
	// LatencyQuantiles computes the p50/p95/p99 summary the load
	// harness reports.
	LatencyQuantiles = stats.Quantiles
)

// Serving subsystem: the sharded concurrent report store behind the
// vendor clouds, the HTTP query API the paper's crawlers
// reverse-engineered, and the closed-loop load harness.
type (
	// CloudService is one vendor's location backend (a vendor label
	// over a ReportStore).
	CloudService = cloud.Service
	// CombinedClouds is the paper's emulated unified ecosystem view.
	CombinedClouds = cloud.Combined
	// ReportStore is the sharded, concurrency-safe report store.
	ReportStore = store.Store
	// StoreSnapshot is a consistent point-in-time view of a store.
	StoreSnapshot = store.Snapshot
	// QueryServer is the http.Handler exposing /v1/lastknown, /v1/history,
	// /v1/track, /v1/stats and POST /v1/report.
	QueryServer = serve.Server
	// LoadConfig parameterizes the deterministic load generator
	// (closed loop by default, open-loop Poisson via OpenLoop).
	LoadConfig = load.Config
	// LoadResult is one load run's throughput/latency report.
	LoadResult = load.Result
	// LoadTarget is a serving backend the load generator can drive.
	LoadTarget = load.Target
	// LoadMix weighs the generated operations, including the write share.
	LoadMix = load.Mix
	// HotTagCache is the bounded, epoch-validated cache the query API
	// serves hot /v1/lastknown and /v1/track answers from.
	HotTagCache = cloud.HotCache
	// LatencyHistogram is the lock-free log-bucketed histogram the obs
	// plane records durations in (LoadConfig.Latency plugs one into the
	// load generator's per-request timing).
	LatencyHistogram = obs.Histogram
	// Registry is a named collection of obs series rendered by /metrics
	// and /debug/vars.
	Registry = obs.Registry
	// StoreTiering configures a persistent report store: directory,
	// memtable flush threshold, WAL fsync batching, retention,
	// compaction fan-in.
	StoreTiering = store.Tiering
	// StoreRetention is the per-tag history policy (keep-last N,
	// keep-window D, or both).
	StoreRetention = store.Retention
	// StoreTierStats is the storage tier's counter snapshot (WAL and
	// segment sizes, flushes, compactions, quarantines).
	StoreTierStats = store.TierStats
)

var (
	// NewCloudService creates a vendor cloud on the default shard count.
	NewCloudService = cloud.NewService
	// NewCloudServiceSharded sizes the backing store's shard count.
	NewCloudServiceSharded = cloud.NewServiceSharded
	// NewReportStore creates a bare sharded report store.
	NewReportStore = store.New
	// OpenReportStore creates or recovers a tiered persistent store
	// (WAL + memtable + immutable columnar segments); with an empty
	// directory it degenerates to an in-memory store.
	OpenReportStore = store.Open
	// NewCloudServicePersistent is NewCloudServiceSharded on a tiered
	// persistent store — restarts warm-load from the store directory.
	NewCloudServicePersistent = cloud.NewServicePersistent
	// ParseStoreRetention parses "keep=N", "window=DUR", or both
	// (comma-separated) into a StoreRetention.
	ParseStoreRetention = store.ParseRetention
	// NewQueryServer builds the vendor query API over per-vendor clouds.
	NewQueryServer = serve.NewServer
	// RunLoad drives a target with the load generator.
	RunLoad = load.Run
	// NewHTTPTarget points the load generator at a query API base URL.
	NewHTTPTarget = load.NewHTTPTarget
	// NewServiceTarget points the load generator directly at the stores.
	NewServiceTarget = load.NewServiceTarget
	// NewCachedServiceTarget is NewServiceTarget behind the hot-tag cache.
	NewCachedServiceTarget = load.NewCachedServiceTarget
	// LoadReadMix builds the 60/75/90%-read operation mixes of the
	// serving benchmarks.
	LoadReadMix = load.ReadMix
	// DefaultLoadMix is the crawler-shaped all-read operation mix.
	DefaultLoadMix = load.DefaultMix
	// NewHotTagCache builds a hot-tag cache over per-vendor clouds.
	NewHotTagCache = cloud.NewHotCache
	// SetHotCache toggles the query plane's hot-tag caching (default
	// on). It returns the previous setting.
	SetHotCache = cloud.SetHotCache
	// SetMetrics toggles every obs counter, gauge, and histogram update
	// process-wide (default on; the always-on metrics escape hatch). It
	// returns the previous setting.
	SetMetrics = obs.SetEnabled
	// MetricsEnabled reports whether obs updates are currently on.
	MetricsEnabled = obs.Enabled
	// SetTracing toggles request-scoped span tracing process-wide
	// (default on; the always-on tracing escape hatch mirroring
	// SetMetrics). It returns the previous setting.
	SetTracing = otrace.SetTracing
	// TracingEnabled reports whether span tracing is currently on.
	TracingEnabled = otrace.Enabled
	// MetricsRegistry is the process-wide obs registry (plane totals:
	// scan ticks, pipeline throughput); serve.Server keeps its own.
	MetricsRegistry = obs.Default
)

// Streaming campaign pipeline: the live data path from the radio plane
// to the serving store, the analysis plane, and disk: the only exit
// from a simulated world. NewCampaign builds every campaign through it
// (one CampaignAccumulator consumer), RunWild every raw dataset.
type (
	// Pipeline coordinates world emitters, the ordered merge, and the
	// consumer fan-out of one streaming campaign.
	Pipeline = pipeline.Pipeline
	// PipelineConfig sizes the pipeline's batches and buffers.
	PipelineConfig = pipeline.Config
	// PipelineBatch is one ordered emission unit from one world.
	PipelineBatch = pipeline.Batch
	// PipelineConsumer receives the merged, ordered batch stream.
	PipelineConsumer = pipeline.Consumer
	// StoreIngester streams accepted reports into serving stores while
	// the simulation runs (how tagserve fills its stores).
	StoreIngester = pipeline.StoreIngester
	// CampaignAccumulator builds the campaign analysis state — truth
	// index, homes, per-vendor analysis indexes — incrementally from
	// the stream, holding only distinct crawl records.
	CampaignAccumulator = pipeline.CampaignAccumulator
	// ReportSink streams the merged report log to disk in the columnar
	// format, one frame per 4096 reports.
	ReportSink = pipeline.ReportSink
	// ReportColumnarReader streams frames back from a columnar report
	// log.
	ReportColumnarReader = pipeline.ReportReader
)

var (
	// NewPipeline builds a streaming pipeline for n worlds and starts
	// its merge and consumer goroutines.
	NewPipeline = pipeline.New
	// NewStoreIngester builds the serving-store consumer.
	NewStoreIngester = pipeline.NewStoreIngester
	// NewCampaignAccumulator builds the analysis-state consumer.
	NewCampaignAccumulator = pipeline.NewCampaignAccumulator
	// NewReportSink builds the columnar disk-sink consumer.
	NewReportSink = pipeline.NewReportSink
	// ReadReportsColumnar reads a whole columnar report log.
	ReadReportsColumnar = pipeline.ReadReports
	// NewReportColumnarReader opens a streaming columnar log reader.
	NewReportColumnarReader = pipeline.NewReportReader
)

// Tag hardware models.
var (
	// AirTagProfile is the calibrated AirTag model.
	AirTagProfile = tag.AirTagProfile
	// SmartTagProfile is the calibrated SmartTag model.
	SmartTagProfile = tag.SmartTagProfile
)

// AdvAddress is a BLE advertiser address: what the anti-stalking
// detectors group beacons by, and what pseudonym rotation changes.
type AdvAddress = ble.AdvAddress

// Anti-stalking detection (the paper's Section 2 countermeasures).
type (
	// StalkScenario generates a victim's beacon observation stream.
	StalkScenario = antistalk.StalkScenario
	// StalkOutcome summarizes one detection evaluation.
	StalkOutcome = antistalk.Outcome
)

var (
	// NewVendorDetector is the built-in same-vendor protection.
	NewVendorDetector = antistalk.NewVendorDetector
	// NewAirGuardDetector is the third-party scanner design.
	NewAirGuardDetector = antistalk.NewAirGuardDetector
	// EvaluateDetector runs a detector over an observation stream.
	EvaluateDetector = antistalk.Evaluate
	// RotationSweep evaluates detectors against rotation periods.
	RotationSweep = antistalk.RotationSweep
)

// Mobility models for composing custom scenarios.
type (
	// MobilityModel yields a position at any virtual time.
	MobilityModel = mobility.Model
	// Itinerary is a timed sequence of stays and moves.
	Itinerary = mobility.Itinerary
)

// ReproduceAll runs every experiment and writes the paper-shaped tables to
// w: the controlled experiments (Figures 2-4, battery), then one campaign
// with Table 1, Figures 5-8 and the headline claims. cmd/tagrepro prints
// the same tables (plus ASCII charts, with per-figure selection) without
// calling it; cmd/tagbench's campaign workload times it. Independent
// computations fan out on opts.Workers workers (0 = one per CPU) while
// the output keeps its fixed order; the rendered text is identical for
// any worker count.
func ReproduceAll(w io.Writer, opts CampaignOptions) error {
	cafDays := 5
	if opts.Scale > 0 && opts.Scale < 0.5 {
		cafDays = 2
	}
	write := func(renderings []string) error {
		for _, s := range renderings {
			if _, err := io.WriteString(w, s+"\n"); err != nil {
				return err
			}
		}
		return nil
	}
	// renderAll evaluates a batch of independent renderings on the
	// worker pool and writes them in order. At one effective worker it
	// streams each rendering as computed — the historical sequential
	// behavior, where a dead writer also stops further computation.
	renderAll := func(jobs []func() string) error {
		if runner.Workers(opts.Workers, len(jobs)) == 1 {
			for _, job := range jobs {
				if err := write([]string{job()}); err != nil {
					return err
				}
			}
			return nil
		}
		return write(runner.Map(opts.Workers, len(jobs), func(i int) string { return jobs[i]() }))
	}
	// The stages run back to back rather than nested, so the Workers
	// cap on concurrent worlds holds exactly throughout: first the
	// controlled experiments (written before the expensive campaign
	// starts, which also surfaces writer errors early), then the
	// campaign simulation (internally parallel over countries), then
	// the figures over the shared campaign — each an independent
	// read-only analysis pass.
	// Figures 3 and 4 read one cafeteria run, so one job renders both;
	// write ends each rendering with the newline that joins them.
	controlled := []func() string{
		func() string { return Figure2(opts.Seed).Render() },
		func() string {
			caf := RunCafeteria(CafeteriaConfig{Seed: opts.Seed, Days: cafDays})
			return Figure3From(caf).Render() + "\n" + Figure4From(caf).Render()
		},
		func() string { return Battery().Render() },
	}
	if err := renderAll(controlled); err != nil {
		return err
	}
	c := NewCampaign(opts)
	// The 2 only asks "does this knob yield more than one worker?" — the
	// actual job count is len(figures) below, which cannot change the
	// answer (Workers clamps to n, and n >= 2 either way).
	if runner.Workers(opts.Workers, 2) > 1 {
		// The figure batch below is itself a parallel fan-out, and each
		// figure now also fans its panels/sweep points out internally; run
		// the per-figure analysis sequentially inside the already-parallel
		// jobs so the Workers cap on concurrent computations holds (the
		// same view CampaignReplicates gives its campaigns).
		seq := *c
		seq.Options.Workers = 1
		c = &seq
	}
	figures := []func() string{
		func() string { return Table1(c).Render() },
		func() string { return Figure5Sweep(c, 10).Render() },
		func() string { return Figure5Sweep(c, 25).Render() },
		func() string { return Figure5Sweep(c, 100).Render() },
		func() string { return Figure5d(c).Render() },
		func() string { return Figure5e(c).Render() },
		func() string { return Figure5f(c).Render() },
		func() string { return Figure6(c, "AE").Render() },
		func() string { return Figure7(c).Render() },
		func() string { return Figure8(c).Render() },
		func() string { return Headline(c).Render() },
	}
	return renderAll(figures)
}

// Version identifies this reproduction release.
const Version = "1.0.0"

// String returns a short banner.
func String() string {
	return fmt.Sprintf("tagsim %s — IMC'23 'I Tag, You Tag, Everybody Tags!' reproduction", Version)
}
