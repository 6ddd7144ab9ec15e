// Command tagbench is the repository's benchmark: one command that runs
// one named workload once, in a fresh process, checks its outputs, and
// prints every metric by name with its unit. BENCHMARK.json at the
// repository root lists the workloads, the metrics and their regression
// bounds.
//
// # Running it
//
// tagbench is a module of its own beside the simulator, so it builds
// from this directory:
//
//	go run . -workload campaign -seed 1            # end-to-end metrics
//	go run . -workload serve-cold -seed 1 -trace 1 # per-layer metrics
//	go run . -workload figures -runs 5             # median and quartiles of 5 runs
//	go test .                                      # every workload at a tiny size
//
// From the repository root, sh cmd/tagbench/run.sh takes the same flags
// (also spelled --flag value) and keeps its build cache, store files and
// span dumps under .bench_build/.
//
// Flags: -workload names the workload; -seed (default 1) is the only
// input, and the same seed gives the same inputs; -seconds (default 15)
// is how long the measured phase runs: the workload's unit of work
// repeats until the budget is spent, and at least one unit always runs.
// -trace 1 makes the separate traced run described below; -trace-out
// names the file its spans go to. -runs N re-executes tagbench on
// seeds seed..seed+N-1 and prints one JSON document with every run's
// result and, per metric, the median and the quartiles the way Python's
// statistics.quantiles computes them. Sizes are constants (defaultSizes
// in main.go, recorded in every result's provenance line); only the
// tests pass smaller ones.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines give the
// provenance (nproc, GOMAXPROCS, CPU model, Go version, VCS revision
// and dirty flag, seed, sizes), every metric in text, failed checks,
// and what a traced run attributes. The exit status is 0 when every
// check passed, 1 when one failed, and 2 when the run could not
// complete.
//
// # Workloads
//
// campaign runs tagsim.ReproduceAll at Scale 0.1, DevicesPerCity 500,
// Workers 2: the controlled figures 2-4 and battery, the six-country
// streamed campaign, and all 11 campaign figures. It is the
// researcher's whole path. The radio plane (encounter, device) takes
// most of the CPU, and the in-order pipeline merge decides how many
// cores are busy; serving and storage do nothing here. Unit k runs
// replicate k of the seed (scenario.ReplicateSeed), so a run's median
// spans several campaigns: one campaign's cost moves with its seed by
// about as much as the bounds allow.
//
// figures builds three campaigns with the same options in set-up, one
// per set-up repetition, for replicates 0-2 of the seed, and then
// measures passes over the 11 campaign figures of all three, run the
// way ReproduceAll's figure stage runs them: two workers, each over a
// Workers=1 view of a campaign. The analysis, experiments and hexgrid
// planes do all of its measured work, which is only a few percent of
// campaign.
//
// serve-hot holds 768 tags x 192 reports in two in-memory vendor stores
// of 256 shards, all resident and fewer tags than the 4096 hot-cache
// slots. Two closed-loop clients (the paper's crawlers wait for each
// reply) issue load.ReadMix(90) over Zipf s=1.2 through load's HTTP
// target against an in-process serve.Server on loopback, after 20000
// warm-up requests, in load runs of 5000 requests. The writes are
// load's synthesized reports and almost all stop at the rate cap.
// Cache hits and HTTP/JSON dominate.
//
// serve-cold holds 16384 tags x 96 reports in two tiered stores
// (cloud.NewServicePersistent) under .bench_build/: four times more
// tags than cache slots. Set-up bulk-loads them through the WAL with a
// large memtable, flushes, compacts, and reopens the stores with a
// 128 KiB memtable. The mix is LastKnown 40 / History 25 / Track 15 /
// Report 20 over Zipf s=1.05 from two closed-loop clients, in load runs
// of 2500 requests after 5000 warm-up requests. The benchmark spaces
// each tag's writes past the 192 s rate cap, so they are accepted, and
// they flush each store several times and compact it at least once
// inside the measured phase. Cache misses fall through to segment
// reads and frame decodes beside WAL appends, flushes and compaction.
//
// # Checks
//
// Every run checks its outputs; each check counts in attempted, each
// failure in failed, and one failure makes the run incorrect.
// campaign: each unit's output holds all 15 renderings in order and,
// where recordedDigests has its campaign's seed, matches that SHA-256
// digest. figures: the same for each campaign's figures in the first
// pass, and every later pass equals the first. serve-*: every request is
// answered 200; the server's per-endpoint request counters equal the
// clients' per-operation counts; the writes the clients saw accepted
// equal the stores' accepted delta; p99_ms stays within 2 ms on
// serve-hot and 5 ms on serve-cold; /v1/lastknown and /v1/history
// answers for 64 tags equal the stores read directly. serve-cold
// closes both stores, reopens the directory, and requires every field
// of Snapshot to be unchanged.
//
// # End-to-end metrics
//
// A unit is one ReproduceAll on campaign, one pass on figures and one
// load run on serve-*; an op is one ReproduceAll, one figure and one
// request. Every timing is a median over the run's units, so a burst
// of interference from outside the process moves a few units rather
// than the result.
//
//	setup_s      process start-up (the median of five launches of the
//	             binary that exit once started) plus the median of three
//	             set-ups: planning the worlds on campaign, NewCampaign on
//	             figures, stores, load, server and warm-up on serve-*
//	wall_s       median time of one unit
//	ops_per_s    ops per unit over wall_s (on serve-*, requests per
//	             second)
//	p50_ms       median over units of the unit's median op latency
//	p99_ms       median over units of the unit's 99th-percentile op
//	             latency; a load run has 25 or more requests past it,
//	             while on campaign (one op per unit) and figures (33) it
//	             is the unit's slowest op
//	rss_peak_mb  the process's VmHWM
//
// Failed checks and requests are reported as failed out of attempted,
// not as a metric, because a metric must never read 0.
//
// # Traced run
//
// With -trace 1 the run prints the per-layer metrics instead. The
// spans live in this package: each is a call into one layer's public
// function, recorded with name, start, end, parent and trace id, held
// in memory and written out when the run ends. The program's own obs
// metrics and tracing stay on, as users run them; counters come from
// what it already exports (obs.Default, Server.Metrics, Service.Stats,
// Store.TierStats, HotCache stats) plus runtime/metrics and getrusage.
//
// Each workload runs its work untraced, traced and untraced again; the
// tracing overhead (trace.overhead_s) is the traced wall minus the mean
// of the two untraced ones. campaign builds a campaign for the figure
// stage outside the traced window and then replays ReproduceAll's
// stages from public calls under one root: the controlled experiments,
// runner.Map over PlanWild's worlds into a pipeline whose accumulator
// is wrapped in spans, and one span per figure. The same worlds then
// run unstreamed under a second root, which gives their busy time.
// figures traces passes (a pass span holding one span per figure) and
// replays one campaign's per-vendor index builds. serve-* trace load
// runs with a client span per request; then the traced requests are
// replayed one at a time in process against the hot-tag cache, the
// combined store reads and Service.Ingest, the calls the handlers make.
//
// The run reports self time per layer under the measured root and the
// time no span claims (trace.unattributed_s).
//
// # Per-layer metrics
//
// Per-layer metrics are named <module>.<metric> and listed in
// layers.go, which says for each group which end-to-end metric it
// should move and on which workload:
//
//	layer metrics                                   should move         on
//	experiments.{fig2,fig3,fig4,battery}_share       wall_s              campaign
//	scenario.world_{sum,max,busy_sum}_share,
//	  pipeline.emit_blocked_share, runtime.cpu_util wall_s              campaign
//	encounter.{ticks,heard,reported,delivered},
//	  encounter.deliver_ratio                       wall_s              campaign
//	pipeline.{batches,records,consume_share},
//	  accumulate.close_share                        wall_s; setup_s     campaign; figures
//	analysis.index_build_ms,
//	  experiments.<figure>_share                    wall_s              figures
//	load.<op>.{count,p50_ms,p99_ms},
//	  serve.<op>.{p50_ms,p99_ms}, serve.handler_share ops_per_s, p50_ms serve-hot
//	cache.{hit_ratio,fills,invalidations},
//	  cache.<op>_{hit,miss}_us, store.<op>_us       p50_ms, ops_per_s   serve-hot high hit ratio, serve-cold low
//	store.{accepted,rejected,accept_ratio,ingest_us} p99_ms             serve-cold accepts, serve-hot rejects
//	tier.*                                          p99_ms, ops_per_s;
//	                                                setup_s             serve-cold
//	runtime.{gc_cycles,gc_pause_s,alloc_bytes_per_op} p99_ms, rss_peak_mb all
//
// Time a layer spends in the traced phase is in s/s, seconds of span
// time per second of traced wall, so shares add up against the wall
// (concurrent spans can sum past 1). The cost of one call measured by
// direct replay is per op. A layer a workload never calls reads 0.
//
// # History
//
// The hand-written BENCH_*.json files at the repository root predate
// tagbench and stay where they are until a later change moves them
// under bench/history/. bench/ holds the ledger of tagbench runs.
package main
