package main

// perLayer lists the metrics a traced run reports, named
// <module>.<metric>. Every traced run prints all of them; a layer a
// workload never calls reads 0. Time a layer spends inside a traced
// phase is given in s/s — seconds of span time per second of the
// traced wall — so it adds up against the run's wall time; the cost of
// one call into a layer, timed by direct replay, is given per op.
//
// The comment before each group names the end-to-end metric the group
// should move, and on which workload.
var perLayer = []struct{ name, unit string }{
	// Every workload: what the trace covers and what it costs.
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.attributed_share", "ratio"},
	// p99_ms and rss_peak_mb, every workload; cpu_util is wall_s on campaign.
	{"runtime.cpu_util", "cores"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_bytes_per_op", "B/op"},

	// wall_s on campaign: the controlled experiments.
	{"experiments.fig2_share", "s/s"},
	{"experiments.fig3_share", "s/s"},
	{"experiments.fig4_share", "s/s"},
	{"experiments.battery_share", "s/s"},
	// wall_s on campaign: the country worlds streamed through the
	// pipeline, the same worlds replayed unstreamed, and the difference —
	// time worlds spent blocked on the in-order merge.
	{"scenario.world_sum_share", "s/s"},
	{"scenario.world_max_share", "s/s"},
	{"scenario.world_busy_sum_share", "s/s"},
	{"pipeline.emit_blocked_share", "s/s"},
	// wall_s on campaign: the radio plane.
	{"encounter.ticks", "count"},
	{"encounter.heard", "count"},
	{"encounter.reported", "count"},
	{"encounter.delivered", "count"},
	{"encounter.deliver_ratio", "ratio"},
	// wall_s on campaign, setup_s on figures: the merge and the
	// analysis-state accumulator behind it.
	{"pipeline.batches", "count"},
	{"pipeline.records", "count"},
	{"pipeline.consume_share", "s/s"},
	{"accumulate.close_share", "s/s"},
	// wall_s on figures (and the figure stage of campaign).
	{"analysis.index_build_ms", "ms/op"},
	{"experiments.table1_share", "s/s"},
	{"experiments.fig5_10_share", "s/s"},
	{"experiments.fig5_25_share", "s/s"},
	{"experiments.fig5_100_share", "s/s"},
	{"experiments.fig5d_share", "s/s"},
	{"experiments.fig5e_share", "s/s"},
	{"experiments.fig5f_share", "s/s"},
	{"experiments.fig6_share", "s/s"},
	{"experiments.fig7_share", "s/s"},
	{"experiments.fig8_share", "s/s"},
	{"experiments.headline_share", "s/s"},

	// ops_per_s and p50_ms on serve-*: client-side latency per
	// operation, the server's handler latency per endpoint, and the
	// share of client time spent inside the handler (the rest is HTTP,
	// JSON and loopback).
	{"load.lastknown.count", "count"},
	{"load.lastknown.p50_ms", "ms/op"},
	{"load.lastknown.p99_ms", "ms/op"},
	{"load.history.count", "count"},
	{"load.history.p50_ms", "ms/op"},
	{"load.history.p99_ms", "ms/op"},
	{"load.track.count", "count"},
	{"load.track.p50_ms", "ms/op"},
	{"load.track.p99_ms", "ms/op"},
	{"load.report.count", "count"},
	{"load.report.p50_ms", "ms/op"},
	{"load.report.p99_ms", "ms/op"},
	{"serve.lastknown.p50_ms", "ms/op"},
	{"serve.lastknown.p99_ms", "ms/op"},
	{"serve.history.p50_ms", "ms/op"},
	{"serve.history.p99_ms", "ms/op"},
	{"serve.track.p50_ms", "ms/op"},
	{"serve.track.p99_ms", "ms/op"},
	{"serve.report.p50_ms", "ms/op"},
	{"serve.report.p99_ms", "ms/op"},
	{"serve.handler_share", "ratio"},
	// p50_ms and ops_per_s: hot-tag cache effectiveness (high on
	// serve-hot, low on serve-cold) and the direct-replay cost of a
	// cached answer against the uncached store read it replaces.
	{"cache.hit_ratio", "ratio"},
	{"cache.fills", "count"},
	{"cache.invalidations", "count"},
	{"cache.lastknown_hit_us", "us/op"},
	{"cache.lastknown_miss_us", "us/op"},
	{"cache.history_hit_us", "us/op"},
	{"cache.history_miss_us", "us/op"},
	{"cache.track_hit_us", "us/op"},
	{"cache.track_miss_us", "us/op"},
	{"store.lastknown_us", "us/op"},
	{"store.history_us", "us/op"},
	{"store.track_us", "us/op"},
	// p99_ms: the ingest path — accepting on serve-cold, rejecting at
	// the rate cap on serve-hot.
	{"store.accepted", "count"},
	{"store.rejected", "count"},
	{"store.accept_ratio", "ratio"},
	{"store.ingest_us", "us/op"},
	// p99_ms and ops_per_s on serve-cold (the only tiered workload);
	// recover_ms moves setup_s there.
	{"tier.flushes", "count"},
	{"tier.compactions", "count"},
	{"tier.compacted_bytes", "B"},
	{"tier.wal_bytes", "B"},
	{"tier.wal_fsyncs", "count"},
	{"tier.segments", "count"},
	{"tier.segment_bytes", "B"},
	{"tier.read_errors", "count"},
	{"tier.quarantined", "count"},
	{"tier.flush_share", "s/s"},
	{"tier.compaction_share", "s/s"},
	{"tier.wal_fsync_share", "s/s"},
	{"tier.write_amp", "ratio"},
	{"tier.recover_ms", "ms/op"},
}
