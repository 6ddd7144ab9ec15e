package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"tagsim"
	"tagsim/internal/analysis"
	"tagsim/internal/experiments"
	"tagsim/internal/obs"
	"tagsim/internal/pipeline"
	"tagsim/internal/runner"
	"tagsim/internal/scenario"
	"tagsim/internal/trace"
)

func campaignOptions(cfg config) experiments.Options {
	return experiments.Options{Seed: cfg.seed, Scale: cfg.sizes.Scale, DevicesPerCity: cfg.sizes.DevicesPerCity, Workers: workers}
}

// wildConfig is the scenario config experiments.NewCampaign derives
// from its options.
func wildConfig(o experiments.Options) scenario.WildConfig {
	return scenario.WildConfig{Seed: o.Seed, Scale: o.Scale, DevicesPerCity: o.DevicesPerCity, Workers: o.Workers}
}

// job is one rendering of ReproduceAll.
type job struct {
	name string
	fn   func() string
}

// controlledJobs are ReproduceAll's first stage, with its cafeteria
// length rule.
func controlledJobs(o experiments.Options) []job {
	cafDays := 5
	if o.Scale > 0 && o.Scale < 0.5 {
		cafDays = 2
	}
	return []job{
		{"fig2", func() string { return experiments.Figure2(o.Seed).Render() }},
		{"fig3", func() string { return experiments.Figure3(o.Seed, cafDays).Render() }},
		{"fig4", func() string { return experiments.Figure4(o.Seed, cafDays).Render() }},
		{"battery", func() string { return experiments.Battery().Render() }},
	}
}

// figureJobs are ReproduceAll's figure stage over a campaign.
func figureJobs(c *experiments.Campaign) []job {
	return []job{
		{"table1", func() string { return experiments.Table1(c).Render() }},
		{"fig5_10", func() string { return experiments.Figure5Sweep(c, 10).Render() }},
		{"fig5_25", func() string { return experiments.Figure5Sweep(c, 25).Render() }},
		{"fig5_100", func() string { return experiments.Figure5Sweep(c, 100).Render() }},
		{"fig5d", func() string { return experiments.Figure5d(c).Render() }},
		{"fig5e", func() string { return experiments.Figure5e(c).Render() }},
		{"fig5f", func() string { return experiments.Figure5f(c).Render() }},
		{"fig6", func() string { return experiments.Figure6(c, "AE").Render() }},
		{"fig7", func() string { return experiments.Figure7(c).Render() }},
		{"fig8", func() string { return experiments.Figure8(c).Render() }},
		{"headline", func() string { return experiments.Headline(c).Render() }},
	}
}

// sectionTitles open the renderings of ReproduceAll, in output order;
// the last len(figureJobs) belong to the figure stage.
var sectionTitles = []string{
	"Figure 2:", "Figure 3:", "Figure 4:", "Battery model:",
	"Table 1:", "Figure 5 (radius 10 m)", "Figure 5 (radius 25 m)", "Figure 5 (radius 100 m)",
	"Figure 5d:", "Figure 5e:", "Figure 5f:", "Figure 6:", "Figure 7:", "Figure 8:", "Headline claims",
}

// runJobs renders jobs on the worker pool the way ReproduceAll does
// and returns each job's output, as ReproduceAll writes it, and its
// latency. With a recorder, every job runs inside an
// experiments.<name> span under parent.
func runJobs(jobs []job, rec *recorder, parent int) ([]string, []float64) {
	type done struct {
		text string
		d    time.Duration
	}
	res := runner.Map(workers, len(jobs), func(i int) done {
		t := time.Now()
		var s string
		if rec != nil {
			rec.do(parent, "experiments."+jobs[i].name, func(int) { s = jobs[i].fn() })
		} else {
			s = jobs[i].fn()
		}
		return done{s + "\n", time.Since(t)}
	})
	texts := make([]string, len(res))
	lat := make([]float64, len(res))
	for i, d := range res {
		texts[i], lat[i] = d.text, ms(d.d)
	}
	return texts, lat
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

func digestKey(workload string, s sizes, seed int64) string {
	return fmt.Sprintf("%s scale=%g devices=%d seed=%d", workload, s.Scale, s.DevicesPerCity, seed)
}

// checkOutput checks rendered text: every expected section title opens
// a line, in order, and the digest matches the one recorded for this
// workload, size and campaign seed when there is one.
func (r *run) checkOutput(workload string, seed int64, text string, titles []string) {
	rest := "\n" + text
	for _, title := range titles {
		i := strings.Index(rest, "\n"+title)
		r.check(i >= 0, "%s output lacks section %q in order", workload, title)
		if i < 0 {
			break
		}
		rest = rest[i+1:]
	}
	sum := digest(text)
	key := digestKey(workload, r.cfg.sizes, seed)
	want, ok := r.cfg.digests[key]
	if !ok {
		r.logf("digest %s: %s (none recorded)", key, sum)
		return
	}
	r.logf("digest %s: %s (recorded %s)", key, sum, want)
	r.check(sum == want, "%s digest %s differs from the recorded %s", workload, sum, want)
}

// runCampaign measures ReproduceAll end to end: the researcher's whole
// path from the controlled experiments through the streamed campaign to
// every figure. Unit k runs replicate k of the seed's campaign
// (scenario.ReplicateSeed), so the median over a run's units spans
// several campaigns instead of resting on one.
func runCampaign(r *run) error {
	opts := campaignOptions(r.cfg)
	if r.cfg.trace {
		return traceCampaign(r, opts)
	}
	// ReproduceAll needs nothing prepared; its only set-up is planning
	// the campaign, which NewCampaign does again inside it.
	if err := r.setUp(nil, func() error {
		if len(scenario.PlanWild(wildConfig(opts))) == 0 {
			return fmt.Errorf("campaign plans no worlds")
		}
		return nil
	}); err != nil {
		return err
	}
	return r.measure(r.cfg.seconds, func() (time.Duration, error) {
		o := opts
		o.Seed = scenario.ReplicateSeed(r.cfg.seed, len(r.units))
		var buf bytes.Buffer
		t := time.Now()
		if err := tagsim.ReproduceAll(&buf, o); err != nil {
			return 0, err
		}
		d := time.Since(t)
		r.opLatencies([]float64{ms(d)})
		r.checkOutput("campaign", o.Seed, buf.String(), sectionTitles)
		return d, nil
	})
}

// traceCampaign replays ReproduceAll's stages from public calls inside
// spans: the controlled experiments, the streamed campaign (runner.Map
// over PlanWild's worlds into a pipeline whose accumulator is wrapped),
// and the figures over a campaign built outside the traced window. The
// untraced wall is the mean of a ReproduceAll before and one after the
// traced replay. The same worlds then run again unstreamed, under their
// own root, for the busy-time baseline.
func traceCampaign(r *run, opts experiments.Options) error {
	t := time.Now()
	var ref bytes.Buffer
	if err := tagsim.ReproduceAll(&ref, opts); err != nil {
		return err
	}
	untraced := time.Since(t)
	r.checkOutput("campaign", opts.Seed, ref.String(), sectionTitles)

	view := *experiments.NewCampaign(opts)
	view.Options.Workers = 1 // ReproduceAll's figure stage at Workers > 1
	controlled, figures := controlledJobs(opts), figureJobs(&view)

	rec := r.rec
	counterNames := []string{
		"encounter_ticks_total", "encounter_heard_total", "encounter_reported_total", "encounter_delivered_total",
		"pipeline_batches_total", "pipeline_reports_total", "pipeline_fixes_total", "pipeline_crawls_total",
	}
	c0, rt0 := readCounters(counterNames), takeRT()
	root := rec.begin(-1, "bench.campaign")
	var out strings.Builder
	rec.do(root, "experiments.controlled", func(id int) {
		texts, _ := runJobs(controlled, rec, id)
		out.WriteString(strings.Join(texts, ""))
	})
	var streamErr error
	rec.do(root, "scenario.campaign", func(id int) { streamErr = streamCampaign(rec, id, opts) })
	rec.do(root, "experiments.figures", func(id int) {
		texts, _ := runJobs(figures, rec, id)
		out.WriteString(strings.Join(texts, ""))
	})
	rec.end(root)
	c1, rt1 := readCounters(counterNames), takeRT()
	if streamErr != nil {
		return streamErr
	}
	r.check(out.String() == ref.String(), "traced replay output differs from ReproduceAll's")
	t = time.Now()
	if err := tagsim.ReproduceAll(io.Discard, opts); err != nil {
		return err
	}
	after := time.Since(t)
	r.logf("untraced before %.3fs, after %.3fs", untraced.Seconds(), after.Seconds())
	untraced = (untraced + after) / 2

	jobs := scenario.PlanWild(wildConfig(opts))
	base := rec.begin(-1, "bench.baseline")
	runner.Map(workers, len(jobs), func(i int) struct{} {
		rec.do(base, "scenario.world_busy", func(int) { jobs[i].Run() })
		return struct{}{}
	})
	rec.end(base)

	p := newProfile(rec.snapshot())
	rs, err := r.traceLayers(p, "bench.campaign", untraced)
	if err != nil {
		return err
	}
	wall := rs.dur()
	for _, j := range append(controlled, figures...) {
		r.layers["experiments."+j.name+"_share"] = share(p.byName["experiments."+j.name].sum, wall)
	}
	world, busy := p.byName["scenario.world"], p.byName["scenario.world_busy"]
	r.layers["scenario.world_sum_share"] = share(world.sum, wall)
	r.layers["scenario.world_max_share"] = share(world.max, wall)
	r.layers["scenario.world_busy_sum_share"] = share(busy.sum, wall)
	r.layers["pipeline.emit_blocked_share"] = share(world.sum-busy.sum, wall)
	r.layers["pipeline.consume_share"] = share(p.byName["pipeline.consume"].sum, wall)
	r.layers["accumulate.close_share"] = share(p.byName["accumulate.close"].sum, wall)
	d := func(name string) float64 { return float64(c1[name] - c0[name]) }
	r.layers["encounter.ticks"] = d("encounter_ticks_total")
	r.layers["encounter.heard"] = d("encounter_heard_total")
	r.layers["encounter.reported"] = d("encounter_reported_total")
	r.layers["encounter.delivered"] = d("encounter_delivered_total")
	r.layers["encounter.deliver_ratio"] = d("encounter_delivered_total") / max(d("encounter_reported_total"), 1)
	r.layers["pipeline.batches"] = d("pipeline_batches_total")
	r.layers["pipeline.records"] = d("pipeline_reports_total") + d("pipeline_fixes_total") + d("pipeline_crawls_total")
	r.runtimeLayers(rt0, rt1, 1)
	r.logf("campaign: streamed worlds %.3fs, unstreamed %.3fs, blocked on the merge %.3fs; %.2f cores busy",
		world.sum.Seconds(), busy.sum.Seconds(), (world.sum - busy.sum).Seconds(), r.layers["runtime.cpu_util"])
	return nil
}

// streamCampaign runs the campaign's worlds into a streaming pipeline
// the way experiments.NewCampaign does, with spans around each world
// and around every call the pipeline makes into the accumulator.
func streamCampaign(rec *recorder, parent int, opts experiments.Options) error {
	cfg := wildConfig(opts)
	n := len(scenario.PlanWild(cfg))
	acc := &spannedConsumer{inner: pipeline.NewCampaignAccumulator(n, opts.Workers), rec: rec, parent: parent}
	pl := pipeline.New(n, pipeline.Config{}, acc)
	cfg.Stream = pl
	jobs := scenario.PlanWild(cfg)
	runner.Map(opts.Workers, len(jobs), func(i int) struct{} {
		rec.do(parent, "scenario.world", func(int) { jobs[i].Run() })
		return struct{}{}
	})
	return pl.Wait()
}

// spannedConsumer wraps the campaign accumulator in spans.
type spannedConsumer struct {
	inner  *pipeline.CampaignAccumulator
	rec    *recorder
	parent int
}

func (c *spannedConsumer) Consume(b pipeline.Batch) (err error) {
	c.rec.do(c.parent, "pipeline.consume", func(int) { err = c.inner.Consume(b) })
	return err
}

func (c *spannedConsumer) Close() (err error) {
	c.rec.do(c.parent, "accumulate.close", func(int) { err = c.inner.Close() })
	return err
}

// Name keeps the accumulator's own series name in the pipeline metrics.
func (c *spannedConsumer) Name() string { return c.inner.Name() }

func readCounters(names []string) map[string]uint64 {
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = obs.Default.Counter(n).Value()
	}
	return out
}

// runFigures measures the analysis plane: passes over the 11 campaign
// figures, run the way ReproduceAll's figure stage runs them (two
// workers, each over a Workers=1 view of a campaign). Each set-up
// builds the campaign of the next replicate of the seed and keeps it; a
// pass renders the figures of every campaign built, so its time spans
// several campaigns instead of resting on one.
func runFigures(r *run) error {
	opts := campaignOptions(r.cfg)
	var seeds []int64
	var views []*experiments.Campaign
	if err := r.setUp(nil, func() error {
		o := opts
		o.Seed = scenario.ReplicateSeed(r.cfg.seed, len(views))
		view := *experiments.NewCampaign(o)
		view.Options.Workers = 1
		seeds, views = append(seeds, o.Seed), append(views, &view)
		return nil
	}); err != nil {
		return err
	}
	var jobs []job
	for _, v := range views {
		jobs = append(jobs, figureJobs(v)...)
	}
	perCampaign := len(jobs) / len(views)
	titles := sectionTitles[len(sectionTitles)-perCampaign:]
	// check compares one pass's renderings, per campaign, with the
	// recorded digests (first pass) or with the first pass.
	var first []string
	check := func(texts []string) {
		for k := range views {
			text := strings.Join(texts[k*perCampaign:(k+1)*perCampaign], "")
			if len(first) < len(views) {
				first = append(first, text)
				r.checkOutput("figures", seeds[k], text, titles)
			} else {
				r.check(text == first[k], "figures pass output for seed %d differs from the first pass", seeds[k])
			}
		}
	}
	if r.cfg.trace {
		return traceFigures(r, views[0], jobs, check)
	}
	return r.measure(r.cfg.seconds, func() (time.Duration, error) {
		t := time.Now()
		texts, lat := runJobs(jobs, nil, -1)
		d := time.Since(t)
		r.opLatencies(lat)
		check(texts)
		return d, nil
	})
}

// traceFigures runs passes untraced, the same number traced (a pass
// span holding one span per figure) and untraced again, the untraced
// wall being the mean of the two, and replays the per-vendor analysis
// index builds of one campaign.
func traceFigures(r *run, c *experiments.Campaign, jobs []job, check func([]string)) error {
	t := time.Now()
	if err := r.measure(r.cfg.seconds/2, func() (time.Duration, error) {
		t := time.Now()
		texts, _ := runJobs(jobs, nil, -1)
		check(texts)
		return time.Since(t), nil
	}); err != nil {
		return err
	}
	untraced := time.Since(t)
	passes := len(r.units)

	rec := r.rec
	rt0 := takeRT()
	root := rec.begin(-1, "bench.figures")
	for i := 0; i < passes; i++ {
		rec.do(root, "experiments.pass", func(id int) {
			texts, _ := runJobs(jobs, rec, id)
			check(texts)
		})
	}
	rec.end(root)
	rt1 := takeRT()
	t = time.Now()
	for i := 0; i < passes; i++ {
		texts, _ := runJobs(jobs, nil, -1)
		check(texts)
	}
	after := time.Since(t)
	r.logf("untraced before %.3fs, after %.3fs", untraced.Seconds(), after.Seconds())
	untraced = (untraced + after) / 2

	idx := rec.begin(-1, "bench.index")
	for _, v := range trace.AnalysisVendors {
		rec.do(idx, "analysis.index_build", func(int) { analysis.NewIndex(c.Truth, c.Crawls(v)) })
	}
	rec.end(idx)

	p := newProfile(rec.snapshot())
	rs, err := r.traceLayers(p, "bench.figures", untraced)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		r.layers["experiments."+j.name+"_share"] = share(p.byName["experiments."+j.name].sum, rs.dur())
	}
	r.layers["analysis.index_build_ms"] = p.byName["analysis.index_build"].meanUs() / 1e3
	r.runtimeLayers(rt0, rt1, passes*len(jobs))
	return nil
}
