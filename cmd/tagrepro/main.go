// Command tagrepro regenerates the paper's tables and figures.
//
// Usage:
//
//	tagrepro [-seed N] [-scale F] [-devices N] [-workers N] [-replicates N]
//	         [-run all|table1|fig2|fig3|fig4|fig5|fig5d|fig5e|fig5f|fig6|fig7|fig8|battery|headline]
//
// -scale 1 reproduces the full 120-day campaign (minutes of CPU);
// the default 0.25 regenerates every figure in tens of seconds.
// -workers fans independent simulation worlds across CPUs (0 = one per
// CPU) without changing any output. -replicates N > 1 runs the campaign
// from N derived seeds and prints across-replicate mean ± std
// aggregates instead of the single-run campaign figures; aggregates
// exist for table1, fig5, and headline only, and are table-only (no
// ASCII charts).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tagsim"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.25, "campaign scale (1 = the paper's 120 days)")
	devices := flag.Int("devices", 500, "reporting devices per city")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = one per CPU, 1 = sequential)")
	replicates := flag.Int("replicates", 1, "campaign replicates to run from derived seeds")
	run := flag.String("run", "all", "experiment to run (comma-separated)")
	cafDays := flag.Int("caf-days", 5, "cafeteria deployment days (figures 3-4)")
	flag.Parse()

	fmt.Println(tagsim.String())
	opts := tagsim.CampaignOptions{Seed: *seed, Scale: *scale, DevicesPerCity: *devices, Workers: *workers}

	wants := map[string]bool{}
	for _, w := range strings.Split(*run, ",") {
		wants[strings.TrimSpace(strings.ToLower(w))] = true
	}
	want := func(name string) bool { return wants["all"] || wants[name] }

	if want("fig2") {
		fmt.Println(tagsim.Figure2(*seed).Render())
	}
	if want("fig3") || want("fig4") {
		// Figures 3 and 4 read one cafeteria run.
		caf := tagsim.RunCafeteria(tagsim.CafeteriaConfig{Seed: *seed, Days: *cafDays})
		if want("fig3") {
			fig3 := tagsim.Figure3From(caf)
			fmt.Println(fig3.Render())
			fmt.Println(fig3.RenderChart())
		}
		if want("fig4") {
			fmt.Println(tagsim.Figure4From(caf).Render())
		}
	}
	if want("battery") {
		fmt.Println(tagsim.Battery().Render())
	}

	// The campaign figures, with whether each has an across-replicate
	// aggregate — the single source for the gating below.
	campaignFigs := []struct {
		name      string
		aggregate bool
	}{
		{"table1", true}, {"fig5", true}, {"fig5d", false}, {"fig5e", false},
		{"fig5f", false}, {"fig6", false}, {"fig7", false}, {"fig8", false},
		{"headline", true},
	}
	needsCampaign, anyAggregate := false, false
	var skipped []string
	for _, fig := range campaignFigs {
		if !want(fig.name) {
			continue
		}
		needsCampaign = true
		if fig.aggregate {
			anyAggregate = true
		} else {
			skipped = append(skipped, fig.name)
		}
	}
	if !needsCampaign {
		return
	}
	if *replicates > 1 {
		if len(skipped) > 0 {
			fmt.Fprintf(os.Stderr, "note: no across-replicate aggregates for %s; run them without -replicates\n",
				strings.Join(skipped, ", "))
		}
		if !anyAggregate {
			// Nothing aggregatable requested: don't burn N campaigns,
			// and don't let a script mistake the empty stdout for
			// success.
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "running %d in-the-wild campaign replicates (seed=%d scale=%.2f devices=%d workers=%d)...\n",
			*replicates, *seed, *scale, *devices, *workers)
		set := tagsim.CampaignReplicates(opts, *replicates)
		if want("table1") {
			fmt.Println(set.Table1Stats().Render())
		}
		if want("fig5") {
			for _, radius := range []float64{10, 25, 100} {
				fmt.Println(set.Figure5Stats(radius).Render())
			}
		}
		if want("headline") {
			fmt.Println(set.HeadlineStats().Render())
		}
		return
	}
	fmt.Fprintf(os.Stderr, "running in-the-wild campaign (seed=%d scale=%.2f devices=%d workers=%d)...\n", *seed, *scale, *devices, *workers)
	c := tagsim.NewCampaign(opts)

	if want("table1") {
		fmt.Println(tagsim.Table1(c).Render())
	}
	if want("fig5") {
		for _, radius := range []float64{10, 25, 100} {
			sweep := tagsim.Figure5Sweep(c, radius)
			fmt.Println(sweep.Render())
			fmt.Println(sweep.RenderChart())
		}
	}
	if want("fig5d") {
		fmt.Println(tagsim.Figure5d(c).Render())
	}
	if want("fig5e") {
		fmt.Println(tagsim.Figure5e(c).Render())
	}
	if want("fig5f") {
		fmt.Println(tagsim.Figure5f(c).Render())
	}
	if want("fig6") {
		fmt.Println(tagsim.Figure6(c, "AE").Render())
	}
	if want("fig7") {
		fmt.Println(tagsim.Figure7(c).Render())
	}
	if want("fig8") {
		fig8 := tagsim.Figure8(c)
		fmt.Println(fig8.Render())
		fmt.Println(fig8.RenderChart())
	}
	if want("headline") {
		fmt.Println(tagsim.Headline(c).Render())
	}
}
