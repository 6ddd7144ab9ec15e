package pipeline

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"tagsim/internal/cloud"
	"tagsim/internal/trace"
)

// BenchmarkPipelineThroughput pushes a synthetic report stream from
// concurrent world emitters through the ordered merge into the full
// consumer set — store ingester, campaign accumulator, columnar sink —
// and reports sustained reports/s: the pipeline-side ceiling for the
// "heavy traffic" north star. The b.N reports split across 4 worlds.
func BenchmarkPipelineThroughput(b *testing.B) {
	for _, consumers := range []string{"store", "store+sink+acc"} {
		b.Run(consumers, func(b *testing.B) {
			const nWorlds = 4
			services := map[trace.Vendor]*cloud.Service{
				trace.VendorApple:   cloud.NewService(trace.VendorApple),
				trace.VendorSamsung: cloud.NewService(trace.VendorSamsung),
			}
			cs := []Consumer{NewStoreIngester(services)}
			if consumers == "store+sink+acc" {
				cs = append(cs, NewReportSink(io.Discard), NewCampaignAccumulator(nWorlds, 1))
			}
			// Pre-fabricate the per-world report sequences so the
			// benchmark clocks the pipeline, not the fixture.
			perWorld := b.N/nWorlds + 1
			reports := make([][]trace.Report, nWorlds)
			for w := range reports {
				reports[w] = make([]trace.Report, perWorld)
				for i := range reports[w] {
					reports[w][i] = synthReport(w, i)
					// Spread the tag space like a fleet would.
					reports[w][i].TagID = fmt.Sprintf("tag-%d", i%64)
				}
			}
			b.ResetTimer()
			p := New(nWorlds, Config{}, cs...)
			var wg sync.WaitGroup
			for w := 0; w < nWorlds; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					em := p.World(w)
					for _, r := range reports[w] {
						em.Report(r)
					}
					em.Close()
				}(w)
			}
			wg.Wait()
			if err := p.Wait(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			total := float64(nWorlds * perWorld)
			b.ReportMetric(total/b.Elapsed().Seconds(), "reports/s")
		})
	}
}
