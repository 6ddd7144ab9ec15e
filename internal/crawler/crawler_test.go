package crawler

import (
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/sim"
	"tagsim/internal/trace"
)

var (
	t0  = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	pos = geo.LatLon{Lat: 24.45, Lon: 54.37}
)

func setup(ocr float64) (*sim.Engine, *cloud.Service, *Crawler) {
	e := sim.NewEngine(t0, 1)
	svc := cloud.NewService(trace.VendorApple)
	svc.Register("tag")
	cfg := DefaultConfig(trace.VendorApple)
	cfg.OCRMisreadProb = ocr
	c := New(cfg, svc, []string{"tag"}, e.RNG("crawler"))
	return e, svc, c
}

// collect taps c and returns the crawl log the Tap builds.
func collect(c *Crawler) *[]trace.CrawlRecord {
	var recs []trace.CrawlRecord
	c.Tap = func(r trace.CrawlRecord) { recs = append(recs, r) }
	return &recs
}

func ingest(svc *cloud.Service, at time.Time, p geo.LatLon) {
	svc.Ingest(trace.Report{T: at, HeardAt: at, TagID: "tag", Pos: p})
}

func TestPollBeforeAnyReport(t *testing.T) {
	e, _, c := setup(0)
	tapped := collect(c)
	c.Attach(e, t0)
	e.RunFor(10 * time.Minute)
	if len(*tapped) != 0 {
		t.Error("no reports yet: the app shows nothing to crawl")
	}
}

func TestPollPicksUpReport(t *testing.T) {
	e, svc, c := setup(0)
	tapped := collect(c)
	c.Attach(e, t0)
	e.Schedule(t0.Add(2*time.Minute+30*time.Second), func() {
		ingest(svc, e.Now(), pos)
	})
	e.RunFor(10 * time.Minute)
	recs := *tapped
	if len(recs) == 0 {
		t.Fatal("no crawl records")
	}
	first := recs[0]
	if first.Pos != pos || first.TagID != "tag" || first.Vendor != trace.VendorApple {
		t.Errorf("first record = %+v", first)
	}
	// First observation happens at the 3-minute poll, 30 s after the
	// report: age floors to 0 => "Now".
	if !first.IsNow() {
		t.Errorf("first observation should show Now, got age %d", first.AgeMinutes)
	}
	// ReportedAt reconstruction is within one minute of the truth.
	truth := t0.Add(2*time.Minute + 30*time.Second)
	diff := first.ReportedAt.Sub(truth)
	if diff < -time.Minute || diff > time.Minute {
		t.Errorf("reconstructed ReportedAt off by %v", diff)
	}
}

func TestAgeGrowsBetweenReports(t *testing.T) {
	e, svc, c := setup(0)
	tapped := collect(c)
	c.Attach(e, t0)
	e.Schedule(t0.Add(30*time.Second), func() { ingest(svc, e.Now(), pos) })
	e.RunFor(10 * time.Minute)
	recs := *tapped
	if len(recs) < 9 {
		t.Fatalf("only %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].AgeMinutes < recs[i-1].AgeMinutes {
			t.Fatal("age must grow while no new report arrives")
		}
	}
	last := recs[len(recs)-1]
	if last.AgeMinutes < 8 || last.AgeMinutes > 10 {
		t.Errorf("final age = %d, want ~9", last.AgeMinutes)
	}
}

func TestNowCount(t *testing.T) {
	e, svc, c := setup(0)
	tapped := collect(c)
	c.Attach(e, t0)
	// Fresh report right before every poll for the first 5 minutes.
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i)*time.Minute + 50*time.Second)
		e.Schedule(at, func() { ingest(svc, e.Now(), geo.Destination(pos, 0, float64(len(*tapped))*300+900)) })
	}
	e.RunFor(20 * time.Minute)
	if got := c.NowCount(); got < 1 || got > 5 {
		t.Errorf("NowCount = %d (rate cap limits accepted reports)", got)
	}
}

func TestOCRNoise(t *testing.T) {
	e, svc, c := setup(1.0) // always misread
	tapped := collect(c)
	c.Attach(e, t0)
	e.Schedule(t0.Add(30*time.Second), func() { ingest(svc, e.Now(), pos) })
	e.RunFor(30 * time.Minute)
	// With guaranteed misreads, reconstructed ages must deviate from the
	// floor value at least sometimes but never go negative.
	deviated := false
	for _, r := range *tapped {
		if r.AgeMinutes < 0 {
			t.Fatal("negative age")
		}
		trueAge := int(r.CrawlT.Sub(t0.Add(30*time.Second)) / time.Minute)
		if r.AgeMinutes != trueAge {
			deviated = true
		}
	}
	if !deviated {
		t.Error("OCR misreads never changed an age")
	}
}

func TestDistinctReports(t *testing.T) {
	// Simulate the same report observed three times, then a new one.
	base := trace.CrawlRecord{TagID: "tag", Pos: pos, ReportedAt: t0, AgeMinutes: 0}
	obs2 := base
	obs2.CrawlT = t0.Add(time.Minute)
	obs2.AgeMinutes = 1
	obs3 := base
	obs3.CrawlT = t0.Add(2 * time.Minute)
	obs3.AgeMinutes = 2
	fresh := trace.CrawlRecord{TagID: "tag", Pos: geo.Destination(pos, 0, 200), CrawlT: t0.Add(3 * time.Minute), ReportedAt: t0.Add(3 * time.Minute)}
	out := DistinctReports([]trace.CrawlRecord{base, obs2, obs3, fresh})
	if len(out) != 2 {
		t.Fatalf("DistinctReports kept %d records, want 2", len(out))
	}
	// Different tags never collapse.
	otherTag := base
	otherTag.TagID = "tag2"
	out2 := DistinctReports([]trace.CrawlRecord{base, otherTag})
	if len(out2) != 2 {
		t.Error("records of different tags collapsed")
	}
}

func TestCrawlIntervalDefaulted(t *testing.T) {
	c := New(Config{Vendor: trace.VendorApple}, cloud.NewService(trace.VendorApple), nil, sim.NewEngine(t0, 1).RNG("x"))
	if c.cfg.Interval != time.Minute {
		t.Errorf("interval defaulted to %v", c.cfg.Interval)
	}
}

func TestStopCrawling(t *testing.T) {
	e, svc, c := setup(0)
	tapped := collect(c)
	stop := c.Attach(e, t0)
	ingest(svc, t0, pos)
	e.RunFor(5 * time.Minute)
	n := len(*tapped)
	stop()
	e.RunFor(10 * time.Minute)
	if len(*tapped) != n {
		t.Error("crawler kept polling after stop")
	}
}

func BenchmarkPoll(b *testing.B) {
	e := sim.NewEngine(t0, 1)
	svc := cloud.NewService(trace.VendorApple)
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = string(rune('a' + i))
		svc.Ingest(trace.Report{T: t0, TagID: ids[i], Pos: pos})
	}
	c := New(DefaultConfig(trace.VendorApple), svc, ids, e.RNG("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Poll(t0.Add(time.Duration(i) * time.Minute))
	}
}
