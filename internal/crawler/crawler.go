// Package crawler reproduces the paper's companion-app crawlers: the
// FindMy crawler (pyautogui + OCR on MacOS) and the SmartThings crawler
// (ADB-driven Android), both reduced to what they actually do — poll each
// tag's displayed location once per minute and reconstruct the report time
// from the app's "last seen X minutes ago" label.
//
// The reconstruction inherits two artifacts the analysis must live with:
// the label is quantized to whole minutes (up to one minute of error, as
// the paper notes), and OCR occasionally misreads the digits.
package crawler

import (
	"math/rand"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/sim"
	"tagsim/internal/trace"
)

// Config parameterizes a crawler.
type Config struct {
	// Vendor labels the records (which companion app was crawled).
	Vendor trace.Vendor
	// Interval is the polling period (the paper's crawlers: one minute).
	Interval time.Duration
	// OCRMisreadProb is the chance the "X minutes ago" digits are
	// misread, shifting the age by one minute.
	OCRMisreadProb float64
}

// DefaultConfig returns the paper's crawler settings for a vendor.
func DefaultConfig(v trace.Vendor) Config {
	return Config{Vendor: v, Interval: time.Minute, OCRMisreadProb: 0.01}
}

// Crawler polls a cloud view for a set of tags and hands each crawl
// record to its Tap.
type Crawler struct {
	cfg     Config
	view    cloud.View
	tagIDs  []string
	rng     *rand.Rand
	nowSeen int

	// Tap receives every crawl record as it is produced, in poll order.
	// It is the crawler's only output (NowCount aside): the crawler
	// keeps no log, so a record with no Tap is dropped. A campaign
	// world taps it into its pipeline emitter.
	Tap func(trace.CrawlRecord)
}

// New builds a crawler over a cloud view. tagIDs are the tags paired to
// the crawling account.
func New(cfg Config, view cloud.View, tagIDs []string, rng *rand.Rand) *Crawler {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	return &Crawler{cfg: cfg, view: view, tagIDs: tagIDs, rng: rng}
}

// Attach schedules the crawl loop on the engine starting at start; the
// returned function stops it.
func (c *Crawler) Attach(e *sim.Engine, start time.Time) (stop func()) {
	return e.EveryFixed(start, c.cfg.Interval, c.Poll)
}

// Poll performs one crawl pass at the given virtual time.
func (c *Crawler) Poll(now time.Time) {
	for _, tagID := range c.tagIDs {
		pos, at, ok := c.view.LastSeen(tagID)
		if !ok {
			continue // app shows "no location found"
		}
		age := int(now.Sub(at) / time.Minute) // app floors to whole minutes
		if age < 0 {
			age = 0
		}
		if c.cfg.OCRMisreadProb > 0 && c.rng.Float64() < c.cfg.OCRMisreadProb {
			if age > 0 && c.rng.Intn(2) == 0 {
				age--
			} else {
				age++
			}
		}
		rec := trace.CrawlRecord{
			CrawlT:     now,
			TagID:      tagID,
			Vendor:     c.cfg.Vendor,
			Pos:        pos,
			ReportedAt: now.Add(-time.Duration(age) * time.Minute),
			AgeMinutes: age,
		}
		if rec.IsNow() {
			c.nowSeen++
		}
		if c.Tap != nil {
			c.Tap(rec)
		}
	}
}

// NowCount returns how many crawl records showed the tag as seen "Now" —
// the quantity Table 1 reports per country, counted as records are
// produced.
func (c *Crawler) NowCount() int { return c.nowSeen }

// DistinctReports collapses repeated crawl records that observed the
// same underlying report (same tag, same displayed position, report
// times within 90 s) into one record each, reconstructing the
// fine-grained location history the paper's crawlers build. It is
// trace.DistinctReports, the dedup shared with the analysis plane's
// accuracy bucketing.
//
// Note one deliberate semantic refinement over the pre-unification
// implementation, which only compared against the tag's single last
// kept record: the shared dedup remembers the last kept record per
// (tag, position), so a report re-observed within 90 s still collapses
// even when an observation of a different position was crawled in
// between (e.g. two reporting devices alternating in the app view).
// That matches the analysis plane's definition of "the same underlying
// report" and is pinned by the interleaving cases in
// internal/trace/distinct_test.go.
func DistinctReports(records []trace.CrawlRecord) []trace.CrawlRecord {
	return trace.DistinctReports(records)
}
