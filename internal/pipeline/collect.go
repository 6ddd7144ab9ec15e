package pipeline

import (
	"fmt"

	"tagsim/internal/analysis"
	"tagsim/internal/trace"
)

// DatasetCollector is the consumer that hands each world's raw records
// back as a dataset: every ground-truth fix and every crawl record, not
// deduped, exactly what the world's vantage point and crawlers produced.
// It holds one world's records at a time; on the world's final batch it
// builds the world's time-sorted Dataset and detects its homes, then
// starts the next world. Use it where the raw per-country logs are the
// output (CSV dumps, small custom campaigns); a whole campaign's
// analysis wants the CampaignAccumulator, which never keeps the raw
// crawl log.
type DatasetCollector struct {
	fixes  []trace.GroundTruth
	crawls map[trace.Vendor][]trace.CrawlRecord
	worlds []WorldData
}

// NewDatasetCollector builds the consumer.
func NewDatasetCollector() *DatasetCollector { return &DatasetCollector{} }

// Consume implements Consumer. The merge delivers worlds whole and in
// index order, so a batch always belongs to the next unfinished world.
func (c *DatasetCollector) Consume(b Batch) error {
	if b.World != len(c.worlds) {
		return fmt.Errorf("pipeline: world %d batch while collecting world %d", b.World, len(c.worlds))
	}
	if c.crawls == nil {
		c.crawls = make(map[trace.Vendor][]trace.CrawlRecord)
	}
	// Every registered vendor gets a crawl log, even an empty one.
	for _, reg := range b.Registrations {
		if _, ok := c.crawls[reg.Vendor]; !ok {
			c.crawls[reg.Vendor] = nil
		}
	}
	c.fixes = append(c.fixes, b.Fixes...)
	for _, rec := range b.Crawls {
		c.crawls[rec.Vendor] = append(c.crawls[rec.Vendor], rec)
	}
	if b.Final {
		c.worlds = append(c.worlds, WorldData{
			Dataset: analysis.NewDataset(c.fixes, c.crawls),
			Homes:   analysis.DetectHomes(c.fixes, 300),
		})
		c.fixes, c.crawls = nil, nil
	}
	return nil
}

// Close implements Consumer.
func (c *DatasetCollector) Close() error { return nil }

// Name labels this consumer in pipeline stats.
func (c *DatasetCollector) Name() string { return "collect" }

// Worlds returns each world's data in world order. Valid only after the
// pipeline's Wait returned nil.
func (c *DatasetCollector) Worlds() []WorldData { return c.worlds }
