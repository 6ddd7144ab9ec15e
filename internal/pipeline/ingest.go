package pipeline

import (
	"sync/atomic"

	"tagsim/internal/cloud"
	"tagsim/internal/trace"
)

// StoreIngester streams the campaign's accepted reports into serving
// stores while the simulation runs: it is how cmd/tagserve fills its
// stores from a campaign, live or not. The reports arriving here
// already passed the per-world clouds' rate caps, so they load through
// Restore (no re-capping); per-tag report order is preserved by the
// ordered merge, which makes the final store snapshot byte-identical to
// restoring each tag's accepted history in one call.
//
// The destination services may be queried concurrently (the HTTP query
// API, the load harness) throughout: the sharded store's locks make
// every read safe against the ingest stream, which is what
// `tagserve -live` demonstrates.
type StoreIngester struct {
	services map[trace.Vendor]*cloud.Service
	ingested atomic.Uint64
}

// NewStoreIngester builds the consumer over per-vendor destination
// services. Reports for vendors without a service are skipped, not
// errors (mirroring the radio plane's unserved vendors).
func NewStoreIngester(services map[trace.Vendor]*cloud.Service) *StoreIngester {
	return &StoreIngester{services: services}
}

// Consume implements Consumer: registrations first, then the batch's
// reports grouped per vendor in arrival order.
func (si *StoreIngester) Consume(b Batch) error {
	for _, reg := range b.Registrations {
		if svc, ok := si.services[reg.Vendor]; ok {
			svc.Register(reg.TagID)
		}
	}
	if len(b.Reports) == 0 {
		return nil
	}
	perVendor := make(map[trace.Vendor][]trace.Report)
	for _, r := range b.Reports {
		perVendor[r.Vendor] = append(perVendor[r.Vendor], r)
	}
	for v, rs := range perVendor {
		svc, ok := si.services[v]
		if !ok {
			continue
		}
		svc.Restore(rs)
		si.ingested.Add(uint64(len(rs)))
	}
	return nil
}

// Close implements Consumer.
func (si *StoreIngester) Close() error { return nil }

// Name labels this consumer in pipeline stats.
func (si *StoreIngester) Name() string { return "store" }

// Ingested returns how many reports have been loaded so far. Safe to
// read concurrently with the stream (tagserve's live stats).
func (si *StoreIngester) Ingested() uint64 { return si.ingested.Load() }
