// Package cloud models the vendor location services (Apple FindMy, Samsung
// SmartThings Find): crowd-sourced report ingestion with per-tag rate
// capping, last-known-location state, and location history.
//
// The services are modeled exactly at the interface the paper's crawlers
// observed: a per-tag last location and "last seen" age. The per-tag
// update-rate cap reproduces the 15-20 updates/hour plateau both vendors
// converge to in Figures 3-4.
//
// Since the serving-subsystem refactor a Service is a thin vendor label
// over internal/store's sharded concurrent report store: the
// single-goroutine simulation drives it exactly as before (acceptance
// depends only on per-tag state, so output is byte-identical), while
// cmd/tagserve and the load harness may ingest and query the same
// service from GOMAXPROCS goroutines.
package cloud

import (
	"fmt"
	"sort"
	"time"

	"tagsim/internal/geo"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// DefaultMinUpdateInterval is the per-tag ingestion cap: one accepted
// report per ~3.2 minutes, i.e. at most ~18.75 updates/hour — the plateau
// of the paper's Figure 4.
const DefaultMinUpdateInterval = 192 * time.Second

// Service is one vendor's location backend. The embedded Store carries
// the state and the policy knobs (MinUpdateInterval, KeepHistory,
// HistoryLimit), which callers may adjust before the service is shared
// across goroutines.
type Service struct {
	*store.Store
	vendor trace.Vendor

	// Tap, when set, observes every accepted report right after Ingest
	// admits it — the hook the streaming campaign pipeline uses to
	// publish the cloud's accepted stream while the simulation runs.
	// Set it before the service is shared across goroutines; the tap
	// runs outside the store's shard locks, on the ingesting goroutine.
	Tap func(trace.Report)
}

// Ingest applies the store's rate cap and, when the report is accepted,
// forwards it to the service's Tap. See store.Store.Ingest for the
// acceptance semantics.
func (s *Service) Ingest(r trace.Report) bool {
	ok := s.Store.Ingest(r)
	if ok && s.Tap != nil {
		s.Tap(r)
	}
	return ok
}

// NewService creates a vendor service with the default rate cap, history
// retention enabled and unbounded (HistoryLimit 0), on the store's
// default shard count.
func NewService(vendor trace.Vendor) *Service {
	return NewServiceSharded(vendor, store.DefaultShards)
}

// NewServiceSharded is NewService with an explicit store shard count
// (rounded up to a power of two) — cmd/tagserve and the serving
// benchmarks size the store to their client counts.
func NewServiceSharded(vendor trace.Vendor, shards int) *Service {
	st := store.New(shards)
	st.MinUpdateInterval = DefaultMinUpdateInterval
	st.KeepHistory = true
	return &Service{Store: st, vendor: vendor}
}

// NewServicePersistent is NewServiceSharded on the tiered persistent
// store: the service's state lives in cfg.Dir (WAL + columnar segments)
// and a restart warm-loads it, replaying only the WAL tail. The cloud
// policy fills in like the other constructors — the default rate cap
// unless cfg overrides it, history always on. With an empty cfg.Dir
// this degenerates to NewServiceSharded.
func NewServicePersistent(vendor trace.Vendor, shards int, cfg store.Tiering) (*Service, error) {
	if cfg.MinUpdateInterval == 0 {
		cfg.MinUpdateInterval = DefaultMinUpdateInterval
	}
	cfg.KeepHistory = true
	st, err := store.Open(shards, cfg)
	if err != nil {
		return nil, fmt.Errorf("cloud: opening %s store in %s: %w", vendor, cfg.Dir, err)
	}
	return &Service{Store: st, vendor: vendor}, nil
}

// Vendor returns the ecosystem this service backs.
func (s *Service) Vendor() trace.Vendor { return s.vendor }

// String describes the service.
func (s *Service) String() string {
	accepted, rejected := s.Stats()
	return fmt.Sprintf("%s location service (%d tags, %d accepted, %d rate-limited)",
		s.vendor, s.NumTags(), accepted, rejected)
}

// View is the read interface the crawlers poll: what the companion app
// shows for one tag.
type View interface {
	LastSeen(tagID string) (pos geo.LatLon, at time.Time, ok bool)
}

// sortServices orders services by vendor — the deterministic iteration
// order the query plane probes and merges in.
func sortServices(svcs []*Service) {
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Vendor() < svcs[j].Vendor() })
}

// Combined merges several services into the paper's emulated unified
// ecosystem: the freshest last-seen across services wins.
type Combined []*Service

// LastSeen implements View over the union of services.
func (c Combined) LastSeen(tagID string) (pos geo.LatLon, at time.Time, ok bool) {
	for _, s := range c {
		p, t, found := s.LastSeen(tagID)
		if found && (!ok || t.After(at)) {
			pos, at, ok = p, t, true
		}
	}
	return pos, at, ok
}

// MergedHistory returns all accepted reports for a tag across services,
// sorted by acceptance time.
func (c Combined) MergedHistory(tagID string) []trace.Report {
	return c.MergedHistoryTraced(tagID, nil)
}

// MergedHistoryTraced is MergedHistory threading a request trace down
// into each store's history read (nil tr traces nothing).
func (c Combined) MergedHistoryTraced(tagID string, tr *otrace.Trace) []trace.Report {
	var out []trace.Report
	for _, s := range c {
		out = append(out, s.RecentHistoryTraced(tagID, -1, tr)...)
	}
	trace.SortByTime(out)
	return out
}

// MergedHistoryTail returns the newest limit reports of the merged
// cross-vendor history (limit < 0: everything, i.e. MergedHistory). It
// pushes the cap down into each store — per-service RecentHistory
// copies only its newest limit entries — so a capped query over long
// histories never materializes the full rings. Identical to slicing
// MergedHistory whenever each service's per-tag history is time-sorted,
// which ingest guarantees (acceptance only ever advances a tag's clock)
// and Restore callers are documented to feed. Like the endpoint it
// serves, limit 0 distinguishes "some history exists" (empty non-nil)
// from none at all (nil).
func (c Combined) MergedHistoryTail(tagID string, limit int) []trace.Report {
	return c.MergedHistoryTailTraced(tagID, limit, nil)
}

// MergedHistoryTailTraced is MergedHistoryTail threading a request
// trace down into each store's merge and segment reads (nil tr traces
// nothing).
func (c Combined) MergedHistoryTailTraced(tagID string, limit int, tr *otrace.Trace) []trace.Report {
	if limit < 0 {
		return c.MergedHistoryTraced(tagID, tr)
	}
	if limit == 0 {
		for _, s := range c {
			if s.RecentHistory(tagID, 0) != nil {
				return []trace.Report{}
			}
		}
		return nil
	}
	// Most tags live in exactly one vendor's store. RecentHistory
	// already returns a private, time-sorted copy, so a single
	// contributor's slice is the answer as-is — no second copy, no
	// re-sort. Only a tag reported into several ecosystems pays the
	// merge.
	var out []trace.Report
	merged := false
	for _, s := range c {
		r := s.RecentHistoryTraced(tagID, limit, tr)
		if len(r) == 0 {
			continue
		}
		if out == nil {
			out = r
			continue
		}
		out = append(out, r...)
		merged = true
	}
	if out == nil {
		return nil
	}
	if merged {
		trace.SortByTime(out)
		if limit < len(out) {
			out = out[len(out)-limit:]
		}
	}
	return out
}
