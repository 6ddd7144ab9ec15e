// Package serve exposes the vendor query surface the paper's crawlers
// reverse-engineered as an HTTP API over the sharded report stores:
// the per-tag last-known location ("last seen X minutes ago", the view
// FindMy/SmartThings render), the accepted-report history, a cross-
// vendor track reconstruction (the emulated unified ecosystem), and
// ingestion counters. A POST ingest endpoint closes the loop so the
// load harness can drive the write path through HTTP too.
//
// The handler is a plain http.Handler built by NewServer, so it runs
// equally under net/http/httptest (in-process load tests, cmd/tagserve's
// self-drive mode) and a real listener.
//
// The read handlers are built for the Zipf-hot query mix the load
// harness models: the store reads underneath are lock-free (epoch
// views, see internal/store), /v1/lastknown and /v1/track are answered
// from the bounded hot-tag cache whenever the backing shards' epochs
// haven't moved (see cloud.HotCache; cloud.SetHotCache is the escape
// hatch), query parameters are parsed in one pass over the raw query
// string instead of materializing a url.Values map per request, and
// capped history queries copy only the newest N reports out of the
// rings.
//
// The four hot responses (last-known, history, track, ingest) are
// appended into pooled []byte buffers by hand-written encoders (see
// encode.go) that write the same bytes encoding/json would, without its
// reflection; /v1/track encodes straight from the merged reports. The
// cold responses (/v1/stats, /debug/traces, the error envelope) keep
// encoding/json. A value that cannot be encoded (a NaN, a time outside
// RFC 3339's years) answers 500 with the error envelope, never an empty
// or truncated 200.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// Server routes the vendor query API over a set of per-vendor services.
type Server struct {
	mux      *http.ServeMux
	services map[trace.Vendor]*cloud.Service
	svcs     []*cloud.Service // sorted by vendor, the deterministic probe order
	combined cloud.Combined
	vendors  []trace.Vendor // sorted, for stable /v1/stats output
	cache    *cloud.HotCache
	// reg is this server's metric registry: per-endpoint latency
	// histograms and request counters plus collect-on-scrape bridges
	// over the store and cache counters. Per-instance (not obs.Default)
	// so the many short-lived stores a campaign builds never pile up
	// stale series in the process registry.
	reg *obs.Registry
}

// NewServer builds the query service over per-vendor backends. The
// services may keep ingesting (e.g. from a live load generator or a
// running simulation flushing through Restore) while the server reads —
// reads are lock-free against the stores' epoch views, and the hot-tag
// cache revalidates against the shard epochs on every hit.
func NewServer(services map[trace.Vendor]*cloud.Service) *Server {
	s := &Server{mux: http.NewServeMux(), services: services}
	for v, svc := range services {
		s.vendors = append(s.vendors, v)
		s.svcs = append(s.svcs, svc)
	}
	sort.Slice(s.vendors, func(i, j int) bool { return s.vendors[i] < s.vendors[j] })
	sort.Slice(s.svcs, func(i, j int) bool { return s.svcs[i].Vendor() < s.svcs[j].Vendor() })
	s.combined = cloud.Combined(s.svcs)
	s.cache = cloud.NewHotCache(services, 0)
	s.reg = obs.NewRegistry()
	s.handle("GET /v1/lastknown", "lastknown", s.handleLastKnown)
	s.handle("GET /v1/history", "history", s.handleHistory)
	s.handle("GET /v1/track", "track", s.handleTrack)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	s.handle("POST /v1/report", "report", s.handleReport)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.registerCollectors()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// LastKnownResponse is what the companion app shows for one tag: the
// last reported position and the quantized "last seen X minutes ago"
// label the crawlers OCR.
type LastKnownResponse struct {
	TagID  string     `json:"tag_id"`
	Vendor string     `json:"vendor"`
	Found  bool       `json:"found"`
	Pos    geo.LatLon `json:"pos,omitzero"`
	SeenAt time.Time  `json:"seen_at,omitzero"`
	// AgeMinutes is floored to whole minutes relative to the query's
	// ?now= (or the server clock), exactly like the app label; 0 means
	// the "Now" state Table 1 counts.
	AgeMinutes int `json:"age_minutes"`
}

// HistoryResponse lists a tag's retained accepted reports oldest-first.
type HistoryResponse struct {
	TagID   string         `json:"tag_id"`
	Vendor  string         `json:"vendor"`
	Reports []trace.Report `json:"reports"`
}

// TrackPoint is one fix of a cross-vendor track.
type TrackPoint struct {
	T      time.Time  `json:"t"`
	Pos    geo.LatLon `json:"pos"`
	Vendor string     `json:"vendor"`
}

// TrackResponse is the stalker's-eye view the paper builds by merging
// both ecosystems: the freshest last-known fix plus the merged,
// time-sorted report track.
type TrackResponse struct {
	TagID string            `json:"tag_id"`
	Last  LastKnownResponse `json:"last"`
	Track []TrackPoint      `json:"track"`
}

// VendorStats is one vendor's ingestion counters.
type VendorStats struct {
	Vendor   string `json:"vendor"`
	Tags     int    `json:"tags"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
}

// VendorStorage is one vendor store's storage-tier snapshot: WAL and
// segment sizes, flush/compaction activity, quarantine counters.
type VendorStorage struct {
	Vendor string `json:"vendor"`
	store.TierStats
}

// StatsResponse aggregates every vendor's counters plus the hot-tag
// cache's effectiveness counters — the runtime decomposition of the
// cached read path (how much of the query mass the cache absorbs, and
// whether misses come from writes or collisions) — and, for persistent
// stores, the storage tier underneath each vendor.
type StatsResponse struct {
	Vendors []VendorStats    `json:"vendors"`
	Cache   cloud.CacheStats `json:"cache"`
	Storage []VendorStorage  `json:"storage,omitempty"`
}

// IngestResponse answers POST /v1/report.
type IngestResponse struct {
	Accepted bool `json:"accepted"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeReflect(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// queryParams are the four parameters the read endpoints accept,
// gathered in one pass over the raw query string. Absent keys stay "",
// matching url.Values.Get.
type queryParams struct {
	tag, vendor, now, limit string
}

// parseQuery scans RawQuery once without building a url.Values map.
// Pairs that hold a ';' or fail to unescape are skipped, exactly like
// url.ParseQuery (which collects the error the handlers never looked
// at); repeated keys keep the first value, like url.Values.Get.
func parseQuery(raw string) (p queryParams) {
	var seen [4]bool
	for len(raw) > 0 {
		pair := raw
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		if strings.IndexByte(key, '%') >= 0 || strings.IndexByte(key, '+') >= 0 {
			u, err := url.QueryUnescape(key)
			if err != nil {
				continue
			}
			key = u
		}
		var dst *string
		var idx int
		switch key {
		case "tag":
			dst, idx = &p.tag, 0
		case "vendor":
			dst, idx = &p.vendor, 1
		case "now":
			dst, idx = &p.now, 2
		case "limit":
			dst, idx = &p.limit, 3
		default:
			continue
		}
		if seen[idx] {
			continue
		}
		if strings.IndexByte(val, '%') >= 0 || strings.IndexByte(val, '+') >= 0 {
			u, err := url.QueryUnescape(val)
			if err != nil {
				continue
			}
			val = u
		}
		*dst, seen[idx] = val, true
	}
	return p
}

// tagParam validates the mandatory tag parameter.
func tagParam(w http.ResponseWriter, p queryParams) (string, bool) {
	if p.tag == "" {
		writeErr(w, http.StatusBadRequest, "missing tag parameter")
		return "", false
	}
	return p.tag, true
}

// serviceFor resolves the vendor parameter: a nil service with ok means
// the combined (freshest-wins) ecosystem, requested as "Combined" or by
// omitting the parameter. Bad and unbacked vendors are answered here.
func (s *Server) serviceFor(w http.ResponseWriter, p queryParams) (svc *cloud.Service, label string, ok bool) {
	if p.vendor == "" || p.vendor == trace.VendorCombined.String() {
		return nil, trace.VendorCombined.String(), true
	}
	v, err := trace.ParseVendor(p.vendor)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown vendor %q", p.vendor)
		return nil, "", false
	}
	svc, found := s.services[v]
	if !found {
		writeErr(w, http.StatusNotFound, "no %s service", v)
		return nil, "", false
	}
	return svc, v.String(), true
}

// knownTag answers whether any backing service knows the tag, probing
// in sorted vendor order and stopping at the first hit (through the
// hot-tag cache, so a hot tag's existence check costs an epoch
// revalidation); unknown tags 404 on every tag-scoped endpoint (a
// paired-but-unreported tag still answers 200 with the app's "no
// location found").
func (s *Server) knownTag(w http.ResponseWriter, tagID string) bool {
	if s.cache.Known(tagID) {
		return true
	}
	writeErr(w, http.StatusNotFound, "unknown tag %q", tagID)
	return false
}

// nowParam returns the reference instant for age labels: ?now=RFC3339
// when given (deterministic queries against simulated pasts), else the
// server clock.
func nowParam(w http.ResponseWriter, p queryParams) (time.Time, bool) {
	if p.now != "" {
		t, err := time.Parse(time.RFC3339, p.now)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad now parameter: %v", err)
			return time.Time{}, false
		}
		return t, true
	}
	return time.Now(), true
}

// lastKnownAt shapes a (pos, at, found) answer into the app's response.
func lastKnownAt(vendorName, tagID string, pos geo.LatLon, at time.Time, found bool, now time.Time) LastKnownResponse {
	resp := LastKnownResponse{TagID: tagID, Vendor: vendorName}
	if !found {
		return resp // the app's "no location found"
	}
	age := int(now.Sub(at) / time.Minute) // the app floors to whole minutes
	if age < 0 {
		age = 0
	}
	resp.Found, resp.Pos, resp.SeenAt, resp.AgeMinutes = true, pos, at, age
	return resp
}

func lastKnown(view cloud.View, vendorName, tagID string, now time.Time) LastKnownResponse {
	pos, at, ok := view.LastSeen(tagID)
	return lastKnownAt(vendorName, tagID, pos, at, ok, now)
}

func (s *Server) handleLastKnown(w http.ResponseWriter, r *http.Request) {
	p := parseQuery(r.URL.RawQuery)
	tag, ok := tagParam(w, p)
	if !ok {
		return
	}
	svc, vendorName, ok := s.serviceFor(w, p)
	if !ok {
		return
	}
	now, ok := nowParam(w, p)
	if !ok {
		return
	}
	if svc == nil { // combined view: one cache probe answers known + fix
		pos, at, found, known := s.cache.LastSeenTraced(tag, otrace.FromContext(r.Context()))
		if !known {
			writeErr(w, http.StatusNotFound, "unknown tag %q", tag)
			return
		}
		writeJSON(w, http.StatusOK, lastKnownAt(vendorName, tag, pos, at, found, now), appendLastKnown)
		return
	}
	if !s.knownTag(w, tag) {
		return
	}
	writeJSON(w, http.StatusOK, lastKnown(svc, vendorName, tag, now), appendLastKnown)
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	p := parseQuery(r.URL.RawQuery)
	tag, ok := tagParam(w, p)
	if !ok {
		return
	}
	svc, label, ok := s.serviceFor(w, p)
	if !ok {
		return
	}
	limit := -1 // no limit
	if p.limit != "" {
		n, err := strconv.Atoi(p.limit)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit parameter %q", p.limit)
			return
		}
		limit = n
	}
	// The limit rides down into the stores: a capped query copies only
	// the newest N reports out of each ring instead of materializing the
	// whole history and slicing it. The combined view is served through
	// the hot-tag cache — the history pane asks for the same window
	// every time, so a hot tag's window is one fill per epoch.
	tr := otrace.FromContext(r.Context())
	var reports []trace.Report
	if svc == nil {
		var known bool
		if reports, known = s.cache.HistoryTailTraced(tag, limit, tr); !known {
			writeErr(w, http.StatusNotFound, "unknown tag %q", tag)
			return
		}
	} else {
		if !s.knownTag(w, tag) {
			return
		}
		reports = svc.RecentHistoryTraced(tag, limit, tr)
	}
	writeJSON(w, http.StatusOK, HistoryResponse{TagID: tag, Vendor: label, Reports: reports}, appendHistory)
}

func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	p := parseQuery(r.URL.RawQuery)
	tag, ok := tagParam(w, p)
	if !ok {
		return
	}
	now, ok := nowParam(w, p)
	if !ok {
		return
	}
	tr := otrace.FromContext(r.Context())
	merged, known := s.cache.TrackTraced(tag, tr)
	if !known {
		writeErr(w, http.StatusNotFound, "unknown tag %q", tag)
		return
	}
	if merged == nil {
		merged = []trace.Report{} // a tag with no reports answers "track":[]
	}
	pos, at, found, _ := s.cache.LastSeenTraced(tag, tr)
	writeJSON(w, http.StatusOK, trackReply{
		TagID: tag,
		Last:  lastKnownAt(trace.VendorCombined.String(), tag, pos, at, found, now),
		Track: merged,
	}, appendTrack)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{Vendors: make([]VendorStats, 0, len(s.vendors))}
	for _, v := range s.vendors {
		svc := s.services[v]
		acc, rej := svc.Stats()
		resp.Vendors = append(resp.Vendors, VendorStats{
			Vendor: v.String(), Tags: svc.NumTags(), Accepted: acc, Rejected: rej,
		})
	}
	resp.Cache = s.cache.Stats()
	for _, svc := range s.svcs {
		if svc.Tiered() {
			resp.Storage = append(resp.Storage, VendorStorage{
				Vendor: svc.Vendor().String(), TierStats: svc.TierStats(),
			})
		}
	}
	writeReflect(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	// The vendor field is decoded through a pointer so an absent key is
	// a 400, not a silent fall-through to the zero vendor (Apple).
	var raw struct {
		trace.Report
		Vendor *trace.Vendor `json:"vendor"`
	}
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		writeErr(w, http.StatusBadRequest, "bad report body: %v", err)
		return
	}
	if raw.TagID == "" {
		writeErr(w, http.StatusBadRequest, "report missing tag_id")
		return
	}
	if raw.Vendor == nil {
		writeErr(w, http.StatusBadRequest, "report missing vendor")
		return
	}
	rep := raw.Report
	rep.Vendor = *raw.Vendor
	svc, ok := s.services[rep.Vendor]
	if !ok {
		writeErr(w, http.StatusNotFound, "no %s service", rep.Vendor)
		return
	}
	tr := otrace.FromContext(r.Context())
	sp := tr.Start(otrace.PlaneStore, "store.ingest", 0, 0)
	accepted := svc.Ingest(rep)
	if accepted {
		tr.SetAttrs(sp, 1, 0)
	}
	tr.Finish(sp)
	writeJSON(w, http.StatusOK, IngestResponse{Accepted: accepted}, appendIngest)
}
