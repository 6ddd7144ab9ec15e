// The trace surface of the query API: GET /debug/traces serves the
// process-wide slow-op capture ring as JSON, newest-first — the pane
// an operator opens when the latency histograms say "the p99 moved"
// and the question becomes "on what, exactly". Each entry is one
// captured request or background op with its full span tree; the ring
// is lock-free and bounded, so this endpoint is always safe to curl on
// a live server.
package serve

import (
	"net/http"
	"strconv"
	"time"

	otrace "tagsim/internal/obs/trace"
)

// TracesResponse is the /debug/traces envelope.
type TracesResponse struct {
	Captures uint64                `json:"captures"` // total ever captured (ring may have evicted older ones)
	Traces   []otrace.CapturedJSON `json:"traces"`   // newest first
}

// handleTraces renders the capture ring. Query parameters:
//
//	plane=<serve|cache|store|tier|pipeline>  keep traces whose root is on this plane
//	op=<name>      keep traces whose root op equals this (e.g. history, tier.compact)
//	min=<duration> keep traces at least this slow (Go duration syntax, e.g. 2ms)
//	limit=<n>      return at most n traces (default: the whole ring)
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit parameter %q", v)
			return
		}
		limit = n
	}
	var min time.Duration
	if v := q.Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad min parameter: %v", err)
			return
		}
		min = d
	}
	plane, op := q.Get("plane"), q.Get("op")

	// Snapshot the whole ring, filter, then cap: a limit must return
	// the newest n matching traces, not the matches among the newest n.
	caps := otrace.DefaultRing.Snapshot(0)
	resp := TracesResponse{Captures: otrace.DefaultRing.Captures(), Traces: []otrace.CapturedJSON{}}
	for _, c := range caps {
		root := c.Root()
		if root == nil {
			continue
		}
		if plane != "" && root.Plane.String() != plane {
			continue
		}
		if op != "" && root.Op != op {
			continue
		}
		if min > 0 && c.Duration() < min {
			continue
		}
		resp.Traces = append(resp.Traces, c.JSON())
		if limit > 0 && len(resp.Traces) >= limit {
			break
		}
	}
	writeReflect(w, http.StatusOK, resp)
}
