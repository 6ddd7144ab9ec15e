package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tagsim/internal/cloud"
	"tagsim/internal/obs"
)

// TestMetricsEndpoint drives a few requests through the server and then
// scrapes /metrics: the Prometheus text must carry per-endpoint request
// counters and latency histograms, the store collectors, and the cache
// counters — the live-acceptance criterion as a unit test.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	was := cloud.SetHotCache(true)
	defer cloud.SetHotCache(was)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/lastknown?tag=airtag-1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/lastknown") // missing tag: 400
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`serve_requests_total{code="2xx",endpoint="lastknown"} 3`,
		`serve_requests_total{code="4xx",endpoint="lastknown"} 1`,
		`serve_latency_seconds_count{endpoint="lastknown"} 4`,
		`serve_latency_seconds_bucket{endpoint="lastknown",le="+Inf"} 4`,
		`store_accepted_total{vendor="Apple"} 2`,
		`store_tags{vendor="Apple"} 2`,
		`cache_hits_total`,
		`cache_misses_total`,
		`# TYPE serve_latency_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugVarsEndpoint: /debug/vars must be one JSON object merging
// the per-server registry with the process-wide obs.Default series.
func TestDebugVarsEndpoint(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/lastknown?tag=airtag-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var vars map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not a JSON object: %v", err)
	}
	for _, key := range []string{
		`serve_requests_total{code="2xx",endpoint="lastknown"}`,
		"store_accepted_total{vendor=\"Apple\"}",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
}

// TestStatsCarriesCacheCounters: the /v1/stats satellite — the cache
// block must be present and move with cached traffic.
func TestStatsCarriesCacheCounters(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	was := cloud.SetHotCache(true)
	defer cloud.SetHotCache(was)

	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/v1/lastknown?tag=airtag-1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if stats.Cache.Hits == 0 || stats.Cache.Misses == 0 || stats.Cache.Fills == 0 {
		t.Fatalf("cache counters did not move: %+v", stats.Cache)
	}
}

// TestMetricsDisabledRequestsStillServe: with obs disabled, the
// instrumented handlers fall through to the raw path and the serve
// counters freeze, but responses are unchanged.
func TestMetricsDisabledRequestsStillServe(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(false))
	_, ts := fixture()
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lastknown?tag=airtag-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disabled path broke serving: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `serve_latency_seconds_count{endpoint="lastknown"} 1`) {
		t.Fatal("disabled path still recorded a latency sample")
	}
}

// countingWriter is a ResponseWriter stub that, on the first body
// byte, records what the request counter read at that instant.
type countingWriter struct {
	h       http.Header
	counter *obs.Counter
	status  int
	atWrite uint64
	wrote   bool
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *countingWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.atWrite = true, w.counter.Value()
	}
	return len(p), nil
}

// TestRequestCountedBeforeBody: serve_requests_total moves before the
// first body byte is written, so a client that has read its whole
// answer is already counted — for a handler that sets its status, one
// that writes a body with net/http's implicit 200, and one that writes
// nothing at all.
func TestRequestCountedBeforeBody(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	_, ts := fixture()
	defer ts.Close()
	srv := ts.Config.Handler.(*Server)
	srv.handle("GET /test/implicit", "implicit", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "body without a WriteHeader")
	})
	srv.handle("GET /test/empty", "empty", func(w http.ResponseWriter, r *http.Request) {})
	for _, c := range []struct{ endpoint, path string }{
		{"track", "/v1/track?tag=airtag-1"},
		{"history", "/v1/history?tag=airtag-1"},
		{"implicit", "/test/implicit"},
		{"empty", "/test/empty"},
	} {
		ok := srv.Metrics().Counter("serve_requests_total", obs.L("endpoint", c.endpoint), obs.L("code", "2xx"))
		before := ok.Value()
		w := &countingWriter{h: http.Header{}, counter: ok}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, c.path, nil))
		if c.endpoint != "empty" && (!w.wrote || w.atWrite != before+1) {
			t.Errorf("%s: 2xx counter read %d at the first body byte (wrote %v), want %d",
				c.endpoint, w.atWrite, w.wrote, before+1)
		}
		if w.status != 0 && w.status != http.StatusOK {
			t.Errorf("%s: status %d, want 200", c.endpoint, w.status)
		}
		if got := ok.Value(); got != before+1 {
			t.Errorf("%s: 2xx counter = %d after the request, want %d", c.endpoint, got, before+1)
		}
	}
}
