package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// equivRequests is the endpoint sweep the read-path modes must agree
// on, byte for byte: every endpoint, known/quiet/unknown tags, all
// vendor scopes, history limits through the interesting edges, and the
// error responses.
var equivRequests = []string{
	"/v1/lastknown?tag=airtag-1&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=airtag-1&vendor=Apple&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=airtag-1&vendor=Samsung&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=smarttag-1&vendor=Combined&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=airtag-quiet&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=ghost&now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=airtag-1&vendor=Nokia",
	"/v1/lastknown?now=2022-03-07T12:00:00Z",
	"/v1/lastknown?tag=airtag-1&now=yesterday",
	"/v1/history?tag=airtag-1",
	"/v1/history?tag=airtag-1&limit=0",
	"/v1/history?tag=airtag-1&limit=1",
	"/v1/history?tag=airtag-1&limit=3",
	"/v1/history?tag=airtag-1&limit=999",
	"/v1/history?tag=airtag-1&vendor=Apple&limit=2",
	"/v1/history?tag=airtag-quiet&limit=0",
	"/v1/history?tag=airtag-1&limit=-4",
	"/v1/history?tag=ghost",
	"/v1/track?tag=airtag-1&now=2022-03-07T12:00:00Z",
	"/v1/track?tag=smarttag-1&now=2022-03-07T12:00:00Z",
	"/v1/track?tag=airtag-quiet&now=2022-03-07T12:00:00Z",
	"/v1/track?tag=ghost",
	"/v1/stats",
}

// cacheCountersRe blanks /v1/stats' cache-effectiveness object before
// mode comparison: hit/miss/fill counts describe the read path itself,
// so they are the one part of a response that legitimately depends on
// which mode served it (and on how many queries ran before).
var cacheCountersRe = regexp.MustCompile(`"cache":\{[^}]*\}`)

func normalizeEquivBody(target, body string) string {
	if strings.HasPrefix(target, "/v1/stats") {
		return cacheCountersRe.ReplaceAllString(body, `"cache":{}`)
	}
	return body
}

// readModes are the read-path configurations the hot-tag cache switch
// selects between; responses must not depend on the choice.
var readModes = []struct {
	name   string
	cached bool
}{
	{"lockfree", false},
	{"lockfree+cache", true},
}

func equivServices(shards int) map[trace.Vendor]*cloud.Service {
	t0 := time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	pos := geo.LatLon{Lat: 24.45, Lon: 54.37}
	apple := cloud.NewServiceSharded(trace.VendorApple, shards)
	samsung := cloud.NewServiceSharded(trace.VendorSamsung, shards)
	for k := 0; k < 4; k++ {
		at := t0.Add(time.Duration(k) * 4 * time.Minute)
		apple.Ingest(trace.Report{T: at, HeardAt: at, TagID: "airtag-1", Vendor: trace.VendorApple,
			Pos: geo.Destination(pos, float64(k*20), float64(k*50))})
	}
	at := t0.Add(20 * time.Minute) // samsung holds the freshest fix
	samsung.Ingest(trace.Report{T: at, HeardAt: at, TagID: "airtag-1", Vendor: trace.VendorSamsung,
		Pos: geo.Destination(pos, 90, 500)})
	samsung.Ingest(trace.Report{T: t0, HeardAt: t0, TagID: "smarttag-1", Vendor: trace.VendorSamsung, Pos: pos})
	apple.Register("airtag-quiet")
	return map[trace.Vendor]*cloud.Service{trace.VendorApple: apple, trace.VendorSamsung: samsung}
}

// TestReadPathEquivalence is the hot-tag cache's acceptance property:
// the lock-free and lock-free+cached read paths produce byte-identical
// responses (status, body, content type) for every
// /v1/* request, at several shard counts, with live ingest racing the
// reads in between the comparison rounds. Run under -race in CI.
func TestReadPathEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		services := equivServices(shards)
		srv := NewServer(services)
		apple := services[trace.VendorApple]

		// Round 0: compare on the quiet fixture. Then race live ingest
		// against reads in every mode, quiesce, and compare again on the
		// mutated state (round 1).
		for round := 0; round < 2; round++ {
			if round == 1 {
				var stop atomic.Bool
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					t1 := time.Date(2022, 3, 8, 9, 0, 0, 0, time.UTC)
					for step := 0; step < 200; step++ {
						at := t1.Add(time.Duration(step*240) * time.Second)
						apple.Ingest(trace.Report{T: at, HeardAt: at, TagID: "airtag-1",
							Vendor: trace.VendorApple, Pos: geo.LatLon{Lat: float64(step), Lon: 1}})
					}
				}()
				var rg sync.WaitGroup
				for m := range readModes {
					rg.Add(1)
					go func(m int) {
						defer rg.Done()
						// Reads racing the writer exercise the mode's hot
						// path; responses are time-dependent here, so only
						// liveness (a valid status) is asserted.
						for !stop.Load() {
							for _, target := range equivRequests {
								rec := httptest.NewRecorder()
								srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
								if rec.Code == 0 {
									return
								}
							}
						}
					}(m)
				}
				wg.Wait()
				stop.Store(true)
				rg.Wait()
			}

			got := map[string][]string{}
			for _, mode := range readModes {
				wasCached := cloud.SetHotCache(mode.cached)
				for _, target := range equivRequests {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					key := fmt.Sprintf("%d %s %s", rec.Code, rec.Header().Get("Content-Type"),
						normalizeEquivBody(target, rec.Body.String()))
					got[target] = append(got[target], key)
				}
				cloud.SetHotCache(wasCached)
			}
			for _, target := range equivRequests {
				for m := 1; m < len(readModes); m++ {
					if got[target][m] != got[target][0] {
						t.Errorf("shards=%d round=%d %s: %s diverges from %s:\n  %q\n  %q",
							shards, round, target, readModes[m].name, readModes[0].name,
							got[target][m], got[target][0])
					}
				}
			}
		}
	}
}

// parseQueryCases pin the single-scan parser against the url.Values
// behavior the handlers used to rely on: escaped keys and values,
// first-occurrence-wins, skipped malformed pairs, and missing values.
var parseQueryCases = []struct {
	raw  string
	want queryParams
}{
	{"tag=airtag-1", queryParams{tag: "airtag-1"}},
	{"tag=a%20b&vendor=Apple", queryParams{tag: "a b", vendor: "Apple"}},
	{"tag=a+b", queryParams{tag: "a b"}},
	{"t%61g=x", queryParams{tag: "x"}},
	{"tag=first&tag=second", queryParams{tag: "first"}},
	{"limit=3&now=2022-03-07T12:00:00Z&tag=x&vendor=Samsung",
		queryParams{tag: "x", vendor: "Samsung", now: "2022-03-07T12:00:00Z", limit: "3"}},
	{"tag", queryParams{tag: ""}},
	{"tag=", queryParams{tag: ""}},
	{"tag=%zz&vendor=Apple", queryParams{vendor: "Apple"}}, // bad escape: pair skipped
	{"&&tag=x&", queryParams{tag: "x"}},
	{"other=1&tag=x", queryParams{tag: "x"}},
	{"tag=a;b", queryParams{}}, // semicolon: pair skipped
	{"tag=a;b&tag=c&x;=1&vendor=Apple", queryParams{tag: "c", vendor: "Apple"}},
}

// TestPreparsedQueryParams runs the pinned parseQuery cases.
func TestPreparsedQueryParams(t *testing.T) {
	for _, c := range parseQueryCases {
		if got := parseQuery(c.raw); got != c.want {
			t.Errorf("parseQuery(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

// FuzzParseQuery holds parseQuery to url.ParseQuery followed by Get for
// each of the four parameters the handlers read.
func FuzzParseQuery(f *testing.F) {
	for _, c := range parseQueryCases {
		f.Add(c.raw)
	}
	f.Add("tag=%3B&vendor=a%26b&now=%&limit=1;")
	f.Add("vendor=Apple=x&now&limit=%2B+&t%ZZg=1")
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
		want := queryParams{tag: vals.Get("tag"), vendor: vals.Get("vendor"), now: vals.Get("now"), limit: vals.Get("limit")}
		if got := parseQuery(raw); got != want {
			t.Fatalf("parseQuery(%q) = %+v, url.ParseQuery gives %+v", raw, got, want)
		}
	})
}

// TestPooledResponsesAreIsolated: pooled encode buffers must never leak
// one response's bytes into another — hammer mixed-size responses
// concurrently and verify every body parses as the right shape.
func TestPooledResponsesAreIsolated(t *testing.T) {
	srv := NewServer(equivServices(4))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				target := equivRequests[(i+w)%len(equivRequests)]
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
				if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(rec.Body.Len()) {
					t.Errorf("%s: Content-Length %s != body %d", target, cl, rec.Body.Len())
					return
				}
				if rec.Code == http.StatusOK && rec.Body.Len() == 0 {
					t.Errorf("%s: empty 200 body", target)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
