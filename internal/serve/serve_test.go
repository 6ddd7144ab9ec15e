package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

var (
	t0  = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	pos = geo.LatLon{Lat: 24.45, Lon: 54.37}
)

func report(at time.Time, v trace.Vendor, tagID string, p geo.LatLon) trace.Report {
	return trace.Report{T: at, HeardAt: at, TagID: tagID, Vendor: v, Pos: p, ReporterID: "dev-1"}
}

// fixture: apple has two spaced reports for airtag-1, samsung one fresher
// report for the same tag plus its own smarttag-1.
func fixture() (map[trace.Vendor]*cloud.Service, *httptest.Server) {
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	apple.Ingest(report(t0, trace.VendorApple, "airtag-1", pos))
	apple.Ingest(report(t0.Add(10*time.Minute), trace.VendorApple, "airtag-1", geo.Destination(pos, 90, 300)))
	samsung.Ingest(report(t0.Add(20*time.Minute), trace.VendorSamsung, "airtag-1", geo.Destination(pos, 180, 500)))
	samsung.Ingest(report(t0, trace.VendorSamsung, "smarttag-1", pos))
	apple.Register("airtag-quiet") // paired, never reported
	services := map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	}
	return services, httptest.NewServer(NewServer(services))
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestLastKnownPerVendorAndCombined(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()

	var lk LastKnownResponse
	now := t0.Add(25 * time.Minute).Format(time.RFC3339)
	if code := getJSON(t, ts.URL+"/v1/lastknown?vendor=Apple&tag=airtag-1&now="+now, &lk); code != 200 {
		t.Fatalf("status %d", code)
	}
	if !lk.Found || lk.Vendor != "Apple" || !lk.SeenAt.Equal(t0.Add(10*time.Minute)) || lk.AgeMinutes != 15 {
		t.Errorf("apple lastknown = %+v", lk)
	}
	// Combined view picks the freshest fix across vendors (samsung's).
	if getJSON(t, ts.URL+"/v1/lastknown?vendor=Combined&tag=airtag-1&now="+now, &lk); !lk.SeenAt.Equal(t0.Add(20 * time.Minute)) {
		t.Errorf("combined lastknown seen_at = %v, want samsung's fresher fix", lk.SeenAt)
	}
	if lk.AgeMinutes != 5 {
		t.Errorf("combined age = %d, want 5", lk.AgeMinutes)
	}
	// Registered but report-less tag: 200 with the app's "no location
	// found" (the companion app's own answer for a silent paired tag).
	if code := getJSON(t, ts.URL+"/v1/lastknown?vendor=Apple&tag=airtag-quiet", &lk); code != 200 || lk.Found {
		t.Errorf("report-less tag: code %d found %v", code, lk.Found)
	}
}

func TestHistoryEndpoint(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()

	var h HistoryResponse
	if code := getJSON(t, ts.URL+"/v1/history?vendor=Apple&tag=airtag-1", &h); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(h.Reports) != 2 || !h.Reports[0].T.Before(h.Reports[1].T) {
		t.Errorf("apple history = %d reports", len(h.Reports))
	}
	// Combined merges and time-sorts across vendors.
	if getJSON(t, ts.URL+"/v1/history?tag=airtag-1", &h); len(h.Reports) != 3 {
		t.Errorf("combined history = %d reports, want 3", len(h.Reports))
	}
	for i := 1; i < len(h.Reports); i++ {
		if h.Reports[i].T.Before(h.Reports[i-1].T) {
			t.Error("combined history not time-sorted")
		}
	}
	// limit keeps the newest n.
	if getJSON(t, ts.URL+"/v1/history?tag=airtag-1&limit=1", &h); len(h.Reports) != 1 || !h.Reports[0].T.Equal(t0.Add(20*time.Minute)) {
		t.Errorf("limited history = %+v", h.Reports)
	}
}

func TestTrackEndpoint(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()

	var tr TrackResponse
	now := t0.Add(30 * time.Minute).Format(time.RFC3339)
	if code := getJSON(t, ts.URL+"/v1/track?tag=airtag-1&now="+now, &tr); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(tr.Track) != 3 {
		t.Fatalf("track has %d points, want 3", len(tr.Track))
	}
	if tr.Track[0].Vendor != "Apple" || tr.Track[2].Vendor != "Samsung" {
		t.Errorf("track vendor order = %s..%s", tr.Track[0].Vendor, tr.Track[2].Vendor)
	}
	if !tr.Last.Found || tr.Last.AgeMinutes != 10 {
		t.Errorf("track last = %+v", tr.Last)
	}
	// A paired tag with no reports answers an empty track, not null.
	resp, err := http.Get(ts.URL + "/v1/track?tag=airtag-quiet&now=" + now)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); !bytes.HasSuffix(body, []byte(`,"track":[]}`+"\n")) {
		t.Errorf("quiet tag track = %q, want an empty track", body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()

	var st StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(st.Vendors) != 2 || st.Vendors[0].Vendor != "Apple" || st.Vendors[1].Vendor != "Samsung" {
		t.Fatalf("stats vendors = %+v", st.Vendors)
	}
	if st.Vendors[0].Accepted != 2 || st.Vendors[0].Tags != 2 { // airtag-1 + the paired-but-quiet tag
		t.Errorf("apple stats = %+v", st.Vendors[0])
	}
	if st.Vendors[1].Accepted != 2 || st.Vendors[1].Tags != 2 {
		t.Errorf("samsung stats = %+v", st.Vendors[1])
	}
}

func TestReportIngestEndpoint(t *testing.T) {
	services, ts := fixture()
	defer ts.Close()

	post := func(rep trace.Report) (int, IngestResponse) {
		body, _ := json.Marshal(rep)
		resp, err := http.Post(ts.URL+"/v1/report", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ir IngestResponse
		_ = json.NewDecoder(resp.Body).Decode(&ir)
		return resp.StatusCode, ir
	}
	// A fresh report past the cap is accepted and visible immediately.
	code, ir := post(report(t0.Add(time.Hour), trace.VendorApple, "airtag-1", geo.Destination(pos, 45, 800)))
	if code != 200 || !ir.Accepted {
		t.Fatalf("fresh report: code %d accepted %v", code, ir.Accepted)
	}
	if _, at, _ := services[trace.VendorApple].LastSeen("airtag-1"); !at.Equal(t0.Add(time.Hour)) {
		t.Error("ingested report not visible in the store")
	}
	// Inside the rate cap: rejected but 200 (the cloud answered).
	if code, ir = post(report(t0.Add(time.Hour+time.Minute), trace.VendorApple, "airtag-1", pos)); code != 200 || ir.Accepted {
		t.Errorf("capped report: code %d accepted %v", code, ir.Accepted)
	}
	// No service for the vendor.
	if code, _ = post(report(t0, trace.VendorOther, "x", pos)); code != http.StatusNotFound {
		t.Errorf("vendorless report: code %d, want 404", code)
	}
	// A report with no vendor key must be rejected, not routed to the
	// zero vendor (Apple).
	appleAcc, _ := services[trace.VendorApple].Stats()
	resp, err := http.Post(ts.URL+"/v1/report", "application/json",
		strings.NewReader(`{"tag_id":"airtag-1","t":"2022-03-07T12:00:00Z"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("vendor-free report: code %d, want 400", resp.StatusCode)
	}
	if acc, _ := services[trace.VendorApple].Stats(); acc != appleAcc {
		t.Error("vendor-free report leaked into the Apple store")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	for _, url := range []string{
		"/v1/lastknown",                               // missing tag
		"/v1/lastknown?tag=x&vendor=Nope",             // unknown vendor
		"/v1/lastknown?tag=x&vendor=Apple&now=gibber", // bad now
		"/v1/history?tag=x&limit=-1",                  // bad limit
		"/v1/history?tag=x&limit=two",                 // bad limit
		"/v1/history?tag=x&limit=5abc",                // bad limit (trailing garbage)
		"/v1/track",                                   // missing tag
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+url, &e); code != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: code %d error %q, want 400 with message", url, code, e.Error)
		}
	}
	// Vendor without a backing service is 404.
	var e struct{ Error string }
	if code := getJSON(t, ts.URL+"/v1/lastknown?tag=x&vendor=Other", &e); code != http.StatusNotFound {
		t.Errorf("missing service: code %d, want 404", code)
	}
}

// TestUnknownTagIs404: a tag no backing service has ever heard of is a
// 404 on every tag-scoped endpoint, with a JSON error envelope — while
// malformed parameters stay 400 even when the tag is also unknown
// (request validity is judged before existence).
func TestUnknownTagIs404(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	for _, url := range []string{
		"/v1/lastknown?tag=ghost",
		"/v1/lastknown?tag=ghost&vendor=Apple",
		"/v1/history?tag=ghost",
		"/v1/history?tag=ghost&vendor=Samsung&limit=5",
		"/v1/track?tag=ghost",
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+url, &e); code != http.StatusNotFound || e.Error == "" {
			t.Errorf("%s: code %d error %q, want 404 with message", url, code, e.Error)
		}
	}
	// Malformed parameters outrank the unknown tag.
	for _, url := range []string{
		"/v1/lastknown?tag=ghost&vendor=Nope",
		"/v1/lastknown?tag=ghost&now=gibber",
		"/v1/history?tag=ghost&limit=-1",
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+url, &e); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", url, code)
		}
	}
}

// TestMalformedReportBodies pins the POST /v1/report 400 paths: bodies
// that do not parse, or parse but miss required fields, must never
// touch a store.
func TestMalformedReportBodies(t *testing.T) {
	services, ts := fixture()
	defer ts.Close()
	before := func() (a, s uint64) {
		a, _ = services[trace.VendorApple].Stats()
		s, _ = services[trace.VendorSamsung].Stats()
		return a, s
	}
	appleAcc, samsungAcc := before()
	for _, body := range []string{
		"",                                      // empty
		"{",                                     // truncated JSON
		"not json at all",                       // garbage
		`[]`,                                    // wrong JSON shape
		`{"vendor":"Apple"}`,                    // missing tag_id
		`{"tag_id":"airtag-1"}`,                 // missing vendor
		`{"tag_id":"airtag-1","vendor":"Nope"}`, // unparseable vendor name
	} {
		resp, err := http.Post(ts.URL+"/v1/report", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("body %q: code %d error %q, want 400 with message", body, resp.StatusCode, e.Error)
		}
	}
	if a, s := before(); a != appleAcc || s != samsungAcc {
		t.Error("malformed report bodies leaked into a store")
	}
}

// TestMethodNotAllowed: the method-scoped mux patterns must answer 405
// for the wrong verb on every route.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := fixture()
	defer ts.Close()
	post := func(url string) int {
		resp, err := http.Post(ts.URL+url, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, url := range []string{"/v1/lastknown?tag=airtag-1", "/v1/history?tag=airtag-1", "/v1/track?tag=airtag-1", "/v1/stats"} {
		if code := post(url); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: code %d, want 405", url, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/report: code %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentQueriesDuringIngest hammers every endpoint while a
// writer keeps ingesting — the serving path must stay race-free (run
// under -race in CI) and every response well-formed.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	services, ts := fixture()
	defer ts.Close()
	// Bound the history the tight-loop writer grows, or the track/history
	// copies the readers take become quadratically slow.
	services[trace.VendorApple].HistoryLimit = 128
	services[trace.VendorSamsung].HistoryLimit = 128

	done := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() { // writer: keeps the apple store churning
		defer writerWg.Done()
		svc := services[trace.VendorApple]
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
				svc.Ingest(report(t0.Add(time.Duration(i)*4*time.Minute), trace.VendorApple, "airtag-1", pos))
			}
		}
	}()
	paths := []string{
		"/v1/lastknown?vendor=Apple&tag=airtag-1",
		"/v1/history?tag=airtag-1",
		"/v1/track?tag=airtag-1",
		"/v1/stats",
	}
	var readerWg sync.WaitGroup
	for w := 0; w < 4; w++ {
		readerWg.Add(1)
		go func(w int) {
			defer readerWg.Done()
			for i := 0; i < 50; i++ {
				url := ts.URL + paths[(w+i)%len(paths)]
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
				if resp.StatusCode != 200 {
					t.Errorf("%s: status %d", fmt.Sprintf("reader %d", w), resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	readerWg.Wait()
	close(done)
	writerWg.Wait()
}
