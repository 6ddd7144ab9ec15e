package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// encodeCase is one set of inputs the four append encoders are checked
// on: a last-known answer, a report list (nil and empty both kept) and
// an ingest flag.
type encodeCase struct {
	last     LastKnownResponse
	reports  []trace.Report
	accepted bool
}

// checkAppenders requires each append encoder to write exactly what
// json.NewEncoder(w).Encode writes for the documented response type,
// and to fail exactly when encoding/json fails.
func checkAppenders(t *testing.T, c encodeCase) {
	t.Helper()
	var points []TrackPoint
	if c.reports != nil {
		points = make([]TrackPoint, 0, len(c.reports))
		for _, r := range c.reports {
			points = append(points, TrackPoint{T: r.T, Pos: r.Pos, Vendor: r.Vendor.String()})
		}
	}
	sameBytes(t, "lastknown", c.last, c.last, appendLastKnown)
	hist := HistoryResponse{TagID: c.last.TagID, Vendor: c.last.Vendor, Reports: c.reports}
	sameBytes(t, "history", hist, hist, appendHistory)
	sameBytes(t, "track", TrackResponse{TagID: c.last.TagID, Last: c.last, Track: points},
		trackReply{TagID: c.last.TagID, Last: c.last, Track: c.reports}, appendTrack)
	sameBytes(t, "ingest", IngestResponse{Accepted: c.accepted}, IngestResponse{Accepted: c.accepted}, appendIngest)
}

func sameBytes[T any](t *testing.T, name string, oracle any, v T, enc func([]byte, T) ([]byte, error)) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(oracle)
	const prefix = "kept"
	got, err := enc([]byte(prefix), v)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: append error %v, encoding/json error %v", name, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte(prefix)) || string(got[len(prefix):]) != want.String() {
		t.Fatalf("%s: append encoder wrote\n  %q\nencoding/json wrote\n  %q", name, got, prefix+want.String())
	}
}

// Pieces the random strings are built from: HTML-escaped bytes, control
// characters, quotes, the JSONP separators, multi-byte runes and
// invalid UTF-8 (lone continuation bytes, a truncated sequence).
var stringPieces = []string{
	"airtag-", "a", "<", ">", "&", "\"", "\\", "/", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t",
	"\x1f", "\x7f", "\u00fc", "\u65e5\u672c", "\U0001F600", "\u2028", "\u2029", "\u2027", "\xff", "\xfe",
	"\x80", "\xe2\x80", "\xed\xa0\x80", "\ufffd",
}

// Floats at the edges of encoding/json's format switch, the zeros and
// the unencodable values.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 24.45, -75.5, 1e-6, -1e-6, math.Nextafter(1e-6, 0),
	1e-7, 1e21, -1e21, math.Nextafter(1e21, 0), 1e20, 1e-320, math.SmallestNonzeroFloat64,
	math.MaxFloat64, 123456789.125, 5e-324, 1.5e300, 0.1 + 0.2,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

var zones = []*time.Location{
	time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("", -8*3600),
	time.FixedZone("odd", -(3*3600 + 25*60 + 7)), time.FixedZone("far", 23*3600+59*60),
	time.FixedZone("bad", 24*3600),
}

func randString(r *rand.Rand) string {
	var b strings.Builder
	for n := r.IntN(5); n > 0; n-- {
		b.WriteString(stringPieces[r.IntN(len(stringPieces))])
	}
	return b.String()
}

func randFloat(r *rand.Rand) float64 {
	switch r.IntN(4) {
	case 0:
		return floatEdges[r.IntN(len(floatEdges))]
	case 1:
		return math.Float64frombits(r.Uint64())
	default:
		return (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(50)-25))
	}
}

func randTime(r *rand.Rand) time.Time {
	switch r.IntN(8) {
	case 0:
		return time.Time{}
	case 1: // around the edges of RFC 3339's four-digit years
		sec := []int64{-62167219200, -62167219201, 253402300799, 253402300800}[r.IntN(4)]
		return time.Unix(sec, r.Int64N(1e9)).In(zones[r.IntN(len(zones))])
	}
	t := time.Unix(1.6e9+r.Int64N(1e8), 0)
	if r.IntN(2) == 0 {
		t = t.Add(time.Duration(r.Int64N(1e9)))
	}
	return t.In(zones[r.IntN(len(zones))])
}

func randCase(r *rand.Rand) encodeCase {
	c := encodeCase{accepted: r.IntN(2) == 0}
	c.last = LastKnownResponse{
		TagID: randString(r), Vendor: randString(r), Found: r.IntN(2) == 0,
		SeenAt: randTime(r), AgeMinutes: r.IntN(2000) - 1000,
	}
	if r.IntN(3) > 0 {
		c.last.Pos = geo.LatLon{Lat: randFloat(r), Lon: randFloat(r)}
	}
	switch n := r.IntN(6); n {
	case 0: // nil stays nil
	default:
		c.reports = make([]trace.Report, n-1)
		for i := range c.reports {
			c.reports[i] = trace.Report{
				T: randTime(r), HeardAt: randTime(r), TagID: randString(r),
				Vendor: trace.Vendor(r.IntN(5)), ReporterID: randString(r),
				Pos: geo.LatLon{Lat: randFloat(r), Lon: randFloat(r)}, RSSI: randFloat(r),
			}
		}
	}
	return c
}

// TestAppendersMatchEncodingJSON is the encoders' property test: on
// random responses drawn from the edge pieces above, every append
// encoder's bytes equal encoding/json's, and it fails exactly when
// encoding/json does.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewPCG(36, 1))
	n := 4000
	if testing.Short() {
		n = 1000
	}
	for i := 0; i < n; i++ {
		checkAppenders(t, randCase(r))
	}
}

// FuzzAppendJSON drives the same check from the fuzzer: the strings
// become the tag and reporter IDs and the vendor label, the floats the
// position and RSSI, sec/nsec/zone the times, and n picks a nil (0),
// empty (1) or n-1 report list.
func FuzzAppendJSON(f *testing.F) {
	neg0 := math.Copysign(0, -1)
	f.Add("airtag-1", "dev-1", "Apple", 24.45, 54.37, -75.5, int64(1646643600), int64(0), 0, uint8(3), true)
	f.Add("\u00fc<tag>&\u2028\u2029\x00\x1f\b\f\n\r\t\"\\", "\x00\x1f\b\f\n\r\t\"\\", "Combined", 0.0, neg0, neg0, int64(0), int64(0), 0, uint8(2), false)
	f.Add("bad\xff\xfe\xe2\x80utf8", "\u65e5\u672c\U0001F600", "Samsung", 1e-6, math.Nextafter(1e-6, 0), 1e-7, int64(1646643600), int64(123456789), 19800, uint8(1), true)
	f.Add("huge", "tiny", "", 1e21, math.Nextafter(1e21, 0), -1e21, int64(-1), int64(999999999), -28800, uint8(0), false)
	f.Add("range", "year", "x", 5e-324, math.MaxFloat64, 1e-320, int64(253402300800), int64(0), 0, uint8(2), true)
	f.Add("zone", "hour", "x", 1.0, 2.0, 3.0, int64(1646643600), int64(0), 24*3600, uint8(2), true)
	f.Add("nan", "inf", "x", math.NaN(), math.Inf(1), math.Inf(-1), int64(1646643600), int64(0), 0, uint8(5), false)
	f.Fuzz(func(t *testing.T, tag, reporter, vendor string, lat, lon, rssi float64, sec, nsec int64, zone int, n uint8, flag bool) {
		at := time.Time{} // sec == 0 stands for the zero time under omitzero
		if sec != 0 {
			at = time.Unix(sec, nsec).In(time.FixedZone("z", zone))
		}
		c := encodeCase{accepted: flag, last: LastKnownResponse{
			TagID: tag, Vendor: vendor, Found: flag, Pos: geo.LatLon{Lat: lat, Lon: lon},
			SeenAt: at, AgeMinutes: int(nsec % 100000),
		}}
		if n > 0 {
			c.reports = make([]trace.Report, int(n-1)%8)
			for i := range c.reports {
				c.reports[i] = trace.Report{
					T: at.Add(time.Duration(i) * 37 * time.Second), HeardAt: at, TagID: tag,
					Vendor: trace.Vendor(int(n) + i), ReporterID: reporter + strconv.Itoa(i),
					Pos: geo.LatLon{Lat: lon, Lon: lat * float64(i)}, RSSI: rssi,
				}
			}
		}
		checkAppenders(t, c)
	})
}

// TestAppendTrackAllocs: encoding a 100-point track (and a 100-report
// history) into a warmed buffer allocates nothing.
func TestAppendTrackAllocs(t *testing.T) {
	reports := make([]trace.Report, 100)
	for i := range reports {
		at := t0.Add(time.Duration(i) * 4 * time.Minute)
		reports[i] = trace.Report{T: at, HeardAt: at, TagID: "airtag-1", Vendor: trace.Vendor(i % 2),
			ReporterID: "dev-" + strconv.Itoa(i), Pos: geo.Destination(pos, float64(i), 40), RSSI: -60 - float64(i)/7}
	}
	last := lastKnownAt("Combined", "airtag-1", pos, reports[99].T, true, reports[99].T.Add(time.Hour))
	track := trackReply{TagID: "airtag-1", Last: last, Track: reports}
	hist := HistoryResponse{TagID: "airtag-1", Vendor: "Combined", Reports: reports}
	buf := make([]byte, 0, 64<<10)
	if b, err := appendHistory(buf, hist); err != nil || len(b) > cap(buf) {
		t.Fatalf("warm-up: %d bytes, %v", len(b), err)
	}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"track", func() { buf, _ = appendTrack(buf[:0], track) }},
		{"history", func() { buf, _ = appendHistory(buf[:0], hist) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
			t.Errorf("%s: %v allocations per encode, want 0", c.name, allocs)
		}
	}
}

// TestUnencodableAnswers500: Restore (and campaign mode) bypass JSON,
// so a store can hold a NaN RSSI or a time past year 9999. Such a
// response answers 500 with the error envelope, not an empty 200. A
// track carries no RSSI, so the NaN tag's track still answers 200.
func TestUnencodableAnswers500(t *testing.T) {
	apple := cloud.NewService(trace.VendorApple)
	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	apple.Restore([]trace.Report{
		{T: t0, HeardAt: t0, TagID: "nan-rssi", Vendor: trace.VendorApple, Pos: pos, RSSI: math.NaN()},
		{T: far, HeardAt: far, TagID: "year-10000", Vendor: trace.VendorApple, Pos: pos},
	})
	srv := NewServer(map[trace.Vendor]*cloud.Service{trace.VendorApple: apple})
	for _, c := range []struct {
		target string
		code   int
	}{
		{"/v1/history?tag=nan-rssi", http.StatusInternalServerError},
		{"/v1/history?tag=nan-rssi&vendor=Apple", http.StatusInternalServerError},
		{"/v1/track?tag=nan-rssi", http.StatusOK},
		{"/v1/history?tag=year-10000", http.StatusInternalServerError},
		{"/v1/track?tag=year-10000", http.StatusInternalServerError},
		{"/v1/lastknown?tag=year-10000", http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", c.target, nil))
		if rec.Code != c.code {
			t.Errorf("%s: code %d, want %d (body %q)", c.target, rec.Code, c.code, rec.Body)
			continue
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) || rec.Body.Len() == 0 {
			t.Errorf("%s: Content-Length %s, body %d bytes", c.target, cl, rec.Body.Len())
		}
		if c.code != http.StatusOK {
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: body %q is not the error envelope (%v)", c.target, rec.Body, err)
			}
		}
	}
}
