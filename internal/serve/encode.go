package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// The hot /v1/* responses (last-known, history, track, ingest) are
// appended to a []byte by hand instead of going through encoding/json's
// reflection and its re-scan of every MarshalJSON output. Each append
// encoder writes exactly the bytes json.NewEncoder(w).Encode writes for
// the documented response type, trailing newline included; the property
// and fuzz tests hold them to that with encoding/json as the oracle.

// respBuf is a pooled response-encode buffer. Any buffer that grew past
// maxPooledBuf (an unbounded-history response) is dropped rather than
// pinned in the pool.
type respBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(respBuf) }}

const maxPooledBuf = 1 << 18

// writeJSON answers status with v appended by enc into a pooled buffer.
// A value enc cannot encode (a NaN, a time outside RFC 3339) answers
// 500 with the error envelope instead of a truncated or empty 200.
func writeJSON[T any](w http.ResponseWriter, status int, v T, enc func([]byte, T) ([]byte, error)) {
	buf := bufPool.Get().(*respBuf)
	b, err := enc(buf.b[:0], v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = appendReflect(b[:0], errorResponse{Error: "encode response: " + err.Error()})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBuf {
		buf.b = b
		bufPool.Put(buf)
	}
}

// writeReflect answers status with v encoded by encoding/json: the cold
// path, for /v1/stats, /debug/traces and the error envelope.
func writeReflect(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v, appendReflect)
}

func appendReflect(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// appendLastKnown encodes a LastKnownResponse.
func appendLastKnown(b []byte, r LastKnownResponse) ([]byte, error) {
	b, err := appendLastKnownObject(b, &r)
	return append(b, '\n'), err
}

// appendHistory encodes a HistoryResponse.
func appendHistory(b []byte, r HistoryResponse) ([]byte, error) {
	b = append(b, `{"tag_id":`...)
	b = appendString(b, r.TagID)
	b = append(b, `,"vendor":`...)
	b = appendString(b, r.Vendor)
	b = append(b, `,"reports":`...)
	if r.Reports == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Reports {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendReport(b, &r.Reports[i]); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// trackReply is a TrackResponse whose track is still the merged
// reports, so /v1/track encodes them without building a []TrackPoint.
type trackReply struct {
	TagID string
	Last  LastKnownResponse
	Track []trace.Report // nil encodes as null
}

// appendTrack encodes a trackReply as the TrackResponse it stands for:
// each report becomes the TrackPoint {T, Pos, Vendor.String()}.
func appendTrack(b []byte, r trackReply) ([]byte, error) {
	b = append(b, `{"tag_id":`...)
	b = appendString(b, r.TagID)
	b = append(b, `,"last":`...)
	b, err := appendLastKnownObject(b, &r.Last)
	if err != nil {
		return b, err
	}
	b = append(b, `,"track":`...)
	if r.Track == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Track {
			rep := &r.Track[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"t":`...)
			if b, err = appendTime(b, rep.T); err != nil {
				return b, err
			}
			b = append(b, `,"pos":`...)
			if b, err = appendLatLon(b, rep.Pos); err != nil {
				return b, err
			}
			b = append(b, `,"vendor":`...)
			b = appendString(b, rep.Vendor.String())
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendIngest encodes an IngestResponse.
func appendIngest(b []byte, r IngestResponse) ([]byte, error) {
	if r.Accepted {
		return append(b, "{\"accepted\":true}\n"...), nil
	}
	return append(b, "{\"accepted\":false}\n"...), nil
}

func appendLastKnownObject(b []byte, r *LastKnownResponse) ([]byte, error) {
	var err error
	b = append(b, `{"tag_id":`...)
	b = appendString(b, r.TagID)
	b = append(b, `,"vendor":`...)
	b = appendString(b, r.Vendor)
	b = append(b, `,"found":`...)
	b = strconv.AppendBool(b, r.Found)
	if !r.Pos.IsZero() {
		b = append(b, `,"pos":`...)
		if b, err = appendLatLon(b, r.Pos); err != nil {
			return b, err
		}
	}
	if !r.SeenAt.IsZero() {
		b = append(b, `,"seen_at":`...)
		if b, err = appendTime(b, r.SeenAt); err != nil {
			return b, err
		}
	}
	b = append(b, `,"age_minutes":`...)
	b = strconv.AppendInt(b, int64(r.AgeMinutes), 10)
	return append(b, '}'), nil
}

func appendReport(b []byte, r *trace.Report) ([]byte, error) {
	var err error
	b = append(b, `{"t":`...)
	if b, err = appendTime(b, r.T); err != nil {
		return b, err
	}
	b = append(b, `,"heard_at":`...)
	if b, err = appendTime(b, r.HeardAt); err != nil {
		return b, err
	}
	b = append(b, `,"tag_id":`...)
	b = appendString(b, r.TagID)
	b = append(b, `,"vendor":`...)
	b = appendString(b, r.Vendor.String())
	b = append(b, `,"reporter_id":`...)
	b = appendString(b, r.ReporterID)
	b = append(b, `,"pos":`...)
	if b, err = appendLatLon(b, r.Pos); err != nil {
		return b, err
	}
	b = append(b, `,"rssi":`...)
	if b, err = appendFloat(b, r.RSSI); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendLatLon writes the untagged struct's field names as keys.
func appendLatLon(b []byte, p geo.LatLon) ([]byte, error) {
	var err error
	b = append(b, `{"Lat":`...)
	if b, err = appendFloat(b, p.Lat); err != nil {
		return b, err
	}
	b = append(b, `,"Lon":`...)
	if b, err = appendFloat(b, p.Lon); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendTime writes t quoted, as time.Time.MarshalJSON does: RFC 3339
// with nanoseconds, failing on a year outside [0, 9999] or a zone
// offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	b, err := t.AppendText(b)
	return append(b, '"'), err
}

// appendFloat follows encoding/json's float64 rule: the shortest 'f'
// form, switching to 'e' outside [1e-6, 1e21) with the exponent's
// leading zero cut (e-07 → e-7). NaN and ±Inf are errors.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped with
// encoding/json's HTML escaping on: everything printable but '"', '\\',
// '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string exactly as json.Encoder does
// with HTML escaping on: '"' and '\\' backslashed; \b \f \n \r \t by
// name; other control bytes and <, >, & as \u00XX; U+2028 and U+2029
// as \u2028 and \u2029; each invalid UTF-8 byte as the six bytes
// \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
