package pipeline

import (
	"io"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/trace"
)

// The columnar report log replaces full in-memory trace retention for
// large worlds: the pipeline streams accepted reports to disk as they
// happen, and readers stream them back one frame at a time, never
// holding the whole log. It is a collog.go log with magic "TAGRPT1\n"
// and these columns:
//
//	i64 t[count]        -- Report.T, unix nanos
//	i64 heardAt[count]  -- Report.HeardAt, unix nanos
//	u64 lat[count]      -- math.Float64bits
//	u64 lon[count]
//	u64 rssi[count]
//	u8  vendor[count]
//	strcol tagID
//	strcol reporterID
//	strcol := (u32 len | bytes)*count
//
// The column-per-field layout mirrors the analysis index's int64-nano
// time columns, so a future reader can scan one column without decoding
// the rest; the frame length prefix lets readers skip frames wholesale.
var reportLog = logCodec[trace.Report]{
	name:  "report",
	magic: "TAGRPT1\n",
	fixed: 8 + 8 + 8 + 8 + 8 + 1,
	encode: func(p []byte, rs []trace.Report) []byte {
		for _, r := range rs {
			p = colfmt.AppendI64(p, r.T.UnixNano())
		}
		for _, r := range rs {
			p = colfmt.AppendI64(p, r.HeardAt.UnixNano())
		}
		for _, r := range rs {
			p = colfmt.AppendF64(p, r.Pos.Lat)
		}
		for _, r := range rs {
			p = colfmt.AppendF64(p, r.Pos.Lon)
		}
		for _, r := range rs {
			p = colfmt.AppendF64(p, r.RSSI)
		}
		for _, r := range rs {
			p = append(p, byte(r.Vendor))
		}
		for _, r := range rs {
			p = colfmt.AppendStr(p, r.TagID)
		}
		for _, r := range rs {
			p = colfmt.AppendStr(p, r.ReporterID)
		}
		return p
	},
	decode: func(d *colfmt.Dec, out []trace.Report) {
		for i := range out {
			out[i].T = time.Unix(0, d.I64()).UTC()
		}
		for i := range out {
			out[i].HeardAt = time.Unix(0, d.I64()).UTC()
		}
		for i := range out {
			out[i].Pos.Lat = d.F64()
		}
		for i := range out {
			out[i].Pos.Lon = d.F64()
		}
		for i := range out {
			out[i].RSSI = d.F64()
		}
		for i := range out {
			out[i].Vendor = trace.Vendor(d.U8())
		}
		for i := range out {
			out[i].TagID = d.Str()
		}
		for i := range out {
			out[i].ReporterID = d.Str()
		}
	},
}

// ReportReader streams a columnar report log back one frame at a time.
type ReportReader = logReader[trace.Report]

// NewReportReader validates the magic and positions at the first frame.
func NewReportReader(r io.Reader) (*ReportReader, error) { return openLog(&reportLog, r) }

// ReadReports reads a whole columnar report log from r.
func ReadReports(r io.Reader) ([]trace.Report, error) { return readLog(&reportLog, r) }

// ReportSink is the pipeline consumer streaming the merged report log
// to disk. It re-frames the stream every DefaultSinkFlush reports, so
// the file bytes depend only on the (deterministic) report sequence —
// never on how the worlds happened to batch their emissions.
type ReportSink struct{ logWriter[trace.Report] }

// NewReportSink builds the consumer.
func NewReportSink(w io.Writer) *ReportSink {
	return &ReportSink{newLogWriter(&reportLog, w)}
}

// Consume implements Consumer.
func (s *ReportSink) Consume(b Batch) error { return s.append(b.Reports) }

// Name labels this consumer in pipeline stats.
func (s *ReportSink) Name() string { return "disk" }
