package pipeline

import (
	"io"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/obs"
	"tagsim/internal/trace"
)

// The columnar ground-truth log is the report log's sibling for GPS
// tracks: cmd/tagsim -truthlog streams every uploaded vantage fix into
// it as the campaign runs (TruthSink), and TruthReader streams the
// frames back one at a time. It is a collog.go log with magic
// "TAGGTC2\n" and these columns:
//
//	i64 t[count]          -- GroundTruth.T, unix nanos
//	i64 uploadedAt[count] -- GroundTruth.UploadedAt, unix nanos
//	u64 lat[count]        -- math.Float64bits
//	u64 lon[count]
//	u64 speedKmh[count]
//	strcol vantageID
//
// The time column leads each frame so a reader can take the instants
// without touching positions or strings. TAGGTC1, its predecessor,
// ended with a frame index and a seekable trailer that nothing read.
var truthLog = logCodec[trace.GroundTruth]{
	name:  "truth",
	magic: "TAGGTC2\n",
	fixed: 8 + 8 + 8 + 8 + 8,
	encode: func(p []byte, fs []trace.GroundTruth) []byte {
		for _, f := range fs {
			p = colfmt.AppendI64(p, f.T.UnixNano())
		}
		for _, f := range fs {
			p = colfmt.AppendI64(p, f.UploadedAt.UnixNano())
		}
		for _, f := range fs {
			p = colfmt.AppendF64(p, f.Pos.Lat)
		}
		for _, f := range fs {
			p = colfmt.AppendF64(p, f.Pos.Lon)
		}
		for _, f := range fs {
			p = colfmt.AppendF64(p, f.SpeedKmh)
		}
		for _, f := range fs {
			p = colfmt.AppendStr(p, f.VantageID)
		}
		return p
	},
	decode: func(d *colfmt.Dec, out []trace.GroundTruth) {
		for i := range out {
			out[i].T = time.Unix(0, d.I64()).UTC()
		}
		for i := range out {
			out[i].UploadedAt = time.Unix(0, d.I64()).UTC()
		}
		for i := range out {
			out[i].Pos.Lat = d.F64()
		}
		for i := range out {
			out[i].Pos.Lon = d.F64()
		}
		for i := range out {
			out[i].SpeedKmh = d.F64()
		}
		for i := range out {
			out[i].VantageID = d.Str()
		}
	},
}

// obsTruthLog counts the bytes of every truth log in the process; the
// series keeps its historical name, comparable across versions.
var obsTruthLog = obs.GetCounter("truth_spill_bytes_total")

// countingWriter adds every byte it passes on to obsTruthLog.
type countingWriter struct{ io.Writer }

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.Writer.Write(p)
	obsTruthLog.Add(uint64(n))
	return n, err
}

// TruthSink is the pipeline consumer streaming every world's ground
// truth to a columnar log as it is produced. Worlds stream sequentially
// through the merge, so a multi-world campaign's log is sorted within
// each world but not across worlds.
type TruthSink struct{ logWriter[trace.GroundTruth] }

// NewTruthSink builds the consumer.
func NewTruthSink(w io.Writer) *TruthSink {
	return &TruthSink{newLogWriter(&truthLog, countingWriter{w})}
}

// Consume implements Consumer.
func (s *TruthSink) Consume(b Batch) error { return s.append(b.Fixes) }

// Name labels this consumer in pipeline stats.
func (s *TruthSink) Name() string { return "truth" }

// TruthReader streams a columnar truth log back one frame at a time.
type TruthReader = logReader[trace.GroundTruth]

// NewTruthReader validates the magic and positions at the first frame.
func NewTruthReader(r io.Reader) (*TruthReader, error) { return openLog(&truthLog, r) }

// ReadAllTruth reads a whole columnar truth log from r.
func ReadAllTruth(r io.Reader) ([]trace.GroundTruth, error) { return readLog(&truthLog, r) }
