package pipeline

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/obs"
	"tagsim/internal/trace"
)

// The columnar ground-truth log is the report log's sibling for GPS
// tracks: cmd/tagsim -truthlog streams every uploaded vantage fix into
// it as the campaign runs (TruthSink), and TruthReader streams the
// frames back one at a time.
//
// Layout (little-endian throughout):
//
//	file  := magic dataFrame* indexBlock trailer
//	magic := "TAGGTC1\n" (8 bytes)
//	dataFrame := u32 payloadBytes | payload        -- length-prefixed
//	payload :=
//	    u32 count
//	    i64 t[count]          -- GroundTruth.T, unix nanos
//	    i64 uploadedAt[count] -- GroundTruth.UploadedAt, unix nanos
//	    u64 lat[count]        -- math.Float64bits
//	    u64 lon[count]
//	    u64 speedKmh[count]
//	    strcol vantageID
//	strcol := (u32 len | bytes)*count
//	indexBlock := u32 0xFFFFFFFF | u32 payloadBytes | payload
//	index payload := u32 frameCount | (u64 offset | u32 count | i64 firstT | i64 lastT)*frameCount
//	trailer := u64 indexOffset | "TAGGTCX\n" (8 bytes)
//
// The time column leads each frame so a reader can take the instants
// without touching positions or strings. Streaming readers stop at the
// index sentinel — 0xFFFFFFFF can never be a data frame's length (it
// exceeds maxFrameBytes) — while the fixed-size trailer locates the
// frame index for a seekable reader.
const (
	truthLogMagic     = "TAGGTC1\n"
	truthTrailerMagic = "TAGGTCX\n"
	truthIndexMark    = 0xFFFFFFFF
)

// obsTruthLog counts bytes written to columnar ground-truth logs
// across the process (magic, frames, index, and trailer included). The
// series keeps its historical name so -metrics-every logs stay
// comparable across versions.
var obsTruthLog = obs.GetCounter("truth_spill_bytes_total")

// truthFrame is one data frame's index entry: where it starts (the
// offset of its length prefix), how many fixes it holds, and the frame's
// first and last fix instants (unix nanos).
type truthFrame struct {
	Offset int64
	Count  int
	FirstT int64
	LastT  int64
}

// TruthSink is the pipeline consumer streaming every world's ground
// truth to a columnar log as it is produced, framing every flushEvery
// fixes. Worlds stream sequentially through the merge, so a
// multi-world campaign's log is sorted within each world but not across
// worlds; the frame index records each frame's first and last instants
// as written. The framing (length prefixes, the index sentinel, the
// seekable trailer) is internal/colfmt's shared codec.
type TruthSink struct {
	w          *bufio.Writer
	batch      []trace.GroundTruth
	payload    []byte // reused frame-encode buffer
	flushEvery int
	off        int64 // logical bytes written (magic + frames)
	frames     []truthFrame
	wroteMagic bool
	closed     bool
}

// NewTruthSink builds the consumer (flushEvery <= 0 means
// DefaultSinkFlush).
func NewTruthSink(w io.Writer, flushEvery int) *TruthSink {
	if flushEvery <= 0 {
		flushEvery = DefaultSinkFlush
	}
	return &TruthSink{w: bufio.NewWriter(w), flushEvery: flushEvery}
}

// Consume implements Consumer: it adds the batch's fixes to the current
// frame, writing frames as the threshold fills.
func (s *TruthSink) Consume(b Batch) error {
	if s.closed {
		return fmt.Errorf("pipeline: consume on closed TruthSink")
	}
	for _, f := range b.Fixes {
		s.batch = append(s.batch, f)
		if len(s.batch) >= s.flushEvery {
			if err := s.writeFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Name labels this consumer in pipeline stats.
func (s *TruthSink) Name() string { return "truth" }

// Close implements Consumer: it writes the final partial frame, the
// frame index, and the trailer, then flushes. It does not close the
// underlying writer.
func (s *TruthSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if len(s.batch) > 0 {
		if err := s.writeFrame(); err != nil {
			return err
		}
	}
	if !s.wroteMagic {
		s.wroteMagic = true
		if _, err := s.w.WriteString(truthLogMagic); err != nil {
			return err
		}
		s.off += int64(len(truthLogMagic))
	}
	indexOffset := s.off
	p := s.payload[:0]
	p = colfmt.AppendU32(p, uint32(len(s.frames)))
	for _, fr := range s.frames {
		p = colfmt.AppendU64(p, uint64(fr.Offset))
		p = colfmt.AppendU32(p, uint32(fr.Count))
		p = colfmt.AppendI64(p, fr.FirstT)
		p = colfmt.AppendI64(p, fr.LastT)
	}
	var mark [4]byte
	binary.LittleEndian.PutUint32(mark[:], truthIndexMark)
	if _, err := s.w.Write(mark[:]); err != nil {
		return err
	}
	if err := colfmt.WriteFrame(s.w, p); err != nil {
		return err
	}
	if err := colfmt.WriteTrailer(s.w, indexOffset, truthTrailerMagic); err != nil {
		return err
	}
	obsTruthLog.Add(uint64(4 + 4 + len(p) + colfmt.TrailerLen))
	return s.w.Flush()
}

func (s *TruthSink) writeFrame() error {
	if !s.wroteMagic {
		s.wroteMagic = true
		if _, err := s.w.WriteString(truthLogMagic); err != nil {
			return err
		}
		s.off += int64(len(truthLogMagic))
		obsTruthLog.Add(uint64(len(truthLogMagic)))
	}
	fs := s.batch
	size := 4 // count
	size += len(fs) * (8 + 8 + 8 + 8 + 8)
	for _, f := range fs {
		size += colfmt.StrSize(f.VantageID)
	}
	if size > maxFrameBytes {
		return fmt.Errorf("pipeline: truth frame of %d fixes is %d bytes, exceeding the %d-byte frame cap; use a smaller flushEvery", len(fs), size, maxFrameBytes)
	}
	p := s.payload[:0]
	p = colfmt.AppendU32(p, uint32(len(fs)))
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
	s.payload = p
	if err := colfmt.WriteFrame(s.w, p); err != nil {
		return err
	}
	s.frames = append(s.frames, truthFrame{
		Offset: s.off,
		Count:  len(fs),
		FirstT: fs[0].T.UnixNano(),
		LastT:  fs[len(fs)-1].T.UnixNano(),
	})
	s.off += colfmt.FrameSize(len(p))
	obsTruthLog.Add(uint64(colfmt.FrameSize(len(p))))
	s.batch = s.batch[:0]
	return nil
}

// decodeTruthFrame decodes one data frame payload.
func decodeTruthFrame(payload []byte, dst []trace.GroundTruth) ([]trace.GroundTruth, error) {
	d := colfmt.NewDec(payload)
	count := d.U32()
	fixed := int(count) * (8 + 8 + 8 + 8 + 8)
	if d.Err() != nil || fixed < 0 || d.Off()+fixed > len(payload) {
		return nil, fmt.Errorf("pipeline: truth frame count %d exceeds payload", count)
	}
	out := dst[:0]
	for i := 0; i < int(count); i++ {
		out = append(out, trace.GroundTruth{})
	}
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
		if d.Err() != nil {
			return nil, fmt.Errorf("pipeline: truth frame: %w", d.Err())
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: truth frame: %w", err)
	}
	return out, nil
}

// TruthReader streams data frames back from a columnar truth log,
// stopping at the index sentinel (or a bare EOF, for truncated logs
// still worth salvaging frame by frame).
type TruthReader struct {
	r   *bufio.Reader
	err error
}

// NewTruthReader validates the magic and positions at the first frame.
func NewTruthReader(r io.Reader) (*TruthReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(truthLogMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("pipeline: truth log header: %w", err)
	}
	if string(magic) != truthLogMagic {
		return nil, fmt.Errorf("pipeline: bad truth log magic %q", magic)
	}
	return &TruthReader{r: br}, nil
}

// Next returns the next frame's fixes, or io.EOF after the last data
// frame (the index block is not a data frame).
func (r *TruthReader) Next() ([]trace.GroundTruth, error) {
	if r.err != nil {
		return nil, r.err
	}
	payload, err := colfmt.ReadFrame(r.r)
	if err == io.EOF || err == colfmt.ErrIndexMark {
		r.err = io.EOF
		return nil, io.EOF
	}
	if err != nil {
		r.err = fmt.Errorf("pipeline: truth log: %w", err)
		return nil, r.err
	}
	fixes, err := decodeTruthFrame(payload, nil)
	if err != nil {
		r.err = err
		return nil, err
	}
	return fixes, nil
}

// ReadAllTruth drains a whole columnar truth log from r.
func ReadAllTruth(r io.Reader) ([]trace.GroundTruth, error) {
	tr, err := NewTruthReader(r)
	if err != nil {
		return nil, err
	}
	var out []trace.GroundTruth
	for {
		frame, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, frame...)
	}
}
