package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/geo"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/trace"
)

// An immutable columnar segment is one flushed (or compacted) slab of
// per-tag history plus the last-seen state of every tag it covers. The
// layout is the truth log's seekable pattern with the storage engine's
// CRC framing:
//
//	file  := magic dataFrame* indexBlock trailer
//	magic := "TAGSEG1\n" (8 bytes)
//	dataFrame := u32 payloadBytes | u32 crc32c | payload
//	payload :=
//	    u32 count
//	    i64 t[count]        -- Report.T, unix nanos
//	    i64 heardAt[count]  -- Report.HeardAt, unix nanos
//	    u64 lat[count]      -- math.Float64bits
//	    u64 lon[count]
//	    u64 rssi[count]
//	    u8  vendor[count]
//	    strcol reporterID
//	indexBlock := u32 0xFFFFFFFF | crcFrame of index payload
//	index payload :=
//	    u32 frameCount
//	    (u64 offset | u64 rowStart | u32 count)*frameCount
//	    u32 tagCount
//	    (str tag | u64 startSeq | u64 rowStart | u32 rowCount |
//	     i64 lastAt | f64 lat | f64 lon | u8 hasLast)*tagCount
//	trailer := u64 indexOffset | "TAGSEGX\n"
//
// Rows are grouped by tag (tags in sorted order, each tag's rows
// oldest-first), so a tag's history is one contiguous global row range
// — which is why data frames carry no tagID column: the per-tag index
// entry names the range and the reader re-attaches the ID.
//
// Frames are cut at tag boundaries: the writer closes the pending frame
// before a tag whose run would overflow it, so a run of up to
// segRowsPerFrame rows sits in exactly one frame, and a longer run
// starts a frame and fills whole ones. A cold read of a short run thus
// preads and CRC-checks one small frame. The reader does not rely on
// the rule — it reads every frame overlapping the wanted rows — so
// segments whose frames straddle tags still read.
//
// startSeq is the tag's persisted-sequence number of the run's first
// row, so recovery can compute how many rows of a tag's history live on
// disk (startSeq+rowCount of its newest segment) without reading any
// data frame. The entry also carries the tag's last-seen state as of the
// flush — tags with no retained history (KeepHistory off, or
// registration-only) appear with rowCount 0, which is what lets a warm
// restart rebuild the full tag universe from index blocks alone.
const (
	segMagic        = "TAGSEG1\n"
	segTrailerMagic = "TAGSEGX\n"
)

// segRowsPerFrame is the data-frame row cap. At ~51 B/row a full frame
// is ~13 KB, so a read of a short run preads and CRC-checks one small
// frame instead of a slab of other tags' rows, while a long run still
// decodes in a few frames.
const segRowsPerFrame = 256

// segFrame is one data frame's index entry.
type segFrame struct {
	offset   int64  // of the frame's length prefix
	rowStart uint64 // global row index of the frame's first row
	count    uint32
}

// segTagEntry is one tag's index entry.
type segTagEntry struct {
	tag      string
	startSeq uint64 // persisted-sequence number of the run's first row
	rowStart uint64 // global row index of the run's first row
	rowCount uint32
	lastAt   int64 // unix nanos of the tag's last-seen instant at flush
	lastPos  geo.LatLon
	hasLast  bool
}

// segmentWriter builds a segment at path+".tmp", renaming it into place
// on finish so a crash mid-write never leaves a live half-segment.
type segmentWriter struct {
	path    string
	f       *os.File
	w       *bufio.Writer
	payload []byte
	batch   []trace.Report
	frames  []segFrame
	entries []segTagEntry
	off     int64
	rows    uint64 // global row counter
}

// createSegment starts writing a segment destined for path.
func createSegment(path string) (*segmentWriter, error) {
	f, err := os.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	w := &segmentWriter{path: path, f: f, w: bufio.NewWriter(f)}
	if _, err := w.w.WriteString(segMagic); err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return nil, err
	}
	w.off = int64(len(segMagic))
	return w, nil
}

// addTag appends one tag's run: its retained reports oldest-first plus
// its last-seen state. The pending frame is written out first when the
// run would overflow it, so frames break at tag boundaries. Tags must
// arrive in strictly increasing order — the writer's callers (flush
// over a sorted tag list, compaction over a sorted merge) guarantee it,
// and the check turns a caller bug into an error instead of an
// unsearchable index.
func (w *segmentWriter) addTag(tag string, startSeq uint64, reports []trace.Report, lastPos geo.LatLon, lastAt time.Time, hasLast bool) error {
	if n := len(w.entries); n > 0 && tag <= w.entries[n-1].tag {
		return fmt.Errorf("store: segment tags out of order (%q after %q)", tag, w.entries[n-1].tag)
	}
	if len(w.batch) > 0 && len(w.batch)+len(reports) > segRowsPerFrame {
		if err := w.writeFrame(); err != nil {
			return err
		}
	}
	w.entries = append(w.entries, segTagEntry{
		tag: tag, startSeq: startSeq,
		rowStart: w.rows + uint64(len(w.batch)), rowCount: uint32(len(reports)),
		lastAt: encTime(lastAt), lastPos: lastPos, hasLast: hasLast,
	})
	for _, r := range reports {
		w.batch = append(w.batch, r)
		if len(w.batch) >= segRowsPerFrame {
			if err := w.writeFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *segmentWriter) writeFrame() error {
	rs := w.batch
	p := w.payload[:0]
	p = colfmt.AppendU32(p, uint32(len(rs)))
	for _, r := range rs {
		p = colfmt.AppendI64(p, encTime(r.T))
	}
	for _, r := range rs {
		p = colfmt.AppendI64(p, encTime(r.HeardAt))
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
		p = colfmt.AppendStr(p, r.ReporterID)
	}
	w.payload = p
	if err := colfmt.WriteFrameCRC(w.w, p); err != nil {
		return err
	}
	w.frames = append(w.frames, segFrame{offset: w.off, rowStart: w.rows, count: uint32(len(rs))})
	w.off += colfmt.FrameCRCSize(len(p))
	w.rows += uint64(len(rs))
	w.batch = w.batch[:0]
	return nil
}

// finish writes the index block and trailer, fsyncs, and renames the
// temp file into place. The rename is the commit point.
func (w *segmentWriter) finish() (err error) {
	defer func() {
		if err != nil {
			w.f.Close()
			os.Remove(w.path + ".tmp")
		}
	}()
	if len(w.batch) > 0 {
		if err := w.writeFrame(); err != nil {
			return err
		}
	}
	indexOffset := w.off
	p := w.payload[:0]
	p = colfmt.AppendU32(p, uint32(len(w.frames)))
	for _, fr := range w.frames {
		p = colfmt.AppendU64(p, uint64(fr.offset))
		p = colfmt.AppendU64(p, fr.rowStart)
		p = colfmt.AppendU32(p, fr.count)
	}
	p = colfmt.AppendU32(p, uint32(len(w.entries)))
	for _, e := range w.entries {
		p = colfmt.AppendStr(p, e.tag)
		p = colfmt.AppendU64(p, e.startSeq)
		p = colfmt.AppendU64(p, e.rowStart)
		p = colfmt.AppendU32(p, e.rowCount)
		p = colfmt.AppendI64(p, e.lastAt)
		p = colfmt.AppendF64(p, e.lastPos.Lat)
		p = colfmt.AppendF64(p, e.lastPos.Lon)
		hasLast := byte(0)
		if e.hasLast {
			hasLast = 1
		}
		p = append(p, hasLast)
	}
	var mark [4]byte
	binary.LittleEndian.PutUint32(mark[:], colfmt.IndexMark)
	if _, err := w.w.Write(mark[:]); err != nil {
		return err
	}
	if err := colfmt.WriteFrameCRC(w.w, p); err != nil {
		return err
	}
	if err := colfmt.WriteTrailer(w.w, indexOffset, segTrailerMagic); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

// abort discards a partially written segment.
func (w *segmentWriter) abort() {
	w.f.Close()
	os.Remove(w.path + ".tmp")
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Filesystems that refuse directory fsync (some CI overlays) are not an
// error — the rename itself was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	d.Sync()
	return d.Close()
}

// segment is an open immutable segment: the loaded index plus a pread
// handle. Safe for concurrent use — the metadata never changes and
// ReadAt is positionless.
type segment struct {
	name    string // filename within the store directory
	f       *os.File
	size    int64
	rows    uint64
	frames  []segFrame
	entries []segTagEntry // sorted by tag
}

// openSegment loads and validates a segment's index. Any checksum or
// shape failure is returned (the tier quarantines on it); the data
// frames are verified lazily, on read.
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := loadSegment(f, filepath.Base(path))
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func loadSegment(f *os.File, name string) (*segment, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	magic := make([]byte, len(segMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		return nil, fmt.Errorf("store: segment header: %w", err)
	}
	if string(magic) != segMagic {
		return nil, fmt.Errorf("store: bad segment magic %q", magic)
	}
	indexOffset, err := colfmt.ReadTrailer(f, size, segTrailerMagic)
	if err != nil {
		return nil, fmt.Errorf("store: segment: %w", err)
	}
	var mark [4]byte
	if _, err := f.ReadAt(mark[:], indexOffset); err != nil {
		return nil, fmt.Errorf("store: segment index: %w", err)
	}
	if binary.LittleEndian.Uint32(mark[:]) != colfmt.IndexMark {
		return nil, fmt.Errorf("store: segment index sentinel missing at offset %d", indexOffset)
	}
	payload, err := colfmt.ReadFrameCRCAt(f, indexOffset+4)
	if err != nil {
		return nil, fmt.Errorf("store: segment index: %w", err)
	}
	d := colfmt.NewDec(payload)
	s := &segment{name: name, f: f, size: size}
	frameCount := d.U32()
	if d.Err() != nil || int(frameCount) > len(payload) {
		return nil, fmt.Errorf("store: implausible segment frame count %d", frameCount)
	}
	s.frames = make([]segFrame, frameCount)
	for i := range s.frames {
		fr := &s.frames[i]
		fr.offset = int64(d.U64())
		fr.rowStart = d.U64()
		fr.count = d.U32()
		if d.Err() == nil && (fr.offset < int64(len(segMagic)) || fr.offset >= indexOffset ||
			fr.rowStart != s.rows || fr.count == 0) {
			return nil, fmt.Errorf("store: segment frame %d index entry is malformed", i)
		}
		s.rows += uint64(fr.count)
	}
	tagCount := d.U32()
	if d.Err() != nil || int(tagCount) > len(payload) {
		return nil, fmt.Errorf("store: implausible segment tag count %d", tagCount)
	}
	s.entries = make([]segTagEntry, tagCount)
	for i := range s.entries {
		e := &s.entries[i]
		e.tag = d.Str()
		e.startSeq = d.U64()
		e.rowStart = d.U64()
		e.rowCount = d.U32()
		e.lastAt = d.I64()
		e.lastPos.Lat = d.F64()
		e.lastPos.Lon = d.F64()
		e.hasLast = d.U8() != 0
		if d.Err() == nil {
			if i > 0 && e.tag <= s.entries[i-1].tag {
				return nil, fmt.Errorf("store: segment tag index out of order at %q", e.tag)
			}
			if e.rowStart+uint64(e.rowCount) > s.rows {
				return nil, fmt.Errorf("store: segment tag %q row range exceeds %d rows", e.tag, s.rows)
			}
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("store: segment index: %w", err)
	}
	return s, nil
}

// lookup returns the tag's index entry, or nil.
func (s *segment) lookup(tag string) *segTagEntry {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].tag >= tag })
	if i < len(s.entries) && s.entries[i].tag == tag {
		return &s.entries[i]
	}
	return nil
}

// readTagRange returns the entry's rows with persisted-sequence numbers
// in [a, b), oldest-first, with TagID attached. Only the data frames
// overlapping the requested row range are read and CRC-verified. A
// non-nil tr gets a pread and a decode span per frame touched (a cold
// read is tens of µs, so the four clock reads per frame are in the
// noise).
func (s *segment) readTagRange(e *segTagEntry, a, b uint64, tr *otrace.Trace) ([]trace.Report, error) {
	end := e.startSeq + uint64(e.rowCount)
	if a < e.startSeq || b > end || a > b {
		return nil, fmt.Errorf("store: segment %s tag %q: range [%d,%d) outside run [%d,%d)", s.name, e.tag, a, b, e.startSeq, end)
	}
	if a == b {
		return nil, nil
	}
	n := int(b - a)
	lo := e.rowStart + (a - e.startSeq) // first wanted global row
	hi := e.rowStart + (b - e.startSeq) // one past the last
	// First frame whose row range reaches lo.
	fi := sort.Search(len(s.frames), func(i int) bool {
		return s.frames[i].rowStart+uint64(s.frames[i].count) > lo
	})
	out := make([]trace.Report, 0, n)
	for ; fi < len(s.frames) && s.frames[fi].rowStart < hi; fi++ {
		fr := s.frames[fi]
		pread := tr.Start(otrace.PlaneStore, "store.pread", 0, int64(fi))
		payload, err := colfmt.ReadFrameCRCAt(s.f, fr.offset)
		tr.SetAttrs(pread, int64(len(payload)), int64(fi))
		tr.Finish(pread)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s frame %d: %w", s.name, fi, err)
		}
		a, b := uint64(0), uint64(fr.count)
		if lo > fr.rowStart {
			a = lo - fr.rowStart
		}
		if hi < fr.rowStart+uint64(fr.count) {
			b = hi - fr.rowStart
		}
		decode := tr.Start(otrace.PlaneStore, "store.decode", int64(b-a), int64(fr.count))
		out, err = decodeSegFrameRange(payload, out, fr.count, a, b)
		tr.Finish(decode)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s frame %d: %w", s.name, fi, err)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("store: segment %s tag %q: frames yielded %d of %d rows", s.name, e.tag, len(out), n)
	}
	for i := range out {
		out[i].TagID = e.tag
	}
	return out, nil
}

// decodeSegFrameRange appends rows [a, b) of one data frame payload to
// dst, decoding only the wanted window of each column: rows outside it
// cost one offset bump on the fixed-width columns and one length read
// on the string column — no Report struct and no ReporterID allocation.
// That keeps a partial-history read from billing for the whole
// segRowsPerFrame frame it lands in. want is the index's row count for
// the frame; a header disagreeing with it is corruption. TagID is left
// empty — the caller attaches it.
func decodeSegFrameRange(payload []byte, dst []trace.Report, want uint32, a, b uint64) ([]trace.Report, error) {
	d := colfmt.NewDec(payload)
	count := d.U32()
	fixed := int(count) * (8 + 8 + 8 + 8 + 8 + 1)
	if d.Err() != nil || fixed < 0 || d.Off()+fixed > len(payload) {
		return nil, fmt.Errorf("store: segment frame count %d exceeds payload", count)
	}
	if count != want {
		return nil, fmt.Errorf("store: segment frame holds %d rows, index says %d", count, want)
	}
	if a > b || b > uint64(count) {
		return nil, fmt.Errorf("store: segment frame row range [%d,%d) outside %d rows", a, b, count)
	}
	pre, post := int(a), int(count)-int(b)
	at := len(dst)
	out := dst
	for i := 0; i < int(b-a); i++ {
		out = append(out, trace.Report{})
	}
	rows := out[at:]
	d.Skip(pre * 8)
	for i := range rows {
		rows[i].T = decTime(d.I64())
	}
	d.Skip(post*8 + pre*8)
	for i := range rows {
		rows[i].HeardAt = decTime(d.I64())
	}
	d.Skip(post*8 + pre*8)
	for i := range rows {
		rows[i].Pos.Lat = d.F64()
	}
	d.Skip(post*8 + pre*8)
	for i := range rows {
		rows[i].Pos.Lon = d.F64()
	}
	d.Skip(post*8 + pre*8)
	for i := range rows {
		rows[i].RSSI = d.F64()
	}
	d.Skip(post*8 + pre)
	for i := range rows {
		rows[i].Vendor = trace.Vendor(d.U8())
	}
	d.Skip(post)
	for i := 0; i < pre; i++ {
		d.SkipStr()
	}
	for i := range rows {
		rows[i].ReporterID = d.Str()
		if d.Err() != nil {
			return nil, fmt.Errorf("store: segment frame: %w", d.Err())
		}
	}
	for i := 0; i < post; i++ {
		d.SkipStr()
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("store: segment frame: %w", err)
	}
	return out, nil
}

// close releases the file handle.
func (s *segment) close() error { return s.f.Close() }
