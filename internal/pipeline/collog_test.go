package pipeline

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tagsim/internal/colfmt"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/trace"
)

// logSpec is one pipeline log under test: its codec, a deterministic
// row fixture, and its public sink and reader entry points.
type logSpec[T any] struct {
	codec   *logCodec[T]
	fixture func(n int) []T
	sink    func(w io.Writer) Consumer
	batch   func(rows []T) Batch
	open    func(r io.Reader) (*logReader[T], error)
	read    func(r io.Reader) ([]T, error)
}

var reportSpec = logSpec[trace.Report]{
	codec:   &reportLog,
	fixture: synthReports,
	sink:    func(w io.Writer) Consumer { return NewReportSink(w) },
	batch:   func(rs []trace.Report) Batch { return Batch{Reports: rs} },
	open:    NewReportReader,
	read:    ReadReports,
}

var truthSpec = logSpec[trace.GroundTruth]{
	codec:   &truthLog,
	fixture: func(n int) []trace.GroundTruth { return truthFixture(n, int64(n)+1) },
	sink:    func(w io.Writer) Consumer { return NewTruthSink(w) },
	batch:   func(fs []trace.GroundTruth) Batch { return Batch{Fixes: fs} },
	open:    NewTruthReader,
	read:    ReadAllTruth,
}

func synthReports(n int) []trace.Report {
	out := make([]trace.Report, n)
	for i := range out {
		out[i] = synthReport(i%3, i)
	}
	return out
}

// truthFixture builds n time-sorted fixes with irregular spacing
// (including gaps larger than the analysis MaxGap) and varied payloads.
func truthFixture(n int, seed int64) []trace.GroundTruth {
	rng := rand.New(rand.NewSource(seed))
	fixes := make([]trace.GroundTruth, n)
	cur := time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := range fixes {
		cur = cur.Add(time.Duration(1+rng.Intn(240)) * time.Second)
		if rng.Intn(20) == 0 {
			cur = cur.Add(time.Duration(5+rng.Intn(30)) * time.Minute) // coverage gap
		}
		fixes[i] = trace.GroundTruth{
			T:          cur,
			Pos:        geo.LatLon{Lat: 48 + rng.Float64(), Lon: 11 + rng.Float64()},
			VantageID:  fmt.Sprintf("vp-%d", rng.Intn(4)),
			SpeedKmh:   rng.Float64() * 30,
			UploadedAt: cur.Add(time.Duration(rng.Intn(90)) * time.Second),
		}
	}
	return fixes
}

// write streams rows through a fresh sink in consecutive batches of
// the given sizes (the rest in one batch) and returns the log's bytes.
func (s logSpec[T]) write(t testing.TB, rows []T, chunks ...int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := s.sink(&buf)
	for _, n := range chunks {
		n = min(n, len(rows))
		if err := sink.Consume(s.batch(rows[:n])); err != nil {
			t.Fatal(err)
		}
		rows = rows[n:]
	}
	if err := sink.Consume(s.batch(rows)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// same compares rows by their encoded columns, bit for bit: exact on
// every field a log stores, and true of a NaN against itself.
func (s logSpec[T]) same(a, b []T) bool {
	return len(a) == len(b) && bytes.Equal(s.codec.encode(nil, a), s.codec.encode(nil, b))
}

// bothLogs runs check once per pipeline log, as subtests.
func bothLogs(t *testing.T, report func(*testing.T, logSpec[trace.Report]), truth func(*testing.T, logSpec[trace.GroundTruth])) {
	t.Run("report", func(t *testing.T) { report(t, reportSpec) })
	t.Run("truth", func(t *testing.T) { truth(t, truthSpec) })
}

// TestColumnarRoundTrip and TestTruthRoundTrip: every row count writes
// and reads back exactly, in one frame per DefaultSinkFlush rows (one
// count-0 frame for an empty log), with the streaming reader ending on
// io.EOF; the first for the report log, the second for the truth log.
func TestColumnarRoundTrip(t *testing.T) { checkRoundTrip(t, reportSpec) }

func TestTruthRoundTrip(t *testing.T) { checkRoundTrip(t, truthSpec) }

func checkRoundTrip[T any](t *testing.T, s logSpec[T]) {
	for _, n := range []int{0, 1, 5, DefaultSinkFlush, DefaultSinkFlush + 1, 2*DefaultSinkFlush + 808} {
		rows := s.fixture(n)
		data := s.write(t, rows)
		if got, err := s.read(bytes.NewReader(data)); err != nil || len(got) != n || n > 0 && !reflect.DeepEqual(got, rows) {
			t.Fatalf("n=%d: round trip diverged (%d rows back, err %v)", n, len(got), err)
		}
		lr, err := s.open(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		for ; ; frames++ {
			if _, err := lr.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("n=%d: frame %d: %v", n, frames, err)
			}
		}
		if want := max(1, (n+DefaultSinkFlush-1)/DefaultSinkFlush); frames != want {
			t.Errorf("n=%d: %d frames, want %d", n, frames, want)
		}
	}
}

// TestColumnarFramingByteIdentical: the file bytes depend only on the
// row sequence, not on how the stream was chunked on the way in.
func TestColumnarFramingByteIdentical(t *testing.T) {
	bothLogs(t, checkFraming[trace.Report], checkFraming[trace.GroundTruth])
}

func checkFraming[T any](t *testing.T, s logSpec[T]) {
	rows := s.fixture(2*DefaultSinkFlush + 500)
	var uneven []int
	for i := 0; i < len(rows); i += uneven[len(uneven)-1] {
		uneven = append(uneven, 1+(i*7)%1013)
	}
	if !bytes.Equal(s.write(t, rows), s.write(t, rows, uneven...)) {
		t.Error("file bytes depend on input chunking")
	}
}

// oldTruthLog builds a TAGGTC1 truth log, the format before TAGGTC2:
// the same data frames, then a frame index behind the 0xFFFFFFFF
// sentinel and a seekable trailer.
func oldTruthLog(fixes []trace.GroundTruth) []byte {
	var buf bytes.Buffer
	buf.WriteString("TAGGTC1\n")
	colfmt.WriteFrame(&buf, truthLog.encode(colfmt.AppendU32(nil, uint32(len(fixes))), fixes))
	index := buf.Len()
	buf.Write(colfmt.AppendU32(nil, colfmt.IndexMark))
	colfmt.WriteFrame(&buf, colfmt.AppendU32(nil, 0))
	colfmt.WriteTrailer(&buf, int64(index), "TAGGTCX\n")
	return buf.Bytes()
}

// corruptLog is a damaged or foreign variant of a valid log.
type corruptLog struct {
	name string
	data []byte
}

// corruptLogs returns variants of a small valid log that the reader
// must all refuse.
func corruptLogs[T any](t testing.TB, s logSpec[T]) []corruptLog {
	valid := s.write(t, s.fixture(10))
	magic, frame := []byte(s.codec.magic), valid[len(s.codec.magic):]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	u32 := func(v uint32) []byte { return colfmt.AppendU32(nil, v) }
	return []corruptLog{
		{"empty", nil},
		{"short magic", valid[:5]},
		{"bad magic", cat([]byte("NOTALOG\n"), frame)},
		{"TAGGTC1 log", oldTruthLog(truthFixture(10, 1))},
		{"truncated length", cat(valid, []byte{1, 0})},
		{"truncated frame", valid[:len(valid)-3]},
		{"implausible length", cat(magic, u32(0x7fffffff), frame[4:])},
		{"index mark after frame", cat(valid, u32(colfmt.IndexMark))},
		{"index block and trailer", cat(valid, u32(colfmt.IndexMark), u32(4), u32(0), make([]byte, colfmt.TrailerLen))},
		{"count past payload", cat(magic, frame[:4], u32(1<<30), frame[8:])},
		{"trailing byte", cat(magic, u32(uint32(len(frame)-4+1)), frame[4:], []byte{0})},
	}
}

// TestColumnarReaderErrors and TestTruthFileCorruption: truncated,
// mangled and foreign logs are refused with errors, not panics, garbage
// or a silent early end; the first for the report log, the second for
// the truth log.
func TestColumnarReaderErrors(t *testing.T) { checkReaderErrors(t, reportSpec) }

func TestTruthFileCorruption(t *testing.T) { checkReaderErrors(t, truthSpec) }

func checkReaderErrors[T any](t *testing.T, s logSpec[T]) {
	for _, c := range corruptLogs(t, s) {
		if _, err := s.read(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: reader accepted a corrupt log", c.name)
		}
	}
}

// TestColumnarFrameCap: a frame past colfmt.MaxFrameBytes is refused
// by the sink, as an error from Close.
func TestColumnarFrameCap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 64 MiB frame")
	}
	sink := NewTruthSink(io.Discard)
	if err := sink.Consume(Batch{Fixes: []trace.GroundTruth{{VantageID: strings.Repeat("v", colfmt.MaxFrameBytes)}}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err == nil {
		t.Fatal("sink wrote a frame past the frame cap")
	}
}

// TestReportSinkThroughPipeline streams reports through the full
// pipeline into a sink and checks the file equals the same logical
// sequence written straight to a sink.
func TestReportSinkThroughPipeline(t *testing.T) {
	const nWorlds, nPer = 3, 1500
	var streamed bytes.Buffer
	p := New(nWorlds, Config{FlushEvery: 37}, NewReportSink(&streamed))
	var wg sync.WaitGroup
	for w := 0; w < nWorlds; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			em := p.World(w)
			for i := 0; i < nPer; i++ {
				em.Report(synthReport(w, i))
			}
			em.Close()
		}(w)
	}
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	var all []trace.Report
	for w := 0; w < nWorlds; w++ {
		for i := 0; i < nPer; i++ {
			all = append(all, synthReport(w, i))
		}
	}
	if !bytes.Equal(streamed.Bytes(), reportSpec.write(t, all)) {
		t.Error("streamed sink bytes differ from a direct write of the same sequence")
	}
}

// TestTruthSinkWritesUnsorted checks the sink accepts a raw multi-world
// export log (frames not time-sorted across worlds) and the reader
// streams it back whole.
func TestTruthSinkWritesUnsorted(t *testing.T) {
	// The first world fills one frame exactly, so the overlap shows up
	// as cross-frame disorder.
	later := truthFixture(DefaultSinkFlush, 1)
	earlier := truthFixture(5, 2) // same epoch: overlaps `later`
	data := truthSpec.write(t, append(later, earlier...), len(later))
	got, err := ReadAllTruth(bytes.NewReader(data))
	if err != nil || !reflect.DeepEqual(got, append(later, earlier...)) {
		t.Fatalf("streaming an unsorted log: %d fixes, err %v", len(got), err)
	}
}

// TestTruthSpillCounter checks the obs byte counter advances by exactly
// the file size written.
func TestTruthSpillCounter(t *testing.T) {
	c := obs.GetCounter("truth_spill_bytes_total")
	before := c.Value()
	data := truthSpec.write(t, truthFixture(DefaultSinkFlush+200, 3))
	if got, want := c.Value()-before, uint64(len(data)); got != want {
		t.Errorf("truth_spill_bytes_total advanced %d, file is %d bytes", got, want)
	}
}

// fuzzLog seeds f with valid and corrupt logs and checks the reader
// never panics, and that whatever rows it returns, even alongside an
// error, come back the same through a sink and the reader.
func fuzzLog[T any](f *testing.F, s logSpec[T]) {
	for _, n := range []int{0, 1, 5} {
		f.Add(s.write(f, s.fixture(n)))
	}
	for _, c := range corruptLogs(f, s) {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, _ := s.read(bytes.NewReader(data))
		back, err := s.read(bytes.NewReader(s.write(t, rows)))
		if err != nil || !s.same(back, rows) {
			t.Fatalf("%d rows read came back as %d (err %v)", len(rows), len(back), err)
		}
	})
}

func FuzzReadReports(f *testing.F) { fuzzLog(f, reportSpec) }

func FuzzReadTruth(f *testing.F) { fuzzLog(f, truthSpec) }
