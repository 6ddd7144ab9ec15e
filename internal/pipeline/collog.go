package pipeline

import (
	"bufio"
	"fmt"
	"io"

	"tagsim/internal/colfmt"
)

// The pipeline's two on-disk logs, reports.col (colsink.go) and
// truth.col (truthcol.go), share one shape and differ only in their row
// codec. Layout (little-endian throughout):
//
//	file    := magic frame*
//	frame   := u32 payloadBytes | payload   -- colfmt's bare frame
//	payload := u32 count | columns          -- the row codec's columns
//
// A writer cuts a frame every DefaultSinkFlush rows and closes with the
// final partial frame; an empty log is the magic plus one count-0
// frame. The bytes thus depend only on the row sequence, never on how
// the stream was chunked on the way in. The logs carry no index or
// trailer: readers stream them front to back.

// DefaultSinkFlush is the rows-per-frame of both pipeline logs.
const DefaultSinkFlush = 4096

// logCodec is one log's row type: its magic and the frame column
// layout. fixed is the encoded size of a row's fixed-width columns,
// which bounds the count a payload can plausibly claim.
type logCodec[T any] struct {
	name   string // "report" or "truth", for errors
	magic  string
	fixed  int
	encode func(p []byte, rows []T) []byte
	decode func(d *colfmt.Dec, rows []T)
}

func (c *logCodec[T]) decodeFrame(payload []byte) ([]T, error) {
	d := colfmt.NewDec(payload)
	count := d.U32()
	if d.Err() != nil || int64(count)*int64(c.fixed) > int64(len(payload)-d.Off()) {
		return nil, fmt.Errorf("pipeline: %s frame count %d exceeds payload", c.name, count)
	}
	rows := make([]T, count)
	c.decode(d, rows)
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: %s frame: %w", c.name, err)
	}
	return rows, nil
}

// logWriter frames rows into a log. It is not safe for concurrent use;
// the pipeline drives it from one consumer goroutine.
type logWriter[T any] struct {
	c       *logCodec[T]
	w       *bufio.Writer
	rows    []T
	payload []byte // reused frame-encode buffer
	framed  bool   // a frame was written
	closed  bool
}

func newLogWriter[T any](c *logCodec[T], w io.Writer) logWriter[T] {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(c.magic) // fits the empty buffer; write errors surface at the first flush
	return logWriter[T]{c: c, w: bw}
}

// append adds rows to the current frame, writing frames as they fill.
func (w *logWriter[T]) append(rows []T) error {
	if w.closed {
		return fmt.Errorf("pipeline: append to closed %s log", w.c.name)
	}
	for len(rows) > 0 {
		n := min(DefaultSinkFlush-len(w.rows), len(rows))
		w.rows = append(w.rows, rows[:n]...)
		rows = rows[n:]
		if len(w.rows) == DefaultSinkFlush {
			if err := w.writeFrame(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close writes the final partial frame (a count-0 frame for an empty
// log) and flushes buffered bytes. It does not close the underlying
// writer.
func (w *logWriter[T]) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.rows) > 0 || !w.framed {
		if err := w.writeFrame(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

func (w *logWriter[T]) writeFrame() error {
	w.framed = true
	p := colfmt.AppendU32(w.payload[:0], uint32(len(w.rows)))
	w.payload = w.c.encode(p, w.rows)
	w.rows = w.rows[:0]
	return colfmt.WriteFrame(w.w, w.payload)
}

// logReader streams a log back one frame at a time.
type logReader[T any] struct {
	c   *logCodec[T]
	r   *bufio.Reader
	err error
}

// openLog validates the magic and positions at the first frame.
func openLog[T any](c *logCodec[T], r io.Reader) (*logReader[T], error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(c.magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("pipeline: %s log header: %w", c.name, err)
	}
	if string(magic) != c.magic {
		return nil, fmt.Errorf("pipeline: bad %s log magic %q", c.name, magic)
	}
	return &logReader[T]{c: c, r: br}, nil
}

// Next returns the next frame's rows, or io.EOF after the last frame.
// A short, corrupt or index-marked frame returns a descriptive error.
func (r *logReader[T]) Next() ([]T, error) {
	if r.err != nil {
		return nil, r.err
	}
	payload, err := colfmt.ReadFrame(r.r)
	switch {
	case err == io.EOF:
		r.err = err
	case err != nil:
		r.err = fmt.Errorf("pipeline: %s log: %w", r.c.name, err)
	default:
		var rows []T
		rows, r.err = r.c.decodeFrame(payload)
		return rows, r.err
	}
	return nil, r.err
}

// ReadAll drains the remaining frames into one slice; on an error it
// also returns the rows of the frames before it.
func (r *logReader[T]) ReadAll() ([]T, error) {
	var out []T
	for {
		frame, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, frame...)
	}
}

// readLog reads a whole log from r.
func readLog[T any](c *logCodec[T], r io.Reader) ([]T, error) {
	lr, err := openLog(c, r)
	if err != nil {
		return nil, err
	}
	return lr.ReadAll()
}
