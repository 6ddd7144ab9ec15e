// Package colfmt is the shared length-prefixed columnar framing every
// on-disk format in this repo speaks: the pipeline's report and
// ground-truth logs (TAGRPT1/TAGGTC2), and the storage engine's WAL and
// immutable segments (TAGWAL1/TAGSEG1). One codec under four formats —
// the framing mechanics (little-endian scalar appends, bounds-checked
// decoding, length-prefixed frames with an optional CRC32-C, the index
// sentinel, and the fixed-size seekable trailer) live here so a new
// format is a payload layout, not a re-derivation of the file plumbing.
//
// Two frame flavors share the wire shape:
//
//	frame    := u32 payloadBytes | payload                -- WriteFrame
//	crcFrame := u32 payloadBytes | u32 crc32c | payload   -- WriteFrameCRC
//
// The CRC flavor is what the storage engine uses: a WAL tail torn
// mid-frame or a bit-flipped segment frame fails the checksum instead of
// decoding into garbage. The pipeline logs predate the CRC and keep the
// bare flavor for byte-compatibility.
//
// A seekable format ends with an index block and a trailer; TAGSEG1 is
// the only one (the pipeline logs and the WAL are read front to back):
//
//	indexBlock := u32 0xFFFFFFFF | frame-or-crcFrame
//	trailer    := u64 indexOffset | magic (8 bytes)
//
// 0xFFFFFFFF can never be a data frame's length (it exceeds
// MaxFrameBytes), so the frame readers report it as ErrIndexMark, and a
// seekable reader jumps straight to the index via the trailer. A format
// without an index treats ErrIndexMark as corruption.
package colfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// MaxFrameBytes bounds a frame any reader will accept, so a corrupt
// length prefix cannot drive an allocation by gigabytes.
const MaxFrameBytes = 64 << 20

// IndexMark is the sentinel a seekable format writes in place of a data
// frame's length prefix to mark the index block. It exceeds
// MaxFrameBytes, so it is unambiguous.
const IndexMark = 0xFFFFFFFF

// MagicLen is the fixed length of every file and trailer magic.
const MagicLen = 8

// TrailerLen is the fixed size of the seekable trailer: a u64 index
// offset plus the trailer magic.
const TrailerLen = 8 + MagicLen

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of the payload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, castagnoli) }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendI64 appends v as its two's-complement u64.
func AppendI64(b []byte, v int64) []byte { return AppendU64(b, uint64(v)) }

// AppendF64 appends v as its IEEE-754 bit pattern.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr appends a string column cell: u32 length, then the bytes.
func AppendStr(b []byte, s string) []byte { return append(AppendU32(b, uint32(len(s))), s...) }

// StrSize returns the encoded size of a string cell.
func StrSize(s string) int { return 4 + len(s) }

// WriteFrame writes a bare length-prefixed frame. Payloads past
// MaxFrameBytes are refused — the package's own readers would reject
// them, and a u32 prefix could silently truncate past 4 GiB.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("colfmt: %d-byte frame exceeds the %d-byte cap", len(payload), MaxFrameBytes)
	}
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(payload)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFrameCRC writes a checksummed frame: length, CRC32-C, payload.
func WriteFrameCRC(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("colfmt: %d-byte frame exceeds the %d-byte cap", len(payload), MaxFrameBytes)
	}
	var prefix [8]byte
	binary.LittleEndian.PutUint32(prefix[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(prefix[4:], Checksum(payload))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameSize returns the on-disk size of a bare frame with the given
// payload length.
func FrameSize(payloadLen int) int64 { return int64(4 + payloadLen) }

// FrameCRCSize returns the on-disk size of a checksummed frame.
func FrameCRCSize(payloadLen int) int64 { return int64(8 + payloadLen) }

// ErrIndexMark is returned by the frame readers when the next length
// prefix is the index sentinel — the clean end of a seekable format's
// data section.
var ErrIndexMark = fmt.Errorf("colfmt: index sentinel")

// ReadFrame reads one bare frame's payload. It returns io.EOF exactly
// when the stream ends cleanly before the length prefix, ErrIndexMark at
// the index sentinel, and a descriptive error for anything implausible
// or truncated.
func ReadFrame(r io.Reader) ([]byte, error) {
	payloadLen, err := readPrefix(r)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("colfmt: truncated frame: %w", err)
	}
	return payload, nil
}

// ReadFrameCRC reads one checksummed frame's payload, verifying the
// CRC32-C. Torn and bit-flipped frames return errors instead of bytes.
func ReadFrameCRC(r io.Reader) ([]byte, error) {
	payloadLen, err := readPrefix(r)
	if err != nil {
		return nil, err
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("colfmt: truncated frame checksum: %w", err)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("colfmt: truncated frame: %w", err)
	}
	if got, want := Checksum(payload), binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return nil, fmt.Errorf("colfmt: frame checksum mismatch (got %08x, want %08x)", got, want)
	}
	return payload, nil
}

// ReadFrameCRCAt reads the checksummed frame at offset off through a
// positionless reader — the storage engine's pread path, where many
// goroutines cursor one immutable segment concurrently.
func ReadFrameCRCAt(r io.ReaderAt, off int64) ([]byte, error) {
	var head [8]byte
	if _, err := r.ReadAt(head[:], off); err != nil {
		return nil, fmt.Errorf("colfmt: frame header at %d: %w", off, err)
	}
	payloadLen := binary.LittleEndian.Uint32(head[:4])
	if payloadLen == IndexMark {
		return nil, ErrIndexMark
	}
	if payloadLen > MaxFrameBytes {
		return nil, fmt.Errorf("colfmt: implausible frame length %d at offset %d", payloadLen, off)
	}
	payload := make([]byte, payloadLen)
	if _, err := r.ReadAt(payload, off+8); err != nil {
		return nil, fmt.Errorf("colfmt: truncated frame at %d: %w", off, err)
	}
	if got, want := Checksum(payload), binary.LittleEndian.Uint32(head[4:]); got != want {
		return nil, fmt.Errorf("colfmt: frame checksum mismatch at offset %d (got %08x, want %08x)", off, got, want)
	}
	return payload, nil
}

// readPrefix reads and validates a frame length prefix.
func readPrefix(r io.Reader) (int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("colfmt: frame length: %w", err)
	}
	payloadLen := binary.LittleEndian.Uint32(lenBuf[:])
	if payloadLen == IndexMark {
		return 0, ErrIndexMark
	}
	if payloadLen > MaxFrameBytes {
		return 0, fmt.Errorf("colfmt: implausible frame length %d", payloadLen)
	}
	return int(payloadLen), nil
}

// WriteTrailer writes the fixed-size seekable trailer.
func WriteTrailer(w io.Writer, indexOffset int64, magic string) error {
	if len(magic) != MagicLen {
		return fmt.Errorf("colfmt: trailer magic must be %d bytes, got %q", MagicLen, magic)
	}
	var buf [TrailerLen]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(indexOffset))
	copy(buf[8:], magic)
	_, err := w.Write(buf[:])
	return err
}

// ReadTrailer reads the trailer of a size-byte file through r and
// returns the index offset, validating the trailer magic and that the
// offset lands inside the file past its header magic.
func ReadTrailer(r io.ReaderAt, size int64, magic string) (indexOffset int64, err error) {
	if size < int64(MagicLen+TrailerLen) {
		return 0, fmt.Errorf("colfmt: %d-byte file too short for a trailer", size)
	}
	var buf [TrailerLen]byte
	if _, err := r.ReadAt(buf[:], size-TrailerLen); err != nil {
		return 0, fmt.Errorf("colfmt: trailer: %w", err)
	}
	if string(buf[8:]) != magic {
		return 0, fmt.Errorf("colfmt: bad trailer magic %q (truncated file?)", buf[8:])
	}
	indexOffset = int64(binary.LittleEndian.Uint64(buf[:8]))
	if indexOffset < int64(MagicLen) || indexOffset >= size-TrailerLen {
		return 0, fmt.Errorf("colfmt: implausible index offset %d", indexOffset)
	}
	return indexOffset, nil
}

// Dec is a bounds-checked decoder over one frame payload. Every scalar
// read validates the remaining length; the first failure sticks, so a
// decode loop can read unconditionally and check Err once (or per cell
// when a short read must abort a loop early).
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps a payload.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

// Err returns the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Off returns the current decode offset (for error context).
func (d *Dec) Off() int { return d.off }

// fail records the first error and poisons subsequent reads.
func (d *Dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("colfmt: frame underrun at byte %d", d.off)
	}
}

// U32 reads a little-endian u32 (0 after a failure).
func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian u64.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a two's-complement i64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Skip advances past n bytes without decoding them — the column-skip
// primitive for readers that want a row range out of a frame.
func (d *Dec) Skip(n int) {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return
	}
	d.off += n
}

// SkipStr advances past one string cell without allocating it.
func (d *Dec) SkipStr() {
	n := d.U32()
	d.Skip(int(n))
}

// Str reads a string cell (length-prefixed bytes).
func (d *Dec) Str() string {
	n := d.U32()
	if d.err != nil || d.off+int(n) > len(d.buf) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Close verifies the payload was consumed exactly: a trailing-bytes
// error means the writer and reader disagree about the layout.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("colfmt: %d trailing bytes in frame", len(d.buf)-d.off)
	}
	return nil
}
