// Package bin is the little-endian binary codec underneath checkpoint
// serialization: a sticky-error writer/reader pair over fixed-width
// integers, varints, bools and byte strings.
//
// Runs of fixed-width words (memory pages, cache-line data) move in bulk:
// Writer.U64s and Reader.U64s handle a whole slice with one capacity or
// length check, and Writer.Grow sizes the output up front, so a caller
// that knows about how large its encoding is allocates the buffer once
// instead of doubling it through its appends. Bulk calls write exactly
// the bytes the equivalent per-word calls do.
//
// The writer produces fully deterministic bytes — no maps are encoded
// here; callers sort keys before writing — so the same machine state
// always serializes to the same blob, which is what makes golden-file
// format pinning and content-addressed storage meaningful.
//
// The reader is sticky on first error and hardened against hostile
// input: every length is bounded by the bytes that actually remain, so
// truncated or bit-flipped blobs produce errors, never panics or huge
// allocations (the checkpoint fuzz target leans on this).
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Writer accumulates little-endian binary output. The zero value is ready
// to use.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated output.
func (w *Writer) Bytes() []byte { return w.buf }

// Raw appends bytes verbatim (magic numbers, checksums over prior output).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Grow makes room for at least n more bytes without changing the output.
// Growth is amortized (the capacity at least doubles when it must grow),
// so calling Grow before every write keeps encoding linear.
func (w *Writer) Grow(n int) {
	if n < 0 {
		panic("bin: negative Grow")
	}
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	buf := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n))
	copy(buf, w.buf)
	w.buf = buf
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U64s writes each word as a fixed-width little-endian uint64: the same
// bytes as a U64 call per word, in one step.
func (w *Writer) U64s(vs []uint64) {
	w.Grow(8 * len(vs))
	n := len(w.buf)
	w.buf = w.buf[:n+8*len(vs)]
	b := w.buf[n:]
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b, v)
		b = b[8:]
	}
}

// I64 writes a fixed-width little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as a fixed-width int64 (indices, counts, small enums).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Uvarint writes an unsigned varint (lengths, counts).
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Bytes64 writes a length-prefixed byte string.
func (w *Writer) Bytes64(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes64([]byte(s)) }

// ErrTruncated reports input that ended before a declared field.
var ErrTruncated = errors.New("bin: truncated input")

// Reader consumes little-endian binary input. The first decode error
// sticks: every later call returns the zero value, and Err reports it.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records an error (if none is recorded yet) and returns it.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool; any byte other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errors.New("bin: invalid bool byte")
		}
		return false
	}
}

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U64s fills dst with fixed-width little-endian uint64s: the words a
// U64s (or a U64 per word) wrote. Input too short for all of dst is
// ErrTruncated, consumes nothing, and leaves dst zeroed, as a U64 call
// after an error reads zero.
func (r *Reader) U64s(dst []uint64) {
	b := r.take(8 * len(dst))
	if b == nil {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
}

// I64 reads a fixed-width little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

// Len reads a length written as a varint and bounds-checks it against
// elemSize-wide elements actually remaining in the input, so a corrupted
// length can neither panic a slice make nor allocate gigabytes. elemSize 1
// bounds raw byte strings; larger sizes bound typed arrays.
func (r *Reader) Len(elemSize int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64(r.Remaining()/elemSize) {
		r.err = fmt.Errorf("bin: length %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// Bytes64 reads a length-prefixed byte string (copied out of the input).
func (r *Reader) Bytes64() []byte {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes64()) }
