// Package bin is the little-endian binary codec underneath checkpoint
// serialization: one sticky-error Codec over fixed-width integers,
// varints, bools and byte strings that either writes or reads.
//
// A wire type has one walk: a function that passes a pointer to each of
// its fields, in wire order, to the Codec. A writer appends each field;
// a reader fills it in. So a layout is written down once, and the bytes
// a walk writes are by construction the bytes it reads. A walk checks
// what it has read (enum ranges, index bounds) under Reading, and
// rejects a bad value with Fail.
//
// Runs of fixed-width words (memory pages, cache-line data) move in bulk:
// U64s handles a whole slice with one capacity or length check, and a
// writer made with the capacity its output will need allocates its
// buffer once instead of doubling it through its appends. Bulk calls
// write exactly the bytes the equivalent per-word calls do.
//
// The writer produces fully deterministic bytes: Map writes a map's
// entries in key order, so the same machine state always serializes to
// the same blob, which is what makes golden-file format pinning and
// content-addressed storage meaningful.
//
// The reader is sticky on first error and hardened against hostile
// input: every length is bounded by the bytes that actually remain, so
// truncated or bit-flipped blobs produce errors, never panics or huge
// allocations (the checkpoint fuzz target leans on this). After an
// error every read yields zero, so a walk runs to its end on the zero
// values and the caller checks Err once.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Codec walks wire fields in one direction: a writer (NewWriter) appends
// each field to its output, a reader (NewReader) consumes its input into
// each field. A writer only reads through the pointers it is given.
type Codec struct {
	buf     []byte
	off     int
	reading bool
	err     error
}

// NewWriter returns a writer that appends to buf, which may be nil or
// hold a prefix. Give buf the capacity the output will need and the
// writer allocates nothing more; past it, growth is amortized.
func NewWriter(buf []byte) *Codec { return &Codec{buf: buf} }

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Codec { return &Codec{buf: buf, reading: true} }

// Reading reports whether the codec reads: the condition under which a
// walk makes the slices, maps and pointees it fills and checks what it
// has read.
func (c *Codec) Reading() bool { return c.reading }

// Bytes returns a writer's output.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records an error if none is recorded yet.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Remaining returns the number of bytes a reader has not consumed.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// ErrTruncated reports input that ended before a declared field.
var ErrTruncated = errors.New("bin: truncated input")

// take consumes n input bytes, or returns nil (recording ErrTruncated if
// no error is recorded yet) when fewer remain.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.Remaining() < n {
		c.err = ErrTruncated
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if !c.reading {
		c.buf = append(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(1); b != nil {
		*p = b[0]
	}
}

// Bool walks a bool as one byte (0 or 1); reading any other byte is an
// error.
func (c *Codec) Bool(p *bool) {
	var b uint8
	if *p {
		b = 1
	}
	c.U8(&b)
	if c.reading {
		*p = b == 1
		if b > 1 {
			c.Fail(errors.New("bin: invalid bool byte"))
		}
	}
}

// U16 walks a fixed-width little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	}
}

// U32 walks a fixed-width little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// U64 walks a fixed-width little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
		return
	}
	*p = 0
	if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 walks a fixed-width little-endian int64.
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	if c.reading {
		*p = int64(v)
	}
}

// Int walks an int as a fixed-width int64 (indices, counts, small enums).
func (c *Codec) Int(p *int) {
	v := int64(*p)
	c.I64(&v)
	if c.reading {
		*p = int(v)
	}
}

// U64s walks each word as a fixed-width little-endian uint64: the same
// bytes as a U64 call per word, in one step. Input too short for all of
// vs is ErrTruncated, consumes nothing, and leaves vs zeroed, as a U64
// call after an error reads zero.
func (c *Codec) U64s(vs []uint64) {
	if !c.reading {
		c.buf = slices.Grow(c.buf, 8*len(vs))
		n := len(c.buf)
		c.buf = c.buf[:n+8*len(vs)]
		b := c.buf[n:]
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b, v)
			b = b[8:]
		}
		return
	}
	b := c.take(8 * len(vs))
	if b == nil {
		clear(vs)
		return
	}
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
}

// Len walks a length as an unsigned varint. A writer writes n and returns
// it. A reader returns the length it reads, bounded by the elemSize-byte
// elements actually remaining in the input, so a corrupted length can
// neither panic a make nor allocate gigabytes. elemSize 1 bounds raw byte
// strings; larger sizes bound typed arrays.
func (c *Codec) Len(n, elemSize int) int {
	if !c.reading {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	if c.err != nil {
		return 0
	}
	v, k := binary.Uvarint(c.buf[c.off:])
	if k <= 0 {
		c.err = ErrTruncated
		return 0
	}
	c.off += k
	if v > uint64(c.Remaining()/max(elemSize, 1)) {
		c.err = fmt.Errorf("bin: length %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

// Bytes64 walks a length-prefixed byte string; a reader copies it out of
// the input.
func (c *Codec) Bytes64(p *[]byte) {
	n := c.Len(len(*p), 1)
	if !c.reading {
		c.buf = append(c.buf, *p...)
		return
	}
	*p = nil
	if b := c.take(n); b != nil {
		*p = append([]byte(nil), b...)
	}
}

// Slice walks a slice as its length (bounded as Len bounds it, by
// elemSize-byte elements) and then each element through elem. A reader
// makes *s that long first.
func Slice[T any](c *Codec, s *[]T, elemSize int, elem func(*T)) {
	n := c.Len(len(*s), elemSize)
	if c.reading {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// errMapOrder rejects map entries out of key order: a map has exactly one
// encoding.
var errMapOrder = errors.New("bin: map keys not in ascending order")

// Map walks a map as its entry count (bounded by entrySize-byte entries)
// and then each entry through entry, in ascending key order under cmp.
// A writer sorts the keys and hands entry copies; a reader makes *m and
// fails unless each key it reads is above the one before.
func Map[K comparable, V any](c *Codec, m *map[K]V, entrySize int, cmp func(K, K) int, entry func(*K, *V)) {
	// One k and v serve every entry: entry's pointers escape, so a pair
	// per entry would be an allocation per entry.
	var k, prev, zeroK K
	var v, zeroV V
	if !c.reading {
		keys := slices.AppendSeq(make([]K, 0, len(*m)), maps.Keys(*m))
		slices.SortFunc(keys, cmp)
		c.Len(len(keys), entrySize)
		for _, k = range keys {
			v = (*m)[k]
			entry(&k, &v)
		}
		return
	}
	n := c.Len(0, entrySize)
	*m = make(map[K]V, n)
	for i := range n {
		k, v = zeroK, zeroV
		entry(&k, &v)
		if i > 0 && cmp(prev, k) >= 0 {
			c.Fail(errMapOrder)
		}
		prev = k
		(*m)[k] = v
	}
}
