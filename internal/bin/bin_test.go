package bin

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"testing"
)

// record holds one field of every kind the codec walks.
type record struct {
	u8     uint8
	t, f   bool
	u16    uint16
	u32    uint32
	u64    uint64
	i64    int64
	n      int
	length int
	b      []byte
	words  []uint64
	ints   []int64
	m      map[int]int64
}

// walk is record's one wire walk, run by both directions of TestRoundTrip.
func (r *record) walk(c *Codec) {
	c.U8(&r.u8)
	c.Bool(&r.t)
	c.Bool(&r.f)
	c.U16(&r.u16)
	c.U32(&r.u32)
	c.U64(&r.u64)
	c.I64(&r.i64)
	c.Int(&r.n)
	r.length = c.Len(r.length, 1)
	c.Bytes64(&r.b)
	Slice(c, &r.words, 8, func(w *uint64) { c.U64(w) })
	Slice(c, &r.ints, 8, c.I64)
	Map(c, &r.m, 16, cmp.Compare, func(k *int, v *int64) {
		c.Int(k)
		c.I64(v)
	})
}

// TestRoundTrip writes one value of every kind through a writer and reads
// it back through a reader running the same walk.
func TestRoundTrip(t *testing.T) {
	in := record{
		u8: 0xfe, t: true, u16: 0xbeef, u32: 0xdeadbeef, u64: 0x0123456789abcdef,
		i64: -42, n: -7, length: 100, b: []byte{1, 2, 3},
		words: []uint64{0, 1, math.MaxUint64, 0x0123456789abcdef},
		ints:  []int64{-1, 5},
		m:     map[int]int64{3: 30, -2: -20, 9: 90},
	}
	w := NewWriter([]byte("RAW"))
	in.walk(w)
	if w.Err() != nil || !bytes.HasPrefix(w.Bytes(), []byte("RAW")) {
		t.Fatalf("writer: err %v, output starts %q", w.Err(), w.Bytes()[:3])
	}
	again := NewWriter(nil)
	in.walk(again)
	if !bytes.Equal(again.Bytes(), w.Bytes()[3:]) {
		t.Fatal("two writes of one value differ (map order must not leak)")
	}

	r := NewReader(w.Bytes()[3:])
	var out record
	out.walk(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after reading everything: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	check := func(name string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	check("U8", out.u8, in.u8)
	check("Bool true", out.t, true)
	check("Bool false", out.f, false)
	check("U16", out.u16, in.u16)
	check("U32", out.u32, in.u32)
	check("U64", out.u64, in.u64)
	check("I64", out.i64, in.i64)
	check("Int", out.n, in.n)
	check("Len", out.length, in.length)
	if !bytes.Equal(out.b, in.b) {
		t.Errorf("Bytes64: got %v", out.b)
	}
	check("Slice length", len(out.words), len(in.words))
	for i := range min(len(in.words), len(out.words)) {
		check("Slice of U64", out.words[i], in.words[i])
	}
	check("Slice of I64", len(out.ints) == 2 && out.ints[0] == -1 && out.ints[1] == 5, true)
	check("Map size", len(out.m), len(in.m))
	for k, v := range in.m {
		check("Map entry", out.m[k], v)
	}
}

// TestU64sMatchesU64 pins the bulk writer to the per-word bytes: the wire
// format must not depend on which of the two a walk uses.
func TestU64sMatchesU64(t *testing.T) {
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	one := uint8(1)
	bulk, each := NewWriter(nil), NewWriter(nil)
	bulk.U8(&one)
	each.U8(&one)
	bulk.U64s(words)
	for i := range words {
		each.U64(&words[i])
	}
	if !bytes.Equal(bulk.Bytes(), each.Bytes()) {
		t.Fatal("U64s bytes differ from a U64 per word")
	}
	r := NewReader(each.Bytes()[1:])
	got := make([]uint64, len(words))
	r.U64s(got)
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("word %d: got %#x, want %#x", i, got[i], words[i])
		}
	}
}

// TestU64sTruncated checks the bulk reader's failure mode: too little
// input is ErrTruncated, the words come back zeroed, and the error sticks.
func TestU64sTruncated(t *testing.T) {
	w := NewWriter(nil)
	w.U64s([]uint64{1, 2, 3})
	r := NewReader(w.Bytes()[:20])
	dst := []uint64{7, 7, 7}
	r.U64s(dst)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
	for i, v := range dst {
		if v != 0 {
			t.Errorf("dst[%d] = %d after truncation, want 0", i, v)
		}
	}
	v := uint32(7)
	if r.U32(&v); v != 0 || r.Remaining() != 20 {
		t.Errorf("read after error: got %d with %d bytes left, want 0 with 20", v, r.Remaining())
	}
	dst = []uint64{7}
	r.U64s(dst)
	if dst[0] != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("U64s after error: dst %v, err %v", dst, r.Err())
	}
}

// TestGrow checks that a writer appends to the buffer it is given, fills
// its capacity without reallocating, and grows past it amortized.
func TestGrow(t *testing.T) {
	buf := make([]byte, 0, 1000)
	w := NewWriter(buf)
	v := uint32(0xcafef00d)
	w.U32(&v)
	w.U64s(make([]uint64, 100))
	if &w.Bytes()[0] != &buf[:1][0] {
		t.Fatal("writer reallocated a buffer with room to spare")
	}
	if got := testing.AllocsPerRun(10, func() {
		w := NewWriter(nil)
		for i := 0; i < 1<<16; i++ {
			b := uint8(i)
			w.U8(&b)
			w.U64s(nil)
		}
	}); got > 25 {
		t.Errorf("%v allocations growing one byte at a time to 64 KiB; growth is not amortized", got)
	}
}

// TestLenBound checks that a declared length longer than the input left
// is refused before anything is allocated for it.
func TestLenBound(t *testing.T) {
	w := NewWriter(nil)
	w.Len(3, 8)
	one, two := uint64(1), uint64(2)
	w.U64(&one)
	w.U64(&two)
	r := NewReader(w.Bytes())
	if n := r.Len(0, 8); n != 0 || r.Err() == nil {
		t.Fatalf("Len(8) of 3 with 16 bytes left: got %d, err %v", n, r.Err())
	}
	if r.U64(&one); one != 0 {
		t.Errorf("read after error: got %d", one)
	}
	r = NewReader(w.Bytes())
	if n := r.Len(0, 4); n != 3 || r.Err() != nil {
		t.Errorf("Len(4) of 3 with 16 bytes left: got %d, err %v", n, r.Err())
	}
	var s []uint64
	Slice(NewReader(w.Bytes()), &s, 8, func(*uint64) { t.Fatal("walked an element of an oversized slice") })
	if len(s) != 0 {
		t.Errorf("oversized slice read as %d elements", len(s))
	}
}

// TestBoolRejectsOtherBytes checks that a bool byte other than 0 or 1 is
// an error rather than a silent true.
func TestBoolRejectsOtherBytes(t *testing.T) {
	r := NewReader([]byte{2, 1})
	var b bool
	if r.Bool(&b); b || r.Err() == nil {
		t.Fatalf("Bool of byte 2: err %v", r.Err())
	}
	if r.Bool(&b); b {
		t.Error("read after error returned true")
	}
}

// TestMapRejectsUnsortedKeys: a map has one encoding, so entries out of
// key order, or a repeated key, fail the read.
func TestMapRejectsUnsortedKeys(t *testing.T) {
	for _, keys := range [][]int{{2, 1}, {1, 1}} {
		w := NewWriter(nil)
		w.Len(len(keys), 8)
		for i := range keys {
			w.Int(&keys[i])
		}
		var m map[int]struct{}
		r := NewReader(w.Bytes())
		Map(r, &m, 8, cmp.Compare, func(k *int, _ *struct{}) { r.Int(k) })
		if !errors.Is(r.Err(), errMapOrder) {
			t.Errorf("keys %v: err %v, want %v", keys, r.Err(), errMapOrder)
		}
	}
}

func BenchmarkWriterU64s(b *testing.B) {
	words := make([]uint64, 1024)
	b.SetBytes(8 * int64(len(words)))
	w := NewWriter(nil)
	for i := 0; i < b.N; i++ {
		w.buf = w.buf[:0]
		w.U64s(words)
	}
}

func BenchmarkReaderU64s(b *testing.B) {
	words := make([]uint64, 1024)
	w := NewWriter(nil)
	w.U64s(words)
	b.SetBytes(8 * int64(len(words)))
	for i := 0; i < b.N; i++ {
		NewReader(w.Bytes()).U64s(words)
	}
}
