package bin

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestRoundTrip writes one value through every writer method and reads
// it back through the matching reader method.
func TestRoundTrip(t *testing.T) {
	words := []uint64{0, 1, math.MaxUint64, 0x0123456789abcdef}
	w := &Writer{}
	w.Raw([]byte("RAW"))
	w.U8(0xfe)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(-7)
	w.Uvarint(300)
	w.Bytes64([]byte{1, 2, 3})
	w.String("reunion")
	w.U64s(words)
	w.U64s(nil)

	if !bytes.HasPrefix(w.Bytes(), []byte("RAW")) {
		t.Fatalf("Raw: output starts %q", w.Bytes()[:3])
	}
	r := NewReader(w.Bytes()[3:])
	check := func(name string, got, want any) {
		t.Helper()
		if got != want {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	check("U8", r.U8(), uint8(0xfe))
	check("Bool true", r.Bool(), true)
	check("Bool false", r.Bool(), false)
	check("U16", r.U16(), uint16(0xbeef))
	check("U32", r.U32(), uint32(0xdeadbeef))
	check("U64", r.U64(), uint64(0x0123456789abcdef))
	check("I64", r.I64(), int64(-42))
	check("Int", r.Int(), -7)
	check("Uvarint", r.Uvarint(), uint64(300))
	if got := r.Bytes64(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes64: got %v", got)
	}
	check("String", r.String(), "reunion")
	got := make([]uint64, len(words))
	r.U64s(got)
	for i := range words {
		check("U64s", got[i], words[i])
	}
	r.U64s(nil)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("after reading everything: err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestU64sMatchesU64 pins the bulk writer to the per-word bytes: the wire
// format must not depend on which of the two a codec uses.
func TestU64sMatchesU64(t *testing.T) {
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	bulk, each := &Writer{}, &Writer{}
	bulk.U8(1)
	each.U8(1)
	bulk.U64s(words)
	for _, v := range words {
		each.U64(v)
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
// input is ErrTruncated, dst comes back zeroed, and the error sticks.
func TestU64sTruncated(t *testing.T) {
	w := &Writer{}
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
	if v := r.U32(); v != 0 || r.Remaining() != 20 {
		t.Errorf("read after error: got %d with %d bytes left, want 0 with 20", v, r.Remaining())
	}
	dst = []uint64{7}
	r.U64s(dst)
	if dst[0] != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("U64s after error: dst %v, err %v", dst, r.Err())
	}
}

// TestGrow checks that Grow reserves room without changing the output,
// and that growing in small steps stays amortized.
func TestGrow(t *testing.T) {
	w := &Writer{}
	w.Grow(0)
	w.U32(0xcafef00d)
	before := append([]byte(nil), w.Bytes()...)
	w.Grow(1000)
	if !bytes.Equal(w.Bytes(), before) {
		t.Fatal("Grow changed Bytes()")
	}
	if c := cap(w.Bytes()); c < len(before)+1000 {
		t.Fatalf("cap %d after Grow(1000), want at least %d", c, len(before)+1000)
	}
	if got := testing.AllocsPerRun(10, func() {
		var w Writer
		for i := 0; i < 1<<16; i++ {
			w.Grow(1)
			w.U8(uint8(i))
		}
	}); got > 20 {
		t.Errorf("%v allocations growing one byte at a time to 64 KiB; growth is not amortized", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Grow(-1) did not panic")
		}
	}()
	w.Grow(-1)
}

// TestLenBound checks that a declared length longer than the input left
// is refused before anything is allocated for it.
func TestLenBound(t *testing.T) {
	w := &Writer{}
	w.Uvarint(3)
	w.U64(1)
	w.U64(2)
	r := NewReader(w.Bytes())
	if n := r.Len(8); n != 0 || r.Err() == nil {
		t.Fatalf("Len(8) of 3 with 16 bytes left: got %d, err %v", n, r.Err())
	}
	if v := r.U64(); v != 0 {
		t.Errorf("read after error: got %d", v)
	}
	r = NewReader(w.Bytes())
	if n := r.Len(4); n != 3 || r.Err() != nil {
		t.Errorf("Len(4) of 3 with 16 bytes left: got %d, err %v", n, r.Err())
	}
}

// TestBoolRejectsOtherBytes checks that a bool byte other than 0 or 1 is
// an error rather than a silent true.
func TestBoolRejectsOtherBytes(t *testing.T) {
	r := NewReader([]byte{2, 1})
	if r.Bool() || r.Err() == nil {
		t.Fatalf("Bool of byte 2: err %v", r.Err())
	}
	if r.Bool() {
		t.Error("read after error returned true")
	}
}

func BenchmarkWriterU64s(b *testing.B) {
	words := make([]uint64, 1024)
	b.SetBytes(8 * int64(len(words)))
	w := &Writer{}
	for i := 0; i < b.N; i++ {
		w.buf = w.buf[:0]
		w.U64s(words)
	}
}

func BenchmarkReaderU64s(b *testing.B) {
	words := make([]uint64, 1024)
	w := &Writer{}
	w.U64s(words)
	b.SetBytes(8 * int64(len(words)))
	for i := 0; i < b.N; i++ {
		NewReader(w.Bytes()).U64s(words)
	}
}
