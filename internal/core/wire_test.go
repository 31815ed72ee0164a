package core

import (
	"testing"

	"reunion/internal/bin"
)

// A sent interval's reserved debug string is written empty and must read
// back empty: the field keeps the format-v3 bytes and carries nothing.
func TestSentIntervalDebugStringReserved(t *testing.T) {
	si := sentInterval{endSeq: 7, fp: 0xbeef, at: 3, extra: 1, serial: 2, endsMem: true}
	w := bin.NewWriter(nil)
	walkSentInterval(w, &si)
	if got := len(w.Bytes()); got != sentIntervalWireBytes {
		t.Fatalf("encoded %d bytes, want %d", got, sentIntervalWireBytes)
	}
	r := bin.NewReader(w.Bytes())
	var got sentInterval
	if walkSentInterval(r, &got); r.Err() != nil || got != si {
		t.Fatalf("round trip: %+v, %v; want %+v", got, r.Err(), si)
	}

	// The same interval followed by a non-empty string.
	dbg := "pc=1"
	w = bin.NewWriter(w.Bytes()[:len(w.Bytes())-1])
	w.String(&dbg)
	r = bin.NewReader(w.Bytes())
	walkSentInterval(r, &got)
	if r.Err() == nil {
		t.Fatal("a non-empty debug string decoded without error")
	}
}
