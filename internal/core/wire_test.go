package core

import (
	"testing"

	"reunion/internal/bin"
)

// A sent interval's reserved debug string is written empty and must read
// back empty: the field keeps the format-v3 bytes and carries nothing.
func TestSentIntervalDebugStringReserved(t *testing.T) {
	si := sentInterval{endSeq: 7, fp: 0xbeef, at: 3, extra: 1, serial: 2, endsMem: true}
	w := &bin.Writer{}
	encodeSentInterval(w, &si)
	if got := len(w.Bytes()); got != sentIntervalWireBytes {
		t.Fatalf("encoded %d bytes, want %d", got, sentIntervalWireBytes)
	}
	r := bin.NewReader(w.Bytes())
	if got := decodeSentInterval(r); r.Err() != nil || got != si {
		t.Fatalf("round trip: %+v, %v; want %+v", got, r.Err(), si)
	}

	w = &bin.Writer{}
	w.I64(si.endSeq)
	w.U16(si.fp)
	w.I64(si.at)
	w.I64(si.extra)
	w.Int(si.serial)
	w.Bool(si.endsMem)
	w.String("pc=1")
	r = bin.NewReader(w.Bytes())
	decodeSentInterval(r)
	if r.Err() == nil {
		t.Fatal("a non-empty debug string decoded without error")
	}
}
