package core

import (
	"testing"

	"reunion/internal/bin"
)

// A sent interval round-trips through its walk in exactly
// sentIntervalWireBytes, the size Slice bounds decoded lengths by.
func TestSentIntervalRoundTrip(t *testing.T) {
	si := sentInterval{endSeq: 7, fp: 0xbeef, at: 3, extra: 1, serial: 2, endsMem: true}
	w := bin.NewWriter(nil)
	walkSentInterval(w, &si)
	if got := len(w.Bytes()); got != sentIntervalWireBytes {
		t.Fatalf("encoded %d bytes, want %d", got, sentIntervalWireBytes)
	}
	r := bin.NewReader(w.Bytes())
	var got sentInterval
	if walkSentInterval(r, &got); r.Err() != nil || r.Remaining() != 0 || got != si {
		t.Fatalf("round trip: %+v, %v, %d bytes left; want %+v", got, r.Err(), r.Remaining(), si)
	}
}
