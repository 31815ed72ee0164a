package mem

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"reunion/internal/bin"
)

// TestMemoryWalkWritesDeltaOnInit pins the delta encoding: a page equal
// to the init image's is omitted (untouched, or rewritten with the same
// words), a changed page and a page mapped after init are written, and a
// decoded delta laid over the init image is the snapshotted image.
func TestMemoryWalkWritesDeltaOnInit(t *testing.T) {
	m := New()
	for pn := uint64(0); pn < 4; pn++ {
		m.WriteWord(pn*PageBytes, pn+1)
	}
	init := m.Snapshot()
	m.WriteWord(1*PageBytes+8, 9) // changed
	m.WriteWord(2*PageBytes, 3)   // copied, but equal to init
	m.WriteWord(7*PageBytes, 4)   // mapped after init
	s := m.Snapshot()

	if got, want := s.WireBytes(init), 2*pageWireBytes; got != want {
		t.Errorf("WireBytes %d, want %d", got, want)
	}
	w := bin.NewWriter(nil)
	s.Walk(w, init)
	if w.Err() != nil || len(w.Bytes()) != 1+2*pageWireBytes {
		t.Fatalf("encoded %d bytes (err %v), want the count and two pages", len(w.Bytes()), w.Err())
	}
	var d MemoryState
	r := bin.NewReader(w.Bytes())
	if d.Walk(r, nil); r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
	}
	if got := slices.Sorted(maps.Keys(d.pages)); !slices.Equal(got, []uint64{1, 7}) {
		t.Fatalf("delta holds pages %v, want [1 7]", got)
	}
	d.Overlay(init)
	if len(d.pages) != len(s.pages) {
		t.Fatalf("overlaid image maps %d pages, snapshot %d", len(d.pages), len(s.pages))
	}
	for pn, p := range s.pages {
		if *d.pages[pn] != *p {
			t.Errorf("page %d differs after overlay", pn)
		}
	}
	if len(init.pages) != 4 {
		t.Errorf("overlay changed the init image: %d pages", len(init.pages))
	}
}

// TestMemoryWalkRefusesStateWithoutInitPage: memory never unmaps a page,
// so a state that lacks a page of the init image is not a later state of
// it, and encoding it against that image is an error.
func TestMemoryWalkRefusesStateWithoutInitPage(t *testing.T) {
	m := New()
	m.WriteWord(0, 1)
	m.WriteWord(PageBytes, 2)
	init := m.Snapshot()
	other := New()
	other.WriteWord(0, 1)
	w := bin.NewWriter(nil)
	if other.Snapshot().Walk(w, init); !errors.Is(w.Err(), errMissingInitPage) {
		t.Fatalf("encode error %v, want %v", w.Err(), errMissingInitPage)
	}
}

// TestMemoryWalkRejectsPageOutsideAddressSpace: a decoded page number
// whose first byte address overflows 64 bits is an error.
func TestMemoryWalkRejectsPageOutsideAddressSpace(t *testing.T) {
	m := New()
	m.WriteWord(0, 1)
	w := bin.NewWriter(nil)
	m.Snapshot().Walk(w, New().Snapshot())
	blob := w.Bytes()
	blob[1+7] = 0xff // page 0's number, most significant byte
	var d MemoryState
	r := bin.NewReader(blob)
	if d.Walk(r, nil); !errors.Is(r.Err(), errPageRange) {
		t.Fatalf("decode error %v, want %v", r.Err(), errPageRange)
	}
}
