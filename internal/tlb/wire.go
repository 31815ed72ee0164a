package tlb

import "reunion/internal/bin"

// Wire codec for TLB snapshots (checkpoint serialization).

// Encode writes the snapshot.
func (s *TLBState) Encode(w *bin.Writer) {
	w.Uvarint(uint64(len(s.entries)))
	for _, e := range s.entries {
		w.U64(e.page)
		w.Bool(e.valid)
		w.I64(e.lru)
	}
	w.I64(s.tick)
	w.I64(s.hits)
	w.I64(s.misses)
}

// DecodeTLBState reads a snapshot written by Encode.
func DecodeTLBState(r *bin.Reader) *TLBState {
	s := &TLBState{}
	n := r.Len(8 + 1 + 8)
	s.entries = make([]entry, 0, n)
	for i := 0; i < n; i++ {
		s.entries = append(s.entries, entry{page: r.U64(), valid: r.Bool(), lru: r.I64()})
	}
	s.tick = r.I64()
	s.hits = r.I64()
	s.misses = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// Entries returns the number of snapshotted entries (geometry check at
// bind time).
func (s *TLBState) Entries() int { return len(s.entries) }
