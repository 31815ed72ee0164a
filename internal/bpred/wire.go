package bpred

import "reunion/internal/bin"

// Wire codec for predictor snapshots (checkpoint serialization).

// Encode writes the snapshot.
func (s *PredictorState) Encode(w *bin.Writer) {
	w.Bytes64(s.counters)
	w.Uvarint(uint64(len(s.btbTags)))
	w.U64s(s.btbTags)
	for _, t := range s.btbTargets {
		w.I64(t)
	}
	w.I64(s.lookups)
	w.I64(s.mispredicts)
}

// DecodePredictorState reads a snapshot written by Encode.
func DecodePredictorState(r *bin.Reader) *PredictorState {
	s := &PredictorState{counters: r.Bytes64()}
	n := r.Len(16) // every tag is paired with a target
	s.btbTags = make([]uint64, n)
	r.U64s(s.btbTags)
	s.btbTargets = make([]int64, n)
	for i := range s.btbTargets {
		s.btbTargets[i] = r.I64()
	}
	s.lookups = r.I64()
	s.mispredicts = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// Geometry returns the snapshotted table sizes (bind-time check).
func (s *PredictorState) Geometry() (counters, btb int) {
	return len(s.counters), len(s.btbTags)
}
