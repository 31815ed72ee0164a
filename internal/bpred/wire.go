package bpred

import "reunion/internal/bin"

// Wire walk for predictor snapshots (checkpoint serialization).

// Walk walks the snapshot. Every BTB tag is paired with a target, so one
// length covers both tables.
func (s *PredictorState) Walk(c *bin.Codec) {
	c.Bytes64(&s.counters)
	n := c.Len(len(s.btbTags), 16)
	if c.Reading() {
		s.btbTags, s.btbTargets = make([]uint64, n), make([]int64, n)
	}
	c.U64s(s.btbTags)
	for i := range s.btbTargets {
		c.I64(&s.btbTargets[i])
	}
	c.I64(&s.lookups)
	c.I64(&s.mispredicts)
}

// Geometry returns the snapshotted table sizes (bind-time check).
func (s *PredictorState) Geometry() (counters, btb int) {
	return len(s.counters), len(s.btbTags)
}
