package tlb

import "reunion/internal/bin"

// Wire walk for TLB snapshots (checkpoint serialization).

// Walk walks the snapshot.
func (s *TLBState) Walk(c *bin.Codec) {
	bin.Slice(c, &s.entries, 8+1+8, func(e *entry) {
		c.U64(&e.page)
		c.Bool(&e.valid)
		c.I64(&e.lru)
	})
	c.I64(&s.tick)
	c.I64(&s.hits)
	c.I64(&s.misses)
}

// Entries returns the number of snapshotted entries (geometry check at
// bind time).
func (s *TLBState) Entries() int { return len(s.entries) }
