package cache

// Touch refreshes a line's LRU stamp exactly as a Lookup hit would: the
// oracle test's Peek-then-Touch path must age a set like Lookup does.
func (a *Array) Touch(l *Line) {
	a.mark(l.Block)
	a.tick++
	l.lru = a.tick
}

// OutstandingMisses reports the number of MSHRs in use.
func (c *L1) OutstandingMisses() int { return len(c.mshrs) - c.free }

// HasPendingFill reports whether a miss for block is outstanding.
func (c *L1) HasPendingFill(block uint64) bool { return c.findMSHR(block) != nil }
