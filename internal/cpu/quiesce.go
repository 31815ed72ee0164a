package cpu

// This file implements the core's side of the sim.Tickable quiescence
// contract. The invariant the fast-forward kernel relies on: after a Tick
// in which no stage changed state (progress false) and no self-clearing
// structural blocker was seen (volatileStall false), re-ticking the core
// is a no-op except for the per-cycle accounting AccountIdle replays —
// until either a scheduled event fires (a cache fill, a comparison
// decision, an interrupt boundary) or one of the known latencies below
// expires. Every time-dependent condition in the pipeline is enumerated
// here; anything not enumerated must resolve through an event or through
// another component's activity, both of which end a fast-forward.

// QuiesceWake implements sim.Tickable: the verdict latched by the last
// full Tick (still valid across self-tick short-circuits, which change
// nothing).
func (c *Core) QuiesceWake() (int64, bool) {
	if c.halted {
		return 0, true // Tick returns immediately on a halted core
	}
	return c.selfWake, c.selfQuiet
}

// computeWake enumerates the pipeline's time-triggered conditions after a
// tick with no progress and no volatile blocker, returning the earliest
// future cycle one of them fires (0 = only an event can wake the core).
func (c *Core) computeWake() int64 {
	now := c.EQ.Now()
	wake := int64(0)
	upd := func(t int64) {
		if t > now && (wake == 0 || t < wake) {
			wake = t
		}
	}

	// Execution completions: entries with a known finish cycle transition
	// to Done in completeExec at that cycle. Entries without one wait on a
	// fill's completion (an event).
	for _, idx := range c.inExec {
		e := &c.rob[idx]
		if e.state == stIssued && e.hasDoneAt {
			upd(e.doneAt)
		}
	}

	// Front end: the oldest fetched slot dispatches once its front-depth
	// delay elapses. A stale readyAt with dispatch structurally blocked is
	// filtered by upd (waking early would only hit a no-op tick anyway).
	if len(c.fq) > 0 {
		upd(c.fq[0].readyAt)
	}

	// Check entry: a hardware TLB walk delays the offer to a known cycle.
	if c.offerIdx < c.robCount && c.offerIdx < c.Cfg.CheckQCap {
		if e := &c.rob[c.robIdx(c.offerIdx)]; e.state == stDone && e.tlbChecked {
			upd(e.offerAfter)
		}
	}

	// Retirement: the gate knows when a pending comparison decision
	// completes. 0 means the decision itself waits on an event.
	if h := c.head(); h != nil && h.state == stOffered {
		upd(c.Gate.RetireWake(c, h))
	}

	return wake
}

// AccountIdle implements sim.Tickable: the per-cycle accounting n skipped
// quiescent cycles would have accrued. The occupancy integrals use the
// current (frozen) window state; the stall rates were recorded by the last
// real Tick and are constant while the core is quiescent.
func (c *Core) AccountIdle(n int64) {
	if c.halted {
		return
	}
	c.Stats.Cycles += n
	c.Stats.ROBOccupancy += n * int64(c.robCount)
	c.Stats.CheckOccupancy += n * int64(c.offerIdx)
	c.Stats.IssueStallSer += n * c.idleSerStalls
	c.Stats.SBFullStalls += n * c.idleSBFull
}
