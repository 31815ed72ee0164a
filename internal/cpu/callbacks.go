package cpu

import "reunion/internal/cache"

// Complete implements cache.Client: an L1 fill hands back the descriptor
// of each waiter it completes, with the filled word, and the core
// dispatches on its kind. The live pipeline and a machine bound from a
// checkpoint run this one path; the guards (fetch epoch, ROB slot seq and
// epoch, pair generation) make a completion that outlived its access a
// no-op.
func (c *Core) Complete(cb *cache.CB, v uint64) {
	c.dirty = true
	switch cb.Kind {
	case cache.CBIfetchDone:
		// Clear the icache wait unless fetch has since been redirected.
		if c.fetchEpoch == cb.Epoch {
			c.icacheWait = false
		}
	case cache.CBLoadDone:
		if e := &c.rob[cb.Idx]; e.Seq == cb.Seq && e.Epoch == cb.Epoch && e.state == stIssued {
			e.Result = int64(v)
			e.doneAt, e.hasDoneAt = c.EQ.Now()+1, true
		}
	case cache.CBStoreDone:
		c.storeDone(cb.Seq)
	case cache.CBAtomicBegin, cache.CBAtomicFin:
		// The fill locked the line. Record the old value and CAS outcome,
		// or — when the entry was squashed mid-flight — release the lock.
		e := &c.rob[cb.Idx]
		if e.Seq != cb.Seq || e.Epoch != cb.Epoch {
			c.L1D.AtomicEnd(cb.Block, cb.Word, 0, false)
			return
		}
		e.Result = int64(v)
		e.casSuccess = int64(v) == e.src3
		e.casNew = e.src2
		e.doneAt, e.hasDoneAt = c.EQ.Now()+1, true
	case cache.CBSyncWrap:
		c.Gate.SyncDone(c, cb.Gen)
		c.Complete(cb.Inner, v)
	}
}

// storeDone pops the drained store buffer head, on a drain hit or when
// the drain's miss completes.
func (c *Core) storeDone(seq int64) {
	c.dirty = true
	if len(c.sb) == 0 || c.sb[0].seq != seq {
		panic("cpu: store buffer drained out of order")
	}
	copy(c.sb, c.sb[1:])
	c.sb = c.sb[:len(c.sb)-1]
	c.sbNonspec--
	c.sbDraining = false
	c.noteWake() // a serializing entry may be waiting on sb drain
}

// ROBLen returns the reorder-buffer capacity. The checkpoint binder
// bounds-checks decoded descriptors' ROB slots against it before any
// completion can index the buffer.
func (c *Core) ROBLen() int { return len(c.rob) }
