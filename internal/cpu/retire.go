package cpu

import (
	"reunion/internal/isa"
	"reunion/internal/mem"
	"reunion/internal/tlb"
)

// offer moves executed instructions, in order, into the check stage: the
// TLB is consulted on the committed path, the fingerprint of the
// instruction's architectural updates is accumulated, and the gate is
// notified. Offered instructions keep their ROB entry until the gate
// releases them (the check-occupancy overhead of §5.2).
func (c *Core) offer() {
	now := c.EQ.Now()
	for n := 0; n < c.Cfg.RetireWidth; n++ {
		if c.offerIdx >= c.robCount || c.offerIdx >= c.Cfg.CheckQCap {
			return
		}
		e := &c.rob[c.robIdx(c.offerIdx)]
		if e.state != stDone {
			if e.state == stDispatched && e.Serializing {
				// The serializing instruction cannot even execute until
				// everything older retires; end the interval now.
				c.flushInterval(e.Seq - 1)
			}
			return
		}
		if !e.tlbChecked && !c.checkTLB(e, now) {
			// Stalled waiting to become the commit head (software TLB
			// handler): end the open interval so older instructions can
			// compare and retire.
			c.flushInterval(e.Seq - 1)
			return
		}
		if now < e.offerAfter {
			return
		}
		if e.Serializing && e.Seq != c.commitSeq {
			// A serializing instruction (including one made serializing by
			// a software TLB miss) enters check only once it is the
			// oldest unretired instruction; flush the interval ahead of it.
			c.flushInterval(e.Seq - 1)
			return
		}

		// Soft-error injection point: a transient flips a result bit in
		// the unprotected datapath before it reaches the check stage.
		if c.faultArmed && e.In.WritesReg() {
			e.Result ^= 1 << c.faultBit
			c.faultArmed = false
			c.faultSeq = e.Seq
			if c.OnFaultFired != nil {
				c.OnFaultFired()
			}
		}

		// Fingerprint the architectural updates (paper §4.3).
		in := e.In
		isStore := in.IsStore() || (in.IsAtomic() && e.casSuccess) || in.IsNonIdempotent()
		var stAddr, stData uint64
		switch {
		case in.IsStore():
			stAddr, stData = e.EA, uint64(e.src2)
		case in.IsAtomic():
			stAddr, stData = e.EA, uint64(e.casNew)
		case in.IsNonIdempotent():
			// Uncacheable accesses contribute their address (paper §4.4).
			stAddr, stData = e.EA, uint64(e.Result)
		}
		c.fpGen.Instruction(in.WritesReg(), in.Rd, e.Result,
			in.IsBranch(), e.Taken, e.Target, isStore, stAddr, stData)

		c.intervalCount++
		send := c.intervalCount >= c.Cfg.FPInterval ||
			e.Serializing || in.Op == isa.Halt || c.Gate.Stepping(c)
		var fp uint16
		if send {
			fp = c.fpGen.Value()
			c.fpGen.Reset()
			c.intervalCount = 0
		}
		e.state = stOffered
		e.OfferedAt = now
		c.offerIdx++
		c.noteProgress()
		c.Gate.Offer(c, e, send, fp)
	}
}

// flushInterval ends the open comparison interval at endSeq (§4.4).
func (c *Core) flushInterval(endSeq int64) {
	if c.intervalCount == 0 {
		return
	}
	c.noteProgress()
	fp := c.fpGen.Value()
	c.fpGen.Reset()
	c.intervalCount = 0
	c.Gate.FlushInterval(c, endSeq, fp)
}

// checkTLB performs the committed-path TLB inspection for an entry.
// Returns false if the offer must stall this cycle.
//
// TLB state is maintained on the committed stream so the vocal and mute
// TLBs of a pair stay exactly identical and software handlers fire at the
// same instruction on both cores (see package tlb). Hardware-managed
// misses charge a walk latency; software-managed misses make the
// instruction serializing and add the handler's compare exposures.
func (c *Core) checkTLB(e *Entry, now int64) bool {
	ipage := mem.PageOf(c.Thread.PCAddr(e.PC))
	var dpage uint64
	isMem := e.In.IsMem()
	if isMem {
		dpage = mem.PageOf(e.EA)
	}
	// The side-effect-free Probe pre-pass only matters under software
	// TLB management (a would-miss must stall until the entry is the
	// commit head); hardware walks never stall here, so skip the probes.
	if c.Cfg.TLB.Mode == tlb.Software && e.Seq != c.commitSeq {
		if !c.ITLB.Probe(ipage) || (isMem && !c.DTLB.Probe(dpage)) {
			// The software handler traps; it runs only with all older
			// instructions compared and retired.
			return false
		}
	}
	// Past the software-handler stall check, the entry's TLB state mutates
	// exactly once (tlbChecked latches below).
	c.noteProgress()
	misses := 0
	if !c.ITLB.Access(ipage) {
		c.Stats.ITLBMisses++
		misses++
	}
	if isMem && !c.DTLB.Access(dpage) {
		c.Stats.DTLBMisses++
		misses++
	}
	e.tlbChecked = true
	if misses == 0 {
		return true
	}
	if c.Cfg.TLB.Mode == tlb.Software {
		// UltraSPARC III fast miss handler: 2 traps + 3 non-idempotent MMU
		// accesses + handler body, all before this instruction retires.
		// The serializing compare exposures are charged by the gate; the
		// trap also flushes the pipeline, so younger instructions must not
		// issue until this instruction retires — raise the issue fence
		// (discovered at check time, so already-executing instructions
		// legitimately drain).
		e.SerialCount += c.Cfg.TLB.HandlerSerializers * misses
		e.ExtraCheck += c.Cfg.TLB.HandlerBody * int64(misses)
		// The trap flushes the pipeline: younger work is squashed and
		// refetched, and nothing younger issues until this retires.
		c.squashYounger(e)
		if !e.Serializing {
			e.Serializing = true
			if len(c.serQ) == 0 || c.serQ[0] != e.Seq {
				c.serQ = append([]int64{e.Seq}, c.serQ...)
			}
		}
		return true
	}
	// Hardware walk: fixed-latency refill delays the check.
	e.offerAfter = now + c.Cfg.TLB.WalkLatency*int64(misses)
	return now >= e.offerAfter
}

// finalize retires offered head instructions whose comparison the gate has
// released: results reach the architectural register file and stores move
// to the non-speculative store buffer (safe state, §4.3).
func (c *Core) finalize() {
	for n := 0; n < c.Cfg.RetireWidth; n++ {
		e := c.head()
		if e == nil || e.state != stOffered {
			return
		}
		if !c.Gate.FinalizeReady(c, e) {
			return
		}
		c.noteProgress()
		// Retirement changes everything a blocked evaluation can depend
		// on: architectural values, the serialize fence, the commit point.
		c.noteWake()
		in := e.In
		if in.WritesReg() && in.Rd != 0 {
			c.arf[in.Rd] = e.Result
		}
		switch {
		case in.IsStore():
			if s := c.sbFind(e.Seq); s != nil {
				s.nonspec = true
				c.sbNonspec++
			}
			c.Stats.CommittedStores++
		case in.IsAtomic():
			c.L1D.AtomicEnd(mem.BlockAddr(e.EA), wordIndex(e.EA), uint64(e.casNew), e.casSuccess)
		case in.IsLoad():
			c.Stats.CommittedLoads++
		case in.Op == isa.DevLd:
			c.Stats.DevReads++
			c.devCount++
		case in.Op == isa.Halt:
			c.halted = true
		}
		if e.Serializing {
			c.Stats.Serializing++
		}
		if in.Rd != 0 && in.WritesReg() {
			if ref := c.rename[in.Rd]; ref.valid && ref.seq == e.Seq {
				c.rename[in.Rd] = renameRef{}
			}
		}
		if len(c.serQ) > 0 && c.serQ[0] == e.Seq {
			c.serQ = c.serQ[1:]
		}
		if in.IsBranch() {
			c.commitPC = e.Target
		} else {
			c.commitPC = e.PC + 1
		}
		c.commitSeq = e.Seq + 1
		c.Stats.Committed++
		c.digestCommit(e)
		if c.faultSeq == e.Seq {
			c.FaultRetired++
			c.faultSeq = -1
		}

		e.state = stFree
		c.robHead = c.robIdx(1)
		c.robCount--
		c.offerIdx--
		if c.halted {
			return
		}
	}
}

// squashYounger flushes everything younger than e (branch misprediction,
// or a trap such as the software TLB miss handler) and redirects fetch to
// e's successor: the resolved target for branches, the next sequential
// instruction otherwise.
func (c *Core) squashYounger(e *Entry) {
	pos := -1
	for i := 0; i < c.robCount; i++ {
		if c.rob[c.robIdx(i)].Seq == e.Seq {
			pos = i
			break
		}
	}
	if pos < 0 {
		panic("cpu: squashYounger on entry not in ROB")
	}
	for i := pos + 1; i < c.robCount; i++ {
		idx := c.robIdx(i)
		c.rob[idx].state = stFree
		// A squashed consumer parked in the waiter chains must unlink
		// before its slot (or a surviving producer's chain) is reused.
		c.unregisterAll(idx)
	}
	c.robCount = pos + 1
	// The active list is seq-ordered, so the squashed entries form a
	// suffix. (Seq survives the state clear above; when called from the
	// issue scan the list may hold already-compacted duplicates below the
	// current position, but the backward scan stops at e before reaching
	// them.)
	n := len(c.active)
	for n > 0 && c.active[n-1].seq > e.Seq {
		n--
	}
	c.active = c.active[:n]
	c.noteWake() // squashed producers resolve dependents to the ARF
	if c.faultSeq > e.Seq {
		c.FaultSquashed++
		c.faultSeq = -1
	}
	c.rebuildRename()
	// Drop younger speculative stores.
	for i := 0; i < len(c.sb); i++ {
		if c.sb[i].seq > e.Seq {
			c.sb = c.sb[:i]
			break
		}
	}
	// Drop younger serializing fences.
	for i, s := range c.serQ {
		if s > e.Seq {
			c.serQ = c.serQ[:i]
			break
		}
	}
	c.fq = c.fq[:0]
	if e.In.IsBranch() {
		c.fetchPC = e.Target
	} else {
		c.fetchPC = e.PC + 1
	}
	c.fetchSeq = e.Seq + 1
	c.fetchHalted = false
	c.icacheWait = false
	c.haveIBlock = false
	c.fetchEpoch++
	c.epoch++
}

func (c *Core) rebuildRename() {
	c.rename = [isa.NumRegs]renameRef{}
	for i := 0; i < c.robCount; i++ {
		idx := c.robIdx(i)
		e := &c.rob[idx]
		if e.state != stFree && e.In.WritesReg() && e.In.Rd != 0 {
			c.rename[e.In.Rd] = renameRef{valid: true, rob: idx, seq: e.Seq}
		}
	}
}

// SquashAll performs precise-exception rollback to the committed state:
// the pipeline empties, speculative stores are discarded, and fetch
// restarts at the commit point. The non-speculative store buffer (safe
// state) is preserved and continues draining. Used by rollback recovery
// (Definition 8).
func (c *Core) SquashAll() {
	c.dirty = true // invoked from recovery (event context)
	c.noteWake()
	for i := 0; i < c.robCount; i++ {
		c.rob[c.robIdx(i)].state = stFree
	}
	if c.faultSeq >= 0 {
		c.FaultSquashed++
		c.faultSeq = -1
	}
	c.robCount = 0
	c.offerIdx = 0
	c.active = c.active[:0]
	c.initWaiters() // the whole window is gone; empty every chain
	c.rename = [isa.NumRegs]renameRef{}
	// Keep only non-speculative stores.
	keep := c.sb[:0]
	for i := range c.sb {
		if c.sb[i].nonspec {
			keep = append(keep, c.sb[i])
		}
	}
	c.sb = keep
	c.sbNonspec = len(keep)
	c.fq = c.fq[:0]
	c.inExec = c.inExec[:0]
	c.serQ = c.serQ[:0]
	c.fetchPC = c.commitPC
	c.fetchSeq = c.commitSeq
	c.fetchHalted = false
	c.icacheWait = false
	c.haveIBlock = false
	c.fetchEpoch++
	c.epoch++
	c.L1D.UnlockAll()
	c.fpGen.Reset()
	c.intervalCount = 0
}
