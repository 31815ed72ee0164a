package cpu

import (
	"reunion/internal/cache"
	"reunion/internal/isa"
	"reunion/internal/mem"
)

// Tick advances the core by one cycle. Stages run back-to-front so an
// instruction moves at most one stage per cycle.
//
// Under the fast-forward kernel a core that proved itself quiescent on
// its previous full tick — and has not been dirtied by an event or
// reached its self-wake cycle since — short-circuits to the idle
// accounting a full quiescent tick would perform. This is what makes a
// one-active-core phase cheap: the stalled cores tick in O(1) instead of
// re-scanning their windows.
func (c *Core) Tick() {
	if c.halted {
		return
	}
	if c.selfQuiet && !c.pollEvery && !c.dirty &&
		(c.selfWake == 0 || c.EQ.Now() < c.selfWake) {
		c.AccountIdle(1)
		return
	}
	c.dirty = false
	c.Stats.Cycles++
	c.Stats.ROBOccupancy += int64(c.robCount)
	c.Stats.CheckOccupancy += int64(c.offerIdx)
	c.loadsThisCycle, c.storesThisCycle = 0, 0
	c.progress, c.volatileStall = false, false
	c.idleSerStalls, c.idleSBFull = 0, 0

	c.finalize()
	c.offer()
	c.completeExec()
	c.issue()
	c.drainSB()
	c.dispatch()
	c.fetch()

	c.selfQuiet = !c.progress && !c.volatileStall
	if c.selfQuiet {
		c.selfWake = c.computeWake()
	}
}

// --- fetch ----------------------------------------------------------------

func (c *Core) fetch() {
	if c.fetchHalted || c.icacheWait {
		return
	}
	stepping := c.Gate.Stepping(c)
	if stepping && (c.robCount > 0 || len(c.fq) > 0 || len(c.sb) > 0) {
		// Single-step: one instruction in flight at a time, and the store
		// buffer fully drained between steps. Draining keeps the two
		// cores' forwarding state identical, so both members of the pair
		// make the same synchronizing-request decision at the first load.
		return
	}
	now := c.EQ.Now()
	width := c.Cfg.FetchWidth
	if stepping {
		width = 1
	}
	for n := 0; n < width && len(c.fq) < c.Cfg.FetchQCap; n++ {
		in, ok := c.Thread.Fetch(c.fetchPC)
		if !ok {
			return // wild PC (divergent speculation); stall until redirect
		}
		// Instruction cache access, one lookup per block transition.
		block := mem.BlockAddr(c.Thread.PCAddr(c.fetchPC))
		if !c.haveIBlock || block != c.curIBlock {
			switch c.L1I.Ifetch(block, cache.CB{Kind: cache.CBIfetchDone, Core: c.ID, Epoch: c.fetchEpoch}) {
			case cacheRetry:
				c.volatileStall = true
				return
			case cacheMiss:
				c.icacheWait = true
				c.noteProgress()
				return
			}
			c.curIBlock = block
			c.haveIBlock = true
			c.noteProgress()
		}
		slot := fqSlot{seq: c.fetchSeq, pc: c.fetchPC, in: in, readyAt: now + c.Cfg.FrontDepth}
		taken := false
		switch {
		case in.IsCondBranch():
			t, _, _ := c.BP.Predict(c.fetchPC)
			slot.predTaken = t
			slot.predTarget = in.Imm // direct target, known at decode
			taken = t
		case in.Op == isa.Jmp:
			slot.predTaken = true
			slot.predTarget = in.Imm
			taken = true
		case in.Op == isa.Jr:
			_, tgt, ok := c.BP.Predict(c.fetchPC)
			slot.predTaken = true
			if ok {
				slot.predTarget = tgt
			} else {
				slot.predTarget = -1 // unknown; resolves as mispredict
			}
			taken = true
		}
		c.fq = append(c.fq, slot)
		c.fetchSeq++
		c.noteProgress()
		if in.Op == isa.Halt {
			c.fetchHalted = true
			return
		}
		if taken {
			if slot.predTarget < 0 {
				// Unknown indirect target: stall fetch; the branch
				// resolves as a mispredict and redirects.
				c.fetchPC = -1
				c.haveIBlock = false
				return
			}
			c.fetchPC = slot.predTarget
			c.haveIBlock = false
			return // taken branch ends the fetch group
		}
		c.fetchPC++
	}
}

// --- dispatch ---------------------------------------------------------------

func (c *Core) dispatch() {
	now := c.EQ.Now()
	for n := 0; n < c.Cfg.DispatchWidth; n++ {
		if len(c.fq) == 0 || c.fq[0].readyAt > now {
			return
		}
		if c.robCount >= len(c.rob) {
			return
		}
		slot := c.fq[0]
		if slot.in.IsStore() && !c.sbHasRoom() {
			c.Stats.SBFullStalls++
			c.idleSBFull++
			return
		}
		copy(c.fq, c.fq[1:])
		c.fq = c.fq[:len(c.fq)-1]
		c.noteProgress()

		idx := c.robIdx(c.robCount)
		e := &c.rob[idx]
		*e = Entry{
			Seq: slot.seq, PC: slot.pc, In: slot.in, Epoch: c.epoch,
			state:      stDispatched,
			predTaken:  slot.predTaken,
			predTarget: slot.predTarget,
			src1Rob:    -1, src2Rob: -1, src3Rob: -1,
		}
		c.robCount++

		in := slot.in
		if in.ReadsRs1() {
			c.captureSource(e, in.Rs1, &e.src1, &e.src1Rob, &e.src1Seq, &e.src1Reg, &e.src1Ready)
		} else {
			e.src1Ready = true
		}
		if in.ReadsRs2() {
			c.captureSource(e, in.Rs2, &e.src2, &e.src2Rob, &e.src2Seq, &e.src2Reg, &e.src2Ready)
		} else {
			e.src2Ready = true
		}
		if in.ReadsRdAsSource() {
			c.captureSource(e, in.Rd, &e.src3, &e.src3Rob, &e.src3Seq, &e.src3Reg, &e.src3Ready)
		} else {
			e.src3Ready = true
		}
		if in.WritesReg() && in.Rd != 0 {
			c.rename[in.Rd] = renameRef{valid: true, rob: idx, seq: e.Seq}
		}
		if in.IsStore() {
			c.sb = append(c.sb, sbEntry{seq: e.Seq})
		}
		e.Serializing = in.IsSerializing() || (c.Cfg.Consistency == SC && in.IsStore())
		if e.Serializing {
			c.serQ = append(c.serQ, e.Seq)
		}
		// A fresh entry carries no park memo, so the first scan always
		// evaluates it. It is the youngest in flight, so appending keeps
		// the list seq-ordered.
		c.active = append(c.active, dispEntry{seq: e.Seq, stamp: -1, idx: int32(idx)})
	}
}

func (c *Core) sbHasRoom() bool { return len(c.sb) < c.Cfg.SBSize }

func (c *Core) captureSource(e *Entry, reg uint8, val *int64, rob *int, seq *int64, regOut *uint8, ready *bool) {
	*regOut = reg
	if reg == 0 {
		*val, *ready = 0, true
		return
	}
	ref := c.rename[reg]
	if !ref.valid {
		*val, *ready = c.arf[reg], true
		return
	}
	p := &c.rob[ref.rob]
	if p.Seq == ref.seq && (p.state == stDone || p.state == stOffered) {
		*val, *ready = p.Result, true
		return
	}
	if p.Seq != ref.seq || p.state == stFree {
		// Producer already retired; the value is architectural.
		*val, *ready = c.arf[reg], true
		return
	}
	*rob, *seq, *ready = ref.rob, ref.seq, false
}

// --- issue and execute ------------------------------------------------------

// serializeFence returns the seq of the oldest in-flight serializing
// instruction, or -1.
func (c *Core) serializeFence() int64 {
	if len(c.serQ) == 0 {
		return -1
	}
	return c.serQ[0]
}

// issue walks the active list (the stDispatched entries the scan can act
// on, in age order) rather than the whole ROB ring: in reunion mode the
// window is dominated by offered entries awaiting comparison, and under
// the fast-forward kernel operand-blocked entries sit in the waiter
// chains rather than the list. The list is compacted in place; entries
// that begin execution drop out, entries that park on pending operands
// drop into the waiter chains, and a tail cut off by the serialize fence
// or the issue width is preserved unexamined.
func (c *Core) issue() {
	if len(c.active) == 0 {
		return
	}
	// Whole-scan memo: a previous scan proved every entry parked at this
	// wake stamp, and the list has not changed since — nothing to do.
	if !c.pollEvery && c.issueIdleLen == len(c.active) && c.issueIdleStamp == c.execStamp {
		return
	}
	now := c.EQ.Now()
	fence := c.serializeFence()
	issued := 0
	allParked := true
	keep, i := 0, 0
	for ; i < len(c.active) && issued < c.Cfg.IssueWidth; i++ {
		d := c.active[i]
		if fence >= 0 && d.seq > fence {
			break // nothing younger than an unretired serializing instr executes
		}
		// Quiet-park memo (fast-forward kernel): a listed entry blocked on
		// memory disambiguation is skipped — without touching its ROB
		// entry — until any wake-worthy state change. Ready-but-stalled
		// serializing entries carry no memo (their stall accrues a
		// per-cycle statistic below).
		if !c.pollEvery && d.stamp == c.execStamp {
			if keep != i {
				c.active[keep] = d
			}
			keep++
			continue
		}
		idx := int(d.idx)
		e := &c.rob[idx]
		if e.state != stDispatched {
			allParked = false // the list shrinks; revalidate next scan
			continue          // left the dispatched state mid-scan; drop
		}
		// Operand poll, inlined (this is the hottest code in the core).
		if !e.src1Ready {
			p := &c.rob[e.src1Rob]
			if p.Seq == e.src1Seq && (p.state == stDone || p.state == stOffered) {
				e.src1, e.src1Ready = p.Result, true
			} else if p.Seq != e.src1Seq || p.state == stFree {
				e.src1, e.src1Ready = c.arf[e.src1Reg], true
			}
		}
		if !e.src2Ready {
			p := &c.rob[e.src2Rob]
			if p.Seq == e.src2Seq && (p.state == stDone || p.state == stOffered) {
				e.src2, e.src2Ready = p.Result, true
			} else if p.Seq != e.src2Seq || p.state == stFree {
				e.src2, e.src2Ready = c.arf[e.src2Reg], true
			}
		}
		if !e.src3Ready {
			p := &c.rob[e.src3Rob]
			if p.Seq == e.src3Seq && (p.state == stDone || p.state == stOffered) {
				e.src3, e.src3Ready = p.Result, true
			} else if p.Seq != e.src3Seq || p.state == stFree {
				e.src3, e.src3Ready = c.arf[e.src3Reg], true
			}
		}
		if !e.src1Ready || !e.src2Ready || !e.src3Ready {
			// Operand park: every still-unready producer is pending (the
			// poll above would have captured any other), so the entry
			// leaves the list and chains onto each of them; the first
			// completion re-inserts it — exactly when a re-poll would
			// first capture a value. Parking writes nothing to the ROB
			// entry, so it still counts toward an all-parked idle scan.
			// The naive kernel parks nothing and re-polls next cycle.
			if !c.pollEvery {
				if !e.src1Ready {
					c.register(idx, e.src1Rob, 0)
				}
				if !e.src2Ready {
					c.register(idx, e.src2Rob, 1)
				}
				if !e.src3Ready {
					c.register(idx, e.src3Rob, 2)
				}
				continue // dropped from the list
			}
			if keep != i {
				c.active[keep] = d
			}
			keep++
			continue
		}
		if e.Serializing {
			// Serializing semantics: execute only at the head, after all
			// older instructions have been compared and retired, with the
			// non-speculative store buffer drained.
			if e.Seq != c.commitSeq || c.sbNonspec > 0 {
				c.Stats.IssueStallSer++
				c.idleSerStalls++
				allParked = false // the stall statistic accrues per cycle
				if keep != i {
					c.active[keep] = d
				}
				keep++
				continue
			}
		}
		allParked = false
		res := c.execute(idx, e, now)
		// execute can squash: a mispredicted branch prunes the list's
		// suffix (leaving this entry at position i), and a rollback
		// recovery reached through the gate's synchronizing-request path
		// clears the whole window — and with it this list — out from
		// under the scan. In the latter case the cleared list is already
		// authoritative: apply the result's side effects and stop.
		cleared := len(c.active) <= i
		switch res {
		case execOK:
			// Began execution: drop from the list.
			issued++
			c.noteProgress()
		case execQuiet:
			if !cleared {
				d.stamp = c.execStamp
				c.active[keep] = d
				keep++
			}
		case execVolatile:
			c.volatileStall = true
			if !cleared {
				c.active[keep] = d
				keep++
			}
		}
		if cleared {
			return
		}
	}
	// Preserve the unexamined tail, shifted left over dropped entries.
	keep += copy(c.active[keep:], c.active[i:])
	c.active = c.active[:keep]
	// Record a proven-idle scan: every examined entry is parked on the
	// current wake stamp and nothing mutated core state, so the scan can be
	// skipped wholesale until the stamp or the list changes. A tail cut off
	// by the serialize fence stays blocked until a retire bumps the stamp,
	// so it does not invalidate the memo.
	if !c.pollEvery && allParked {
		c.issueIdleLen = len(c.active)
		c.issueIdleStamp = c.execStamp
	} else {
		c.issueIdleLen = -1
	}
}

// execResult classifies an execute attempt for the issue stage.
type execResult uint8

const (
	// execOK: the entry consumed an issue slot and began execution.
	execOK execResult = iota
	// execQuiet: blocked on a condition only another state change can
	// cure (memory disambiguation); skip until the core's state changes.
	execQuiet
	// execVolatile: blocked on a per-cycle structural resource (a cache
	// port or an L1 retry); must be re-attempted next cycle.
	execVolatile
)

// execute begins execution of a ready entry.
func (c *Core) execute(idx int, e *Entry, now int64) execResult {
	in := e.In
	switch {
	case in.IsBranch():
		e.Taken = in.BranchTaken(e.src1, e.src2)
		switch in.Op {
		case isa.Jmp:
			e.Target = in.Imm
		case isa.Jr:
			e.Target = e.src1
		default:
			e.Target = in.Imm
		}
		if !e.Taken {
			e.Target = e.PC + 1
		}
		c.BP.Update(e.PC, e.Taken, e.Target, in.IsCondBranch())
		mispred := e.Taken != e.predTaken || (e.Taken && e.Target != e.predTarget)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+1, true
		c.inExec = append(c.inExec, idx)
		if mispred {
			c.Stats.Mispredicts++
			c.BP.Mispredicts++
			c.squashYounger(e)
		}
		return execOK

	case in.IsLoad():
		return c.executeLoad(idx, e, now)

	case in.IsStore():
		if c.storesThisCycle >= c.Cfg.L1StorePorts {
			return execVolatile
		}
		addr := uint64(e.src1 + in.Imm)
		e.EA = addr
		sbe := c.sbFind(e.Seq)
		if sbe == nil {
			panic("cpu: store without SB entry")
		}
		sbe.block = mem.BlockAddr(addr)
		sbe.word = wordIndex(addr)
		sbe.data = uint64(e.src2)
		sbe.addrReady = true
		c.noteWake() // younger loads blocked on disambiguation may proceed
		e.Result = 0
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+1, true
		c.inExec = append(c.inExec, idx)
		return execOK

	case in.IsAtomic():
		return c.executeAtomic(idx, e, now)

	case in.Op == isa.Trap:
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+c.Cfg.TrapLatency, true
		c.inExec = append(c.inExec, idx)
		return execOK

	case in.Op == isa.DevLd:
		addr := uint64(e.src1 + in.Imm)
		e.EA = addr
		e.Result = c.Gate.DeviceRead(c, addr, c.devCount)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+c.Cfg.DevLatency, true
		c.inExec = append(c.inExec, idx)
		return execOK

	case in.Op == isa.DevSt:
		e.EA = uint64(e.src1 + in.Imm)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+c.Cfg.DevLatency, true
		c.inExec = append(c.inExec, idx)
		return execOK

	case in.Op == isa.Membar, in.Op == isa.Nop, in.Op == isa.Halt:
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+1, true
		c.inExec = append(c.inExec, idx)
		return execOK

	default: // ALU
		e.Result = in.ALUResult(e.src1, e.src2)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+in.ExecLatency(), true
		c.inExec = append(c.inExec, idx)
		return execOK
	}
}

func (c *Core) executeLoad(idx int, e *Entry, now int64) execResult {
	addr := uint64(e.src1 + e.In.Imm)
	e.EA = addr
	block := mem.BlockAddr(addr)
	word := wordIndex(addr)

	// Memory disambiguation (conservative): wait until every older store
	// has computed its address, then forward from the youngest matching
	// store-buffer entry if any.
	youngest := -1
	for i := range c.sb {
		s := &c.sb[i]
		if s.seq >= e.Seq {
			break
		}
		if !s.addrReady {
			// An older store's address is pending; only that store's
			// execution (a state change) can unblock this load.
			return execQuiet
		}
		if s.block == block && s.word == word {
			youngest = i
		}
	}
	if youngest >= 0 {
		e.Result = int64(c.sb[youngest].data)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+1, true
		c.inExec = append(c.inExec, idx)
		return execOK
	}

	if c.loadsThisCycle >= c.Cfg.L1LoadPorts {
		return execVolatile
	}

	cb := cache.CB{Kind: cache.CBLoadDone, Core: c.ID, Idx: idx, Seq: e.Seq, Epoch: e.Epoch}
	// Re-execution protocol: the first load after rollback issues a
	// synchronizing request instead of a normal access (Definition 11).
	if c.Gate.SyncArmed(c) && !e.syncIssued {
		if !c.Gate.SyncIssue(c, block, word, cb) {
			return execVolatile
		}
		e.syncIssued = true
		e.state = stIssued
		e.hasDoneAt = false
		c.inExec = append(c.inExec, idx)
		return execOK
	}

	c.loadsThisCycle++
	status, val := c.L1D.Load(block, word, cb)
	switch status {
	case cacheHit:
		e.Result = int64(val)
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+c.Cfg.LoadToUse, true
		c.inExec = append(c.inExec, idx)
	case cacheMiss:
		e.state = stIssued
		e.hasDoneAt = false
		c.inExec = append(c.inExec, idx)
	case cacheRetry:
		return execVolatile
	}
	return execOK
}

func (c *Core) executeAtomic(idx int, e *Entry, now int64) execResult {
	addr := uint64(e.src1)
	e.EA = addr
	block := mem.BlockAddr(addr)
	word := wordIndex(addr)

	cb := cache.CB{Kind: cache.CBAtomicBegin, Core: c.ID, Idx: idx, Seq: e.Seq, Epoch: e.Epoch, Block: block, Word: word}

	// Re-execution protocol: an atomic as the first memory operation after
	// rollback uses the synchronizing request (Definition 11).
	if c.Gate.SyncArmed(c) && !e.syncIssued {
		cb.Kind = cache.CBAtomicFin
		if !c.Gate.SyncIssue(c, block, word, cb) {
			return execVolatile
		}
		e.syncIssued = true
		e.state = stIssued
		e.hasDoneAt = false
		c.inExec = append(c.inExec, idx)
		return execOK
	}

	status, old := c.L1D.AtomicBegin(block, word, cb)
	switch status {
	case cacheHit:
		e.Result = int64(old)
		e.casSuccess = int64(old) == e.src3
		e.casNew = e.src2
		e.state = stIssued
		e.doneAt, e.hasDoneAt = now+c.Cfg.LoadToUse, true
		c.inExec = append(c.inExec, idx)
	case cacheMiss:
		e.state = stIssued
		e.hasDoneAt = false
		c.inExec = append(c.inExec, idx)
	case cacheRetry:
		return execVolatile
	}
	return execOK
}

// completeExec moves executing entries whose latency elapsed to Done.
func (c *Core) completeExec() {
	now := c.EQ.Now()
	out := c.inExec[:0]
	for _, idx := range c.inExec {
		e := &c.rob[idx]
		if e.state != stIssued {
			continue // squashed
		}
		if e.hasDoneAt && e.doneAt <= now {
			e.state = stDone
			c.wakeWaiters(idx) // relist operand-parked dependents
			c.noteProgress()
			c.noteWake() // dependents' operands may now be ready
			continue
		}
		out = append(out, idx)
	}
	c.inExec = out
}

// --- store buffer -----------------------------------------------------------

func (c *Core) sbFind(seq int64) *sbEntry {
	for i := range c.sb {
		if c.sb[i].seq == seq {
			return &c.sb[i]
		}
	}
	return nil
}

// drainSB writes the oldest non-speculative store to the L1D (TSO: in
// order, one outstanding).
func (c *Core) drainSB() {
	if c.sbDraining || len(c.sb) == 0 || c.storesThisCycle >= c.Cfg.L1StorePorts {
		return
	}
	s := &c.sb[0]
	if !s.nonspec || s.draining {
		return
	}
	c.storesThisCycle++
	switch c.L1D.Store(s.block, s.word, s.data, cache.CB{Kind: cache.CBStoreDone, Core: c.ID, Seq: s.seq}) {
	case cacheHit:
		c.storeDone(s.seq)
		c.noteProgress()
	case cacheMiss:
		s.draining = true
		c.sbDraining = true
		c.noteProgress()
	case cacheRetry:
		// try again next cycle
		c.volatileStall = true
	}
}

// Aliases to keep cache package names short here.
const (
	cacheHit   = 0
	cacheMiss  = 1
	cacheRetry = 2
)
