package cpu

import (
	"fmt"

	"reunion/internal/bin"
	"reunion/internal/bpred"
	"reunion/internal/cache"
	"reunion/internal/fingerprint"
	"reunion/internal/isa"
	"reunion/internal/mem"
	"reunion/internal/tlb"
)

// Wire walk for core snapshots (checkpoint serialization). The walk
// visits every mutable field of Core in declaration order; pointer fields
// (config, thread, caches, gate, hooks) are identity, not state — a
// decoded snapshot carries nil there until BindTo fixes them from the live
// core the checkpoint restores onto.

func walkInstr(c *bin.Codec, in *isa.Instr) {
	c.U8((*uint8)(&in.Op))
	c.U8(&in.Rd)
	c.U8(&in.Rs1)
	c.U8(&in.Rs2)
	c.I64(&in.Imm)
	if !c.Reading() {
		return
	}
	if !in.Op.Valid() {
		c.Fail(fmt.Errorf("cpu: invalid opcode %d", in.Op))
	}
	if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
		c.Fail(fmt.Errorf("cpu: register index out of range in %v", *in))
	}
}

func walkEntry(c *bin.Codec, e *Entry) {
	c.I64(&e.Seq)
	c.I64(&e.PC)
	walkInstr(c, &e.In)
	c.I64(&e.Epoch)
	c.U8((*uint8)(&e.state))
	if c.Reading() && e.state > stOffered {
		c.Fail(fmt.Errorf("cpu: invalid ROB entry state %d", e.state))
	}
	c.I64(&e.src1)
	c.I64(&e.src2)
	c.I64(&e.src3)
	c.Int(&e.src1Rob)
	c.Int(&e.src2Rob)
	c.Int(&e.src3Rob)
	c.I64(&e.src1Seq)
	c.I64(&e.src2Seq)
	c.I64(&e.src3Seq)
	c.U8(&e.src1Reg)
	c.U8(&e.src2Reg)
	c.U8(&e.src3Reg)
	c.Bool(&e.src1Ready)
	c.Bool(&e.src2Ready)
	c.Bool(&e.src3Ready)
	c.Bool(&e.predTaken)
	c.I64(&e.predTarget)
	c.I64(&e.Result)
	c.Bool(&e.Taken)
	c.I64(&e.Target)
	c.U64(&e.EA)
	c.I64(&e.doneAt)
	c.Bool(&e.hasDoneAt)
	c.Bool(&e.casSuccess)
	c.I64(&e.casNew)
	c.Bool(&e.syncIssued)
	c.Bool(&e.Serializing)
	c.I64(&e.IntervalID)
	c.I64(&e.ExtraCheck)
	c.Int(&e.SerialCount)
	c.I64(&e.OfferedAt)
	c.Bool(&e.tlbChecked)
	c.I64(&e.offerAfter)
}

// entryWireBytes is a conservative lower bound on an encoded Entry.
const entryWireBytes = 100

// WireBytes returns the size of the L1 array lines Walk writes against
// m, the bulk of a core's encoding; the window, TLBs and predictor add
// tens of kilobytes.
func (s *CoreState) WireBytes(m *mem.MemoryState) int { return s.l1d.WireBytes(m) + s.l1i.WireBytes(m) }

// Walk walks the core snapshot; m is the checkpoint's memory image,
// against which the L1 lines are written (cache.ArrayState.Walk). A
// reader leaves the pointer fields nil until BindTo.
func (s *CoreState) Walk(c *bin.Codec, m *mem.MemoryState) {
	co := &s.core
	c.Int(&co.ID)
	c.Int(&co.Pair)
	c.Bool(&co.Vocal)
	for i := range co.arf {
		c.I64(&co.arf[i])
	}
	c.I64(&co.commitSeq)
	c.I64(&co.commitPC)
	c.I64(&co.fetchPC)
	c.I64(&co.fetchSeq)
	c.Bool(&co.fetchHalted)
	c.Bool(&co.icacheWait)
	c.U64(&co.curIBlock)
	c.Bool(&co.haveIBlock)
	c.I64(&co.fetchEpoch)
	bin.Slice(c, &co.fq, 8+8+12+1+8+8, func(f *fqSlot) {
		c.I64(&f.seq)
		c.I64(&f.pc)
		walkInstr(c, &f.in)
		c.Bool(&f.predTaken)
		c.I64(&f.predTarget)
		c.I64(&f.readyAt)
	})
	bin.Slice(c, &co.rob, entryWireBytes, func(e *Entry) { walkEntry(c, e) })
	c.Int(&co.robHead)
	c.Int(&co.robCount)
	c.Int(&co.offerIdx)
	nrob := len(co.rob)
	if c.Reading() && (nrob == 0 || co.robHead < 0 || co.robHead >= nrob ||
		co.robCount < 0 || co.robCount > nrob ||
		co.offerIdx < 0 || co.offerIdx > co.robCount) {
		c.Fail(fmt.Errorf("cpu: ROB bookkeeping out of range (head=%d count=%d offered=%d size=%d)",
			co.robHead, co.robCount, co.offerIdx, nrob))
	}
	for i := range co.rename {
		ref := &co.rename[i]
		c.Bool(&ref.valid)
		c.Int(&ref.rob)
		c.I64(&ref.seq)
		if c.Reading() && ref.valid && (ref.rob < 0 || ref.rob >= nrob) {
			c.Fail(fmt.Errorf("cpu: rename reference %d out of range", ref.rob))
		}
	}
	bin.Slice(c, &co.inExec, 8, func(idx *int) {
		c.Int(idx)
		if c.Reading() && (*idx < 0 || *idx >= nrob) {
			c.Fail(fmt.Errorf("cpu: in-exec index %d out of range", *idx))
		}
	})
	bin.Slice(c, &co.sb, 8+8+8+8+3, func(sb *sbEntry) {
		c.I64(&sb.seq)
		c.U64(&sb.block)
		c.Int(&sb.word)
		c.U64(&sb.data)
		c.Bool(&sb.addrReady)
		c.Bool(&sb.nonspec)
		c.Bool(&sb.draining)
	})
	c.Bool(&co.sbDraining)
	bin.Slice(c, &co.serQ, 8, c.I64)
	c.I64(&co.epoch)
	c.Bool(&co.halted)
	c.Bool(&co.failed)
	c.Bool(&co.faultArmed)
	faultBit := uint64(co.faultBit)
	if c.U64(&faultBit); c.Reading() {
		co.faultBit = uint(faultBit)
	}
	c.I64(&co.faultSeq)
	c.I64(&co.FaultRetired)
	c.I64(&co.FaultSquashed)
	c.Bool(&co.digestOn)
	c.I64(&co.digestCount)
	c.I64(&co.digestTarget)
	c.U64(&co.digestVal)
	c.U64(&co.digestLatched)
	c.Bool(&co.digestDone)
	c.Int(&co.intervalCount)
	c.I64(&co.intervalID)
	c.Int(&co.loadsThisCycle)
	c.Int(&co.storesThisCycle)
	c.Bool(&co.progress)
	c.Bool(&co.volatileStall)
	c.I64(&co.idleSerStalls)
	c.I64(&co.idleSBFull)
	c.I64(&co.execStamp)
	c.Bool(&co.dirty)
	c.Bool(&co.selfQuiet)
	c.I64(&co.selfWake)
	c.I64(&co.devCount)
	st := &co.Stats
	for _, v := range []*int64{&st.Committed, &st.CommittedLoads, &st.CommittedStores,
		&st.Mispredicts, &st.Serializing, &st.ITLBMisses, &st.DTLBMisses,
		&st.ROBOccupancy, &st.CheckOccupancy, &st.Cycles, &st.IssueStallSer,
		&st.SBFullStalls, &st.DevReads} {
		c.I64(v)
	}
	if c.Reading() {
		s.l1d, s.l1i = new(cache.L1State), new(cache.L1State)
		s.itlb, s.dtlb = new(tlb.TLBState), new(tlb.TLBState)
		s.bp = new(bpred.PredictorState)
	}
	s.l1d.Walk(c, m)
	s.l1i.Walk(c, m)
	s.itlb.Walk(c)
	s.dtlb.Walk(c)
	s.bp.Walk(c)
	crc := s.fp.CRC()
	if c.U16(&crc); c.Reading() {
		s.fp = fingerprint.NewGenState(crc)
	}
}

// VisitWaiters calls fn with the descriptor of every MSHR waiter in the
// snapshot's L1D, then its L1I (see cache.L1State.VisitWaiters).
func (s *CoreState) VisitWaiters(fn func(*cache.CB) error) error {
	if err := s.l1d.VisitWaiters(fn); err != nil {
		return err
	}
	return s.l1i.VisitWaiters(fn)
}

// BindTo fixes the snapshot's pointer fields and issue-stage polling
// policy (fixed when the core was built) from the live core and
// cross-checks identity and geometry, so Restore writes a struct whose
// wiring matches the system it restores onto. m is the checkpoint's
// bound memory image, which fills the L1 lines written as memory's.
func (s *CoreState) BindTo(live *Core, m *mem.MemoryState) error {
	c := &s.core
	if c.ID != live.ID || c.Pair != live.Pair || c.Vocal != live.Vocal {
		return fmt.Errorf("cpu: core snapshot identity (%d,%d,%v) does not match core (%d,%d,%v)",
			c.ID, c.Pair, c.Vocal, live.ID, live.Pair, live.Vocal)
	}
	if len(c.rob) != len(live.rob) {
		return fmt.Errorf("cpu: core %d snapshot ROB size %d, live %d", c.ID, len(c.rob), len(live.rob))
	}
	if err := s.l1d.BindTo(live.L1D, m); err != nil {
		return fmt.Errorf("core %d L1D: %w", c.ID, err)
	}
	if err := s.l1i.BindTo(live.L1I, m); err != nil {
		return fmt.Errorf("core %d L1I: %w", c.ID, err)
	}
	if got, want := s.itlb.Entries(), live.ITLB.Snapshot().Entries(); got != want {
		return fmt.Errorf("cpu: core %d ITLB snapshot has %d entries, live %d", c.ID, got, want)
	}
	if got, want := s.dtlb.Entries(), live.DTLB.Snapshot().Entries(); got != want {
		return fmt.Errorf("cpu: core %d DTLB snapshot has %d entries, live %d", c.ID, got, want)
	}
	gc, gb := s.bp.Geometry()
	lc, lb := live.BP.Snapshot().Geometry()
	if gc != lc || gb != lb {
		return fmt.Errorf("cpu: core %d predictor snapshot geometry (%d,%d), live (%d,%d)", c.ID, gc, gb, lc, lb)
	}
	c.Cfg = live.Cfg
	c.pollEvery = live.pollEvery
	c.EQ = live.EQ
	c.Thread = live.Thread
	c.L1D = live.L1D
	c.L1I = live.L1I
	c.ITLB = live.ITLB
	c.DTLB = live.DTLB
	c.BP = live.BP
	c.Gate = live.Gate
	c.fpGen = live.fpGen
	c.OnFaultFired = live.OnFaultFired
	return nil
}
