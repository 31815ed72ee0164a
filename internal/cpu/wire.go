package cpu

import (
	"fmt"

	"reunion/internal/bin"
	"reunion/internal/bpred"
	"reunion/internal/cache"
	"reunion/internal/fingerprint"
	"reunion/internal/isa"
	"reunion/internal/tlb"
)

// Wire codec for core snapshots (checkpoint serialization). The encoding
// walks every mutable field of Core in declaration order; pointer fields
// (config, thread, caches, gate, hooks) are identity, not state — a
// decoded snapshot carries nil there until BindTo fixes them from the live
// core the checkpoint restores onto.

func encodeInstr(w *bin.Writer, in isa.Instr) {
	w.U8(uint8(in.Op))
	w.U8(in.Rd)
	w.U8(in.Rs1)
	w.U8(in.Rs2)
	w.I64(in.Imm)
}

func decodeInstr(r *bin.Reader) isa.Instr {
	in := isa.Instr{Op: isa.Op(r.U8()), Rd: r.U8(), Rs1: r.U8(), Rs2: r.U8(), Imm: r.I64()}
	if !in.Op.Valid() {
		r.Fail(fmt.Errorf("cpu: invalid opcode %d", in.Op))
	}
	if in.Rd >= isa.NumRegs || in.Rs1 >= isa.NumRegs || in.Rs2 >= isa.NumRegs {
		r.Fail(fmt.Errorf("cpu: register index out of range in %v", in))
	}
	return in
}

func encodeEntry(w *bin.Writer, e *Entry) {
	w.I64(e.Seq)
	w.I64(e.PC)
	encodeInstr(w, e.In)
	w.I64(e.Epoch)
	w.U8(uint8(e.state))
	w.I64(e.src1)
	w.I64(e.src2)
	w.I64(e.src3)
	w.Int(e.src1Rob)
	w.Int(e.src2Rob)
	w.Int(e.src3Rob)
	w.I64(e.src1Seq)
	w.I64(e.src2Seq)
	w.I64(e.src3Seq)
	w.U8(e.src1Reg)
	w.U8(e.src2Reg)
	w.U8(e.src3Reg)
	w.Bool(e.src1Ready)
	w.Bool(e.src2Ready)
	w.Bool(e.src3Ready)
	w.Bool(e.predTaken)
	w.I64(e.predTarget)
	w.I64(e.Result)
	w.Bool(e.Taken)
	w.I64(e.Target)
	w.U64(e.EA)
	w.I64(e.doneAt)
	w.Bool(e.hasDoneAt)
	w.Bool(e.casSuccess)
	w.I64(e.casNew)
	w.Bool(e.syncIssued)
	w.Bool(e.Serializing)
	w.I64(e.IntervalID)
	w.I64(e.ExtraCheck)
	w.Int(e.SerialCount)
	w.I64(e.OfferedAt)
	w.Bool(e.tlbChecked)
	w.I64(e.offerAfter)
}

func decodeEntry(r *bin.Reader) Entry {
	var e Entry
	e.Seq = r.I64()
	e.PC = r.I64()
	e.In = decodeInstr(r)
	e.Epoch = r.I64()
	e.state = entryState(r.U8())
	if e.state > stOffered {
		r.Fail(fmt.Errorf("cpu: invalid ROB entry state %d", e.state))
		return Entry{}
	}
	e.src1 = r.I64()
	e.src2 = r.I64()
	e.src3 = r.I64()
	e.src1Rob = r.Int()
	e.src2Rob = r.Int()
	e.src3Rob = r.Int()
	e.src1Seq = r.I64()
	e.src2Seq = r.I64()
	e.src3Seq = r.I64()
	e.src1Reg = r.U8()
	e.src2Reg = r.U8()
	e.src3Reg = r.U8()
	e.src1Ready = r.Bool()
	e.src2Ready = r.Bool()
	e.src3Ready = r.Bool()
	e.predTaken = r.Bool()
	e.predTarget = r.I64()
	e.Result = r.I64()
	e.Taken = r.Bool()
	e.Target = r.I64()
	e.EA = r.U64()
	e.doneAt = r.I64()
	e.hasDoneAt = r.Bool()
	e.casSuccess = r.Bool()
	e.casNew = r.I64()
	e.syncIssued = r.Bool()
	e.Serializing = r.Bool()
	e.IntervalID = r.I64()
	e.ExtraCheck = r.I64()
	e.SerialCount = r.Int()
	e.OfferedAt = r.I64()
	e.tlbChecked = r.Bool()
	e.offerAfter = r.I64()
	return e
}

// entryWireBytes is a conservative lower bound on an encoded Entry.
const entryWireBytes = 100

// WireBytes returns the size of the L1 array lines Encode writes, the
// bulk of a core's encoding; the window, TLBs and predictor add tens of
// kilobytes.
func (s *CoreState) WireBytes() int { return s.l1d.WireBytes() + s.l1i.WireBytes() }

// Encode writes the core snapshot.
func (s *CoreState) Encode(w *bin.Writer) {
	c := &s.core
	w.Int(c.ID)
	w.Int(c.Pair)
	w.Bool(c.Vocal)
	for _, v := range c.arf {
		w.I64(v)
	}
	w.I64(c.commitSeq)
	w.I64(c.commitPC)
	w.I64(c.fetchPC)
	w.I64(c.fetchSeq)
	w.Bool(c.fetchHalted)
	w.Bool(c.icacheWait)
	w.U64(c.curIBlock)
	w.Bool(c.haveIBlock)
	w.I64(c.fetchEpoch)
	w.Uvarint(uint64(len(c.fq)))
	for i := range c.fq {
		f := &c.fq[i]
		w.I64(f.seq)
		w.I64(f.pc)
		encodeInstr(w, f.in)
		w.Bool(f.predTaken)
		w.I64(f.predTarget)
		w.I64(f.readyAt)
	}
	w.Uvarint(uint64(len(c.rob)))
	for i := range c.rob {
		encodeEntry(w, &c.rob[i])
	}
	w.Int(c.robHead)
	w.Int(c.robCount)
	w.Int(c.offerIdx)
	for _, ref := range c.rename {
		w.Bool(ref.valid)
		w.Int(ref.rob)
		w.I64(ref.seq)
	}
	w.Uvarint(uint64(len(c.inExec)))
	for _, idx := range c.inExec {
		w.Int(idx)
	}
	w.Uvarint(uint64(len(c.sb)))
	for i := range c.sb {
		sb := &c.sb[i]
		w.I64(sb.seq)
		w.U64(sb.block)
		w.Int(sb.word)
		w.U64(sb.data)
		w.Bool(sb.addrReady)
		w.Bool(sb.nonspec)
		w.Bool(sb.draining)
	}
	w.Bool(c.sbDraining)
	w.Uvarint(uint64(len(c.serQ)))
	for _, seq := range c.serQ {
		w.I64(seq)
	}
	w.I64(c.epoch)
	w.Bool(c.halted)
	w.Bool(c.failed)
	w.Bool(c.faultArmed)
	w.U64(uint64(c.faultBit))
	w.I64(c.faultSeq)
	w.I64(c.FaultRetired)
	w.I64(c.FaultSquashed)
	w.Bool(c.digestOn)
	w.I64(c.digestCount)
	w.I64(c.digestTarget)
	w.U64(c.digestVal)
	w.U64(c.digestLatched)
	w.Bool(c.digestDone)
	w.Int(c.intervalCount)
	w.I64(c.intervalID)
	w.Int(c.loadsThisCycle)
	w.Int(c.storesThisCycle)
	w.Bool(c.progress)
	w.Bool(c.volatileStall)
	w.I64(c.idleSerStalls)
	w.I64(c.idleSBFull)
	w.I64(c.execStamp)
	w.Bool(c.pollEvery)
	w.Bool(c.dirty)
	w.Bool(c.selfQuiet)
	w.I64(c.selfWake)
	w.I64(c.devCount)
	st := &c.Stats
	for _, v := range []int64{st.Committed, st.CommittedLoads, st.CommittedStores,
		st.Mispredicts, st.Serializing, st.ITLBMisses, st.DTLBMisses,
		st.ROBOccupancy, st.CheckOccupancy, st.Cycles, st.IssueStallSer,
		st.SBFullStalls, st.DevReads} {
		w.I64(v)
	}
	s.l1d.Encode(w)
	s.l1i.Encode(w)
	s.itlb.Encode(w)
	s.dtlb.Encode(w)
	s.bp.Encode(w)
	w.U16(s.fp.CRC())
}

// DecodeCoreState reads a core snapshot written by Encode. Pointer fields
// are nil until BindTo.
func DecodeCoreState(r *bin.Reader) *CoreState {
	s := &CoreState{}
	c := &s.core
	c.ID = r.Int()
	c.Pair = r.Int()
	c.Vocal = r.Bool()
	for i := range c.arf {
		c.arf[i] = r.I64()
	}
	c.commitSeq = r.I64()
	c.commitPC = r.I64()
	c.fetchPC = r.I64()
	c.fetchSeq = r.I64()
	c.fetchHalted = r.Bool()
	c.icacheWait = r.Bool()
	c.curIBlock = r.U64()
	c.haveIBlock = r.Bool()
	c.fetchEpoch = r.I64()
	nfq := r.Len(8 + 8 + 12 + 1 + 8 + 8)
	c.fq = make([]fqSlot, 0, nfq)
	for i := 0; i < nfq; i++ {
		c.fq = append(c.fq, fqSlot{
			seq: r.I64(), pc: r.I64(), in: decodeInstr(r),
			predTaken: r.Bool(), predTarget: r.I64(), readyAt: r.I64(),
		})
	}
	nrob := r.Len(entryWireBytes)
	c.rob = make([]Entry, 0, nrob)
	for i := 0; i < nrob; i++ {
		c.rob = append(c.rob, decodeEntry(r))
	}
	c.robHead = r.Int()
	c.robCount = r.Int()
	c.offerIdx = r.Int()
	if r.Err() == nil {
		if nrob == 0 || c.robHead < 0 || c.robHead >= nrob ||
			c.robCount < 0 || c.robCount > nrob ||
			c.offerIdx < 0 || c.offerIdx > c.robCount {
			r.Fail(fmt.Errorf("cpu: ROB bookkeeping out of range (head=%d count=%d offered=%d size=%d)",
				c.robHead, c.robCount, c.offerIdx, nrob))
			return nil
		}
	}
	for i := range c.rename {
		ref := renameRef{valid: r.Bool(), rob: r.Int(), seq: r.I64()}
		if ref.valid && (ref.rob < 0 || ref.rob >= nrob) {
			r.Fail(fmt.Errorf("cpu: rename reference %d out of range", ref.rob))
			return nil
		}
		c.rename[i] = ref
	}
	nexec := r.Len(8)
	c.inExec = make([]int, 0, nexec)
	for i := 0; i < nexec; i++ {
		idx := r.Int()
		if idx < 0 || idx >= nrob {
			r.Fail(fmt.Errorf("cpu: in-exec index %d out of range", idx))
			return nil
		}
		c.inExec = append(c.inExec, idx)
	}
	nsb := r.Len(8 + 8 + 8 + 8 + 3)
	c.sb = make([]sbEntry, 0, nsb)
	for i := 0; i < nsb; i++ {
		c.sb = append(c.sb, sbEntry{
			seq: r.I64(), block: r.U64(), word: r.Int(), data: r.U64(),
			addrReady: r.Bool(), nonspec: r.Bool(), draining: r.Bool(),
		})
	}
	c.sbDraining = r.Bool()
	nser := r.Len(8)
	c.serQ = make([]int64, 0, nser)
	for i := 0; i < nser; i++ {
		c.serQ = append(c.serQ, r.I64())
	}
	c.epoch = r.I64()
	c.halted = r.Bool()
	c.failed = r.Bool()
	c.faultArmed = r.Bool()
	c.faultBit = uint(r.U64())
	c.faultSeq = r.I64()
	c.FaultRetired = r.I64()
	c.FaultSquashed = r.I64()
	c.digestOn = r.Bool()
	c.digestCount = r.I64()
	c.digestTarget = r.I64()
	c.digestVal = r.U64()
	c.digestLatched = r.U64()
	c.digestDone = r.Bool()
	c.intervalCount = r.Int()
	c.intervalID = r.I64()
	c.loadsThisCycle = r.Int()
	c.storesThisCycle = r.Int()
	c.progress = r.Bool()
	c.volatileStall = r.Bool()
	c.idleSerStalls = r.I64()
	c.idleSBFull = r.I64()
	c.execStamp = r.I64()
	c.pollEvery = r.Bool()
	c.dirty = r.Bool()
	c.selfQuiet = r.Bool()
	c.selfWake = r.I64()
	c.devCount = r.I64()
	st := &c.Stats
	for _, v := range []*int64{&st.Committed, &st.CommittedLoads, &st.CommittedStores,
		&st.Mispredicts, &st.Serializing, &st.ITLBMisses, &st.DTLBMisses,
		&st.ROBOccupancy, &st.CheckOccupancy, &st.Cycles, &st.IssueStallSer,
		&st.SBFullStalls, &st.DevReads} {
		*v = r.I64()
	}
	s.l1d = cache.DecodeL1State(r)
	s.l1i = cache.DecodeL1State(r)
	s.itlb = tlb.DecodeTLBState(r)
	s.dtlb = tlb.DecodeTLBState(r)
	s.bp = bpred.DecodePredictorState(r)
	s.fp = fingerprint.NewGenState(r.U16())
	if r.Err() != nil {
		return nil
	}
	return s
}

// VisitWaiters calls fn with the descriptor of every MSHR waiter in the
// snapshot's L1D, then its L1I (see cache.L1State.VisitWaiters).
func (s *CoreState) VisitWaiters(fn func(*cache.CB) error) error {
	if err := s.l1d.VisitWaiters(fn); err != nil {
		return err
	}
	return s.l1i.VisitWaiters(fn)
}

// BindTo fixes the snapshot's pointer fields from the live core and
// cross-checks identity and geometry, so Restore writes a struct whose
// wiring matches the system it restores onto.
func (s *CoreState) BindTo(live *Core) error {
	c := &s.core
	if c.ID != live.ID || c.Pair != live.Pair || c.Vocal != live.Vocal {
		return fmt.Errorf("cpu: core snapshot identity (%d,%d,%v) does not match core (%d,%d,%v)",
			c.ID, c.Pair, c.Vocal, live.ID, live.Pair, live.Vocal)
	}
	if len(c.rob) != len(live.rob) {
		return fmt.Errorf("cpu: core %d snapshot ROB size %d, live %d", c.ID, len(c.rob), len(live.rob))
	}
	if err := s.l1d.Validate(live.L1D); err != nil {
		return fmt.Errorf("core %d L1D: %w", c.ID, err)
	}
	if err := s.l1i.Validate(live.L1I); err != nil {
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
