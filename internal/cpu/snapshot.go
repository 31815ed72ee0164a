package cpu

import (
	"reunion/internal/bpred"
	"reunion/internal/cache"
	"reunion/internal/fingerprint"
	"reunion/internal/tlb"
)

// This file implements the core's side of the checkpoint subsystem (see
// the reunion package's System.Snapshot). The pattern used throughout the
// simulator: a snapshot is a shallow copy of the component struct — which
// automatically captures every scalar field, present and future — plus
// explicit deep copies of the reference-typed fields (slices, maps,
// nested components). Restore writes the shallow copy back into the same
// object (pointer fields carry the same pointers, so identity is
// preserved) and then re-copies every reference field out of the
// snapshot, so one snapshot restores any number of times.
//
// When adding a field to Core: a scalar needs nothing; a slice, map, or
// mutable pointee must be added to both the deep-copy list in Snapshot
// and the copy-out list in Restore (the snapshot equivalence tests catch
// a forgotten one as a bit-level divergence).

// CoreState is a checkpoint of one core and the private structures it
// owns: pipeline and architectural state, both L1s, both TLBs, the branch
// predictor, and the fingerprint generator.
type CoreState struct {
	core Core // shallow copy; slices fixed up below

	l1d, l1i   *cache.L1State
	itlb, dtlb *tlb.TLBState
	bp         *bpred.PredictorState
	fp         fingerprint.GenState
}

// Snapshot captures the core's complete mutable state. Read-only.
func (c *Core) Snapshot() *CoreState {
	s := &CoreState{
		core: *c,
		l1d:  c.L1D.Snapshot(),
		l1i:  c.L1I.Snapshot(),
		itlb: c.ITLB.Snapshot(),
		dtlb: c.DTLB.Snapshot(),
		bp:   c.BP.Snapshot(),
		fp:   c.fpGen.Snapshot(),
	}
	s.core.fq = append([]fqSlot(nil), c.fq...)
	s.core.rob = append([]Entry(nil), c.rob...)
	s.core.inExec = append([]int(nil), c.inExec...)
	s.core.sb = append([]sbEntry(nil), c.sb...)
	s.core.serQ = append([]int64(nil), c.serQ...)
	// Derived issue-stage state: rebuilt from the ROB on restore.
	s.core.active = nil
	s.core.waiterHead = nil
	s.core.wNext = nil
	s.core.wPrev = nil
	s.core.wProd = nil
	s.core.wakeBuf = nil
	return s
}

// Restore rewrites the core from a snapshot. The completion descriptors
// held by the restored L1 MSHRs hold only ROB indices and seq/epoch guard
// values, so they remain valid against the restored window.
func (c *Core) Restore(s *CoreState) {
	*c = s.core
	c.fq = append([]fqSlot(nil), s.core.fq...)
	c.rob = append([]Entry(nil), s.core.rob...)
	c.inExec = append([]int(nil), s.core.inExec...)
	c.sb = append([]sbEntry(nil), s.core.sb...)
	c.serQ = append([]int64(nil), s.core.serQ...)
	c.rebuildDerived()
	c.L1D.Restore(s.l1d)
	c.L1I.Restore(s.l1i)
	c.ITLB.Restore(s.itlb)
	c.DTLB.Restore(s.dtlb)
	c.BP.Restore(s.bp)
	c.fpGen.Restore(s.fp)
}
