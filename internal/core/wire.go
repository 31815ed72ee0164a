package core

import (
	"fmt"

	"reunion/internal/bin"
	"reunion/internal/cache"
)

// Wire walks for the execution-model gates, plus the serializable
// descriptor for the pair's scheduled comparison decisions.

// EvDecide is the event descriptor for a comparison decision that must
// act at its decision cycle (Pair.RunEvent fires it): a mismatch
// (Match false) starts recovery, a match that ends re-execution clears
// stepping. Gen is the pair's recovery generation at the compare.
type EvDecide struct {
	PairID int
	Gen    int64
	Match  bool
}

// Walk walks the descriptor, which references no request.
func (d *EvDecide) Walk(c *bin.Codec, _ *cache.ReqTable) {
	c.Int(&d.PairID)
	c.I64(&d.Gen)
	c.Bool(&d.Match)
}

// walkSentInterval walks one interval.
func walkSentInterval(c *bin.Codec, si *sentInterval) {
	c.I64(&si.endSeq)
	c.U16(&si.fp)
	c.I64(&si.at)
	c.I64(&si.extra)
	c.Int(&si.serial)
	c.Bool(&si.endsMem)
}

const sentIntervalWireBytes = 8 + 2 + 8 + 8 + 8 + 1

// walkDecided walks a snapshot's decided queue, whose head is always 0
// (Snapshot stores only the live decisions).
func walkDecided(c *bin.Codec, dq *decidedQueue) {
	bin.Slice(c, &dq.q, 16, func(d *decidedInterval) {
		c.I64(&d.endSeq)
		c.I64(&d.at)
	})
}

// Walk walks the pair snapshot. A reader leaves the pointer fields
// (cores, event queue, controller, hooks) nil until BindTo.
func (s *PairState) Walk(c *bin.Codec) {
	p := &s.pair
	c.Int(&p.ID)
	c.I64(&p.Lat)
	c.I64(&p.Timeout)
	c.U64(&p.DevSalt)
	for i := range p.sides {
		side := &p.sides[i]
		bin.Slice(c, &side.sent, sentIntervalWireBytes, func(si *sentInterval) { walkSentInterval(c, si) })
		walkDecided(c, &side.decided)
		c.I64(&side.pendingExtra)
		c.Int(&side.pendingSerial)
	}
	c.I64(&p.gen)
	c.Bool(&p.stepping)
	c.Bool(&p.syncArmed)
	c.Int(&p.phase)
	c.Bool(&p.syncBlockSet)
	c.U64(&p.syncBlock)
	c.Bool(&p.syncIssued[0])
	c.Bool(&p.syncIssued[1])
	c.Int(&p.syncDone)
	c.I64(&p.lonelySince)
	c.Bool(&p.pendingFault)
	c.Int(&p.ForceAlias)
	c.Bool(&p.intRaised)
	c.I64(&p.intPending)
	c.I64(&p.intServiced)
	st := &p.Stats
	for _, v := range []*int64{&st.Recoveries, &st.IncoherenceEvents, &st.FaultEvents,
		&st.Phase2, &st.Failures, &st.SyncRequests, &st.AliasForced, &st.Timeouts,
		&st.CompareWaitVocal, &st.CompareWaitMute, &st.Compares} {
		c.I64(v)
	}
}

// BindTo fixes the snapshot's pointer fields from the live pair so Restore
// (which writes the whole struct back) preserves the live wiring. It
// rejects a snapshot whose identity does not match the pair it is being
// bound to.
func (s *PairState) BindTo(live *Pair) error {
	if s.pair.ID != live.ID {
		return fmt.Errorf("core: pair snapshot for pair %d bound to pair %d", s.pair.ID, live.ID)
	}
	s.pair.VocalC = live.VocalC
	s.pair.MuteC = live.MuteC
	s.pair.EQ = live.EQ
	s.pair.L2 = live.L2
	s.pair.OnFaultDetected = live.OnFaultDetected
	s.pair.OnMismatch = live.OnMismatch
	s.pair.OnRecovery = live.OnRecovery
	return nil
}

// Walk walks the non-redundant-gate snapshot.
func (s *NonRedundantGateState) Walk(c *bin.Codec) {
	c.U64(&s.gate.DevSalt)
	c.Bool(&s.gate.intRaised)
	c.I64(&s.gate.intPending)
	c.I64(&s.gate.intServiced)
}

// BindTo fixes the snapshot's event-queue pointer from the live gate.
func (s *NonRedundantGateState) BindTo(live *NonRedundantGate) { s.gate.EQ = live.EQ }

// Walk walks the strict-gate snapshot.
func (s *StrictGateState) Walk(c *bin.Codec) {
	c.I64(&s.gate.CompareLat)
	c.U64(&s.gate.DevSalt)
	c.I64(&s.gate.pendingExtra)
	c.Int(&s.gate.pendingSerial)
	walkDecided(c, &s.gate.decided)
	c.Bool(&s.gate.intRaised)
	c.I64(&s.gate.intPending)
	c.I64(&s.gate.intServiced)
}

// BindTo fixes the snapshot's event-queue pointer from the live gate.
func (s *StrictGateState) BindTo(live *StrictGate) { s.gate.EQ = live.EQ }
