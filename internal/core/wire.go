package core

import (
	"errors"
	"fmt"

	"reunion/internal/bin"
)

// Wire codecs for the execution-model gates, plus the serializable
// descriptor for the pair's scheduled comparison decisions.

// EvDecide is the event descriptor for one scheduled comparison decision
// (Pair.RunEvent fires it).
type EvDecide struct {
	PairID  int
	Gen     int64
	Match   bool
	AEnd    int64
	BEnd    int64
	EndsMem bool
}

// Encode writes the descriptor.
func (d *EvDecide) Encode(w *bin.Writer) {
	w.Int(d.PairID)
	w.I64(d.Gen)
	w.Bool(d.Match)
	w.I64(d.AEnd)
	w.I64(d.BEnd)
	w.Bool(d.EndsMem)
}

// DecodeEvDecide reads a descriptor written by Encode.
func DecodeEvDecide(r *bin.Reader) *EvDecide {
	d := &EvDecide{
		PairID:  r.Int(),
		Gen:     r.I64(),
		Match:   r.Bool(),
		AEnd:    r.I64(),
		BEnd:    r.I64(),
		EndsMem: r.Bool(),
	}
	if r.Err() != nil {
		return nil
	}
	return d
}

func encodeSentInterval(w *bin.Writer, si *sentInterval) {
	w.I64(si.endSeq)
	w.U16(si.fp)
	w.I64(si.at)
	w.I64(si.extra)
	w.Int(si.serial)
	w.Bool(si.endsMem)
	// Format v3 reserves a debug string here; it is always empty.
	w.String("")
}

func decodeSentInterval(r *bin.Reader) sentInterval {
	si := sentInterval{
		endSeq:  r.I64(),
		fp:      r.U16(),
		at:      r.I64(),
		extra:   r.I64(),
		serial:  r.Int(),
		endsMem: r.Bool(),
	}
	if r.String() != "" {
		r.Fail(errSentDebug)
	}
	return si
}

var errSentDebug = errors.New("core: sent interval carries a non-empty debug string")

const sentIntervalWireBytes = 8 + 2 + 8 + 8 + 8 + 1 + 1

func encodeDecided(w *bin.Writer, ds []decidedInterval) {
	w.Uvarint(uint64(len(ds)))
	for _, d := range ds {
		w.I64(d.endSeq)
		w.I64(d.at)
	}
}

func decodeDecided(r *bin.Reader) []decidedInterval {
	n := r.Len(16)
	ds := make([]decidedInterval, 0, n)
	for i := 0; i < n; i++ {
		ds = append(ds, decidedInterval{endSeq: r.I64(), at: r.I64()})
	}
	return ds
}

// Encode writes the pair snapshot.
func (s *PairState) Encode(w *bin.Writer) {
	p := &s.pair
	w.Int(p.ID)
	w.I64(p.Lat)
	w.I64(p.Timeout)
	w.U64(p.DevSalt)
	for i := range p.sides {
		side := &p.sides[i]
		w.Uvarint(uint64(len(side.sent)))
		for j := range side.sent {
			encodeSentInterval(w, &side.sent[j])
		}
		encodeDecided(w, side.decided)
		w.I64(side.pendingExtra)
		w.Int(side.pendingSerial)
	}
	w.I64(p.gen)
	w.Bool(p.stepping)
	w.Bool(p.syncArmed)
	w.Int(p.phase)
	w.Bool(p.syncBlockSet)
	w.U64(p.syncBlock)
	w.Bool(p.syncIssued[0])
	w.Bool(p.syncIssued[1])
	w.Int(p.syncDone)
	w.I64(p.lonelySince)
	w.Bool(p.pendingFault)
	w.Int(p.ForceAlias)
	w.I64(p.intPending)
	w.I64(p.intServiced)
	st := &p.Stats
	for _, v := range []int64{st.Recoveries, st.IncoherenceEvents, st.FaultEvents,
		st.Phase2, st.Failures, st.SyncRequests, st.AliasForced, st.Timeouts,
		st.CompareWaitVocal, st.CompareWaitMute, st.Compares} {
		w.I64(v)
	}
}

// DecodePairState reads a pair snapshot written by Encode. Pointer fields
// (cores, event queue, controller, hooks) are nil until BindTo.
func DecodePairState(r *bin.Reader) *PairState {
	s := &PairState{}
	p := &s.pair
	p.ID = r.Int()
	p.Lat = r.I64()
	p.Timeout = r.I64()
	p.DevSalt = r.U64()
	for i := range p.sides {
		side := &p.sides[i]
		n := r.Len(sentIntervalWireBytes)
		side.sent = make([]sentInterval, 0, n)
		for j := 0; j < n; j++ {
			side.sent = append(side.sent, decodeSentInterval(r))
		}
		side.decided = decodeDecided(r)
		side.pendingExtra = r.I64()
		side.pendingSerial = r.Int()
	}
	p.gen = r.I64()
	p.stepping = r.Bool()
	p.syncArmed = r.Bool()
	p.phase = r.Int()
	p.syncBlockSet = r.Bool()
	p.syncBlock = r.U64()
	p.syncIssued[0] = r.Bool()
	p.syncIssued[1] = r.Bool()
	p.syncDone = r.Int()
	p.lonelySince = r.I64()
	p.pendingFault = r.Bool()
	p.ForceAlias = r.Int()
	p.intPending = r.I64()
	p.intServiced = r.I64()
	st := &p.Stats
	for _, v := range []*int64{&st.Recoveries, &st.IncoherenceEvents, &st.FaultEvents,
		&st.Phase2, &st.Failures, &st.SyncRequests, &st.AliasForced, &st.Timeouts,
		&st.CompareWaitVocal, &st.CompareWaitMute, &st.Compares} {
		*v = r.I64()
	}
	if r.Err() != nil {
		return nil
	}
	return s
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
	s.pair.Trace = live.Trace
	return nil
}

// Encode writes the non-redundant-gate snapshot.
func (s *NonRedundantGateState) Encode(w *bin.Writer) {
	w.U64(s.gate.DevSalt)
	w.I64(s.gate.intPending)
	w.I64(s.gate.intServiced)
}

// DecodeNonRedundantGateState reads a snapshot written by Encode.
func DecodeNonRedundantGateState(r *bin.Reader) *NonRedundantGateState {
	s := &NonRedundantGateState{}
	s.gate.DevSalt = r.U64()
	s.gate.intPending = r.I64()
	s.gate.intServiced = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// BindTo fixes the snapshot's event-queue pointer from the live gate.
func (s *NonRedundantGateState) BindTo(live *NonRedundantGate) { s.gate.EQ = live.EQ }

// Encode writes the strict-gate snapshot.
func (s *StrictGateState) Encode(w *bin.Writer) {
	w.I64(s.gate.CompareLat)
	w.U64(s.gate.DevSalt)
	w.I64(s.gate.pendingExtra)
	w.Int(s.gate.pendingSerial)
	encodeDecided(w, s.gate.decided)
	w.I64(s.gate.intPending)
	w.I64(s.gate.intServiced)
}

// DecodeStrictGateState reads a snapshot written by Encode.
func DecodeStrictGateState(r *bin.Reader) *StrictGateState {
	s := &StrictGateState{}
	s.gate.CompareLat = r.I64()
	s.gate.DevSalt = r.U64()
	s.gate.pendingExtra = r.I64()
	s.gate.pendingSerial = r.Int()
	s.gate.decided = decodeDecided(r)
	s.gate.intPending = r.I64()
	s.gate.intServiced = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// BindTo fixes the snapshot's event-queue pointer from the live gate.
func (s *StrictGateState) BindTo(live *StrictGate) { s.gate.EQ = live.EQ }
