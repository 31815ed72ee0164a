package core

// Checkpoint support for the execution-model gates (see the reunion
// package's System.Snapshot). Snapshots are shallow struct copies plus
// deep copies of slice fields; Restore writes the copy back into the same
// object, preserving the core/EQ/controller pointers, and re-copies the
// slices so one snapshot restores any number of times.
//
// A matched comparison is queued in both sides' decided FIFOs when the
// pair decides it, so a pending match is pair state here. Only mismatches
// and matches that end re-execution are pending events (EvDecide); the
// system restores those alongside the event queue, their descriptors
// carry value copies (gen guard, match verdict) and the runner rebinds
// to the pair, so they replay exactly against the restored state.
//
// The sent and decided queues (the pair's and the strict gate's) are
// head-indexed in the live struct; a snapshot stores only the live
// region with the heads reset to zero, so the serialized form is
// independent of how far the consumer advanced.

// Snapshot copies the live decisions into a fresh queue with head 0.
func (dq *decidedQueue) Snapshot() decidedQueue {
	return decidedQueue{q: append([]decidedInterval(nil), dq.q[dq.head:]...)}
}

// Restore copies a snapshot's decisions into dq's own array, so one
// snapshot restores any number of times and a campaign's per-trial
// restores reuse the queue's capacity.
func (dq *decidedQueue) Restore(s decidedQueue) {
	dq.q, dq.head = append(dq.q[:0], s.q[s.head:]...), 0
}

// PairState is a checkpoint of a pair's execution-model state.
type PairState struct {
	pair Pair // shallow copy; side slices fixed up below
}

// Snapshot captures the pair state. Read-only.
func (p *Pair) Snapshot() *PairState {
	s := &PairState{pair: *p}
	for i := range s.pair.sides {
		side := &p.sides[i]
		s.pair.sides[i].sent = append([]sentInterval(nil), side.sent[side.sentHead:]...)
		s.pair.sides[i].sentHead = 0
		s.pair.sides[i].decided = side.decided.Snapshot()
	}
	return s
}

// Restore rewrites the pair from a snapshot, copying the queues into the
// live arrays (never shared with a snapshot) to keep their capacity.
func (p *Pair) Restore(s *PairState) {
	live := p.sides
	*p = s.pair
	for i := range p.sides {
		p.sides[i].sent = append(live[i].sent[:0], s.pair.sides[i].sent...)
		p.sides[i].decided = live[i].decided
		p.sides[i].decided.Restore(s.pair.sides[i].decided)
	}
}

// NonRedundantGateState is a checkpoint of the non-redundant gate.
type NonRedundantGateState struct {
	gate NonRedundantGate
}

// Snapshot captures the gate state. Read-only.
func (g *NonRedundantGate) Snapshot() *NonRedundantGateState {
	return &NonRedundantGateState{gate: *g}
}

// Restore rewrites the gate from a snapshot.
func (g *NonRedundantGate) Restore(s *NonRedundantGateState) { *g = s.gate }

// StrictGateState is a checkpoint of the strict-input-replication gate.
type StrictGateState struct {
	gate StrictGate // shallow copy; decided slice fixed up below
}

// Snapshot captures the gate state. Read-only.
func (g *StrictGate) Snapshot() *StrictGateState {
	s := &StrictGateState{gate: *g}
	s.gate.decided = g.decided.Snapshot()
	return s
}

// Restore rewrites the gate from a snapshot, copying the decided queue
// into the live array.
func (g *StrictGate) Restore(s *StrictGateState) {
	live := g.decided
	*g = s.gate
	g.decided = live
	g.decided.Restore(s.gate.decided)
}
