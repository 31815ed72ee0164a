package snoop

import "reunion/internal/interconnect"

// Checkpoint support for the snoopy bus (see the reunion package's
// System.Snapshot and the matching coherence controller snapshot).
// Queued and parked *cache.Req values are shared between snapshot and
// live state: a request is immutable after creation and its reply
// resolves the L1 MSHR by block at fire time.

// BusState is a checkpoint of the bus and memory controller.
type BusState struct {
	bus Bus // shallow copy; reference fields fixed up below
	q   interconnect.BankQueueState
}

// Snapshot captures the bus state. Read-only.
func (b *Bus) Snapshot() *BusState {
	s := &BusState{bus: *b, q: b.q.Snapshot()}
	s.bus.MemSide = b.MemSide.Snapshot()
	return s
}

// Restore rewrites the bus from a snapshot.
func (b *Bus) Restore(s *BusState) {
	q, l1d := b.q, b.l1d
	*b = s.bus
	b.q, b.l1d = q, l1d
	b.q.Restore(s.q)
	b.MemSide = s.bus.MemSide.Snapshot()
}
