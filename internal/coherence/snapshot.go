package coherence

import (
	"maps"
	"slices"

	"reunion/internal/cache"
	"reunion/internal/interconnect"
)

// Checkpoint support for the shared cache controller (see the reunion
// package's System.Snapshot). The snapshot is a shallow struct copy
// (every counter and scalar) plus deep copies of the reference state:
// the cache array, the directory, the bank queues, and the shared
// memory-side state (memory-bank timestamps and the in-flight
// bookkeeping maps). Queued and parked *cache.Req values are shared
// between snapshot and live state — a request is immutable after
// creation, and its reply resolves the L1 MSHR by block at fire time, so
// a restored request replays exactly against the restored caches.

// L2State is a checkpoint of the controller.
type L2State struct {
	l2    L2 // shallow copy; reference fields fixed up below
	arr   cache.ArrayState
	dir   map[uint64]dirEntry
	banks []interconnect.BankQueueState
}

// Snapshot returns a copy of the shared memory-side state that shares no
// slice or map with m. Both controllers take one when they snapshot and
// another when they restore, so a checkpoint restored many times never
// shares bookkeeping with a live machine.
func (m *MemSide) Snapshot() MemSide {
	s := *m
	s.memBankFree = slices.Clone(m.memBankFree)
	s.pendingSync = maps.Clone(m.pendingSync)
	s.syncMinToken = maps.Clone(m.syncMinToken)
	s.fillsInFlight = maps.Clone(m.fillsInFlight)
	return s
}

// Snapshot captures the controller state. Read-only.
func (l2 *L2) Snapshot() *L2State {
	s := &L2State{l2: *l2, arr: l2.arr.Snapshot()}
	s.dir = make(map[uint64]dirEntry, len(l2.dir))
	for b, d := range l2.dir {
		s.dir[b] = *d
	}
	for _, b := range l2.banks {
		s.banks = append(s.banks, b.Snapshot())
	}
	s.l2.MemSide = l2.MemSide.Snapshot()
	return s
}

// Restore rewrites the controller from a snapshot. Directory entries are
// rebuilt as fresh allocations: nothing holds a *dirEntry across cycles
// (lookups go through the map at service time).
func (l2 *L2) Restore(s *L2State) {
	banks, l1d := l2.banks, l2.l1d
	*l2 = s.l2
	l2.banks, l2.l1d = banks, l1d
	l2.arr.Restore(s.arr)
	l2.dir = make(map[uint64]*dirEntry, len(s.dir))
	for b, d := range s.dir {
		cp := d
		l2.dir[b] = &cp
	}
	for i, b := range l2.banks {
		b.Restore(s.banks[i])
	}
	l2.MemSide = s.l2.MemSide.Snapshot()
}
