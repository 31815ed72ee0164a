// Package cache implements the set-associative cache structures of the
// simulated CMP: a generic LRU array used by both L1s and the shared L2,
// and the private write-back L1 controller with MSHRs that cores issue
// loads, stores and instruction fetches through.
//
// Lines carry real data. This matters: Reunion's input incoherence is a
// value phenomenon — a mute core holding a stale copy of a block while its
// vocal partner refetches a fresh one — so the caches must be functional,
// not just timing structures.
package cache

import (
	"slices"

	"reunion/internal/mem"
)

// State is a line's coherence state (MESI-style; the directory in the L2
// tracks sharers and owners among vocal L1s).
type State uint8

// Line coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns a one-letter state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is one cache line: tag (full block address), state, and data.
// Locked marks a line held by an in-flight atomic (CAS) between execute
// and retirement; locked lines are never victimized and coherence probes
// against them are deferred.
type Line struct {
	Block  uint64 // block-aligned address; valid only when State != Invalid
	State  State
	Dirty  bool
	Locked bool
	Data   mem.Block
	lru    int64
}

// Array is a set-associative cache array with true-LRU replacement.
//
// The array records every set it hands a *Line out of or mutates since
// its last Snapshot or Restore. Outside those sets it still equals its
// base state, so restoring the base rewrites only the touched sets.
type Array struct {
	sets    [][]Line
	setMask uint64
	ways    int
	tick    int64
	touched []bool     //reunion:derived restore bookkeeping: per set, handed out or mutated since base; cleared by every Snapshot and Restore
	base    ArrayState //reunion:derived restore bookkeeping: the state the untouched sets equal, reset by every Snapshot and Restore
}

// NewArray builds an array with the given total capacity in bytes and
// associativity. Capacity must be a power-of-two multiple of
// ways*mem.BlockBytes.
func NewArray(capacityBytes, ways int) *Array {
	numLines := capacityBytes / mem.BlockBytes
	numSets := numLines / ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("cache: capacity/ways must give a power-of-two set count")
	}
	sets := make([][]Line, numSets)
	backing := make([]Line, numLines)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	// An empty array at tick 0 equals the zero ArrayState, its base.
	return &Array{sets: sets, setMask: uint64(numSets - 1), ways: ways,
		touched: make([]bool, numSets)}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return len(a.sets) }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

func (a *Array) set(block uint64) []Line {
	return a.sets[(block>>mem.BlockShift)&a.setMask]
}

// mark records that block's set may differ from the base state.
func (a *Array) mark(block uint64) {
	a.touched[(block>>mem.BlockShift)&a.setMask] = true
}

// Lookup returns the line holding block, touching LRU, or nil on miss.
func (a *Array) Lookup(block uint64) *Line {
	set := a.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Block == block {
			a.mark(block)
			a.tick++
			set[i].lru = a.tick
			return &set[i]
		}
	}
	return nil
}

// Peek returns the line holding block without touching LRU, or nil.
func (a *Array) Peek(block uint64) *Line {
	set := a.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Block == block {
			a.mark(block)
			return &set[i]
		}
	}
	return nil
}

// Victim selects the replacement victim for block: an invalid way if one
// exists, else the least recently used unlocked line. It returns nil if
// every way is locked (callers retry later; at most one line per core is
// ever locked, so this can only happen transiently in degenerate configs).
func (a *Array) Victim(block uint64) *Line {
	set := a.set(block)
	a.mark(block)
	var victim *Line
	for i := range set {
		l := &set[i]
		if l.State == Invalid {
			return l
		}
		if l.Locked {
			continue
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// Install places block into the array, evicting if needed. It returns the
// installed line and, when a valid line was displaced, a copy of the
// victim for writeback handling. Install panics if no victim is available.
func (a *Array) Install(block uint64, data *mem.Block, state State) (line *Line, victim Line, evicted bool) {
	if l := a.Lookup(block); l != nil {
		// Refill of a present line: update data/state in place.
		l.Data = *data
		l.State = state
		return l, Line{}, false
	}
	v := a.Victim(block)
	if v == nil {
		panic("cache: all ways locked")
	}
	if v.State != Invalid {
		victim = *v
		evicted = true
	}
	a.tick++
	*v = Line{Block: block, State: state, Data: *data, lru: a.tick}
	return v, victim, evicted
}

// Invalidate drops the line for block if present, returning its prior
// contents for recall handling. ok is false if the block was absent and
// busy is true (with ok false) if the line is locked by an atomic.
func (a *Array) Invalidate(block uint64) (prior Line, ok, busy bool) {
	l := a.Peek(block)
	if l == nil {
		return Line{}, false, false
	}
	if l.Locked {
		return Line{}, false, true
	}
	prior = *l
	l.State = Invalid
	l.Dirty = false
	return prior, true, false
}

// Downgrade moves an E/M line to Shared, returning its data (for
// writeback when it was dirty). Same busy semantics as Invalidate.
func (a *Array) Downgrade(block uint64) (prior Line, ok, busy bool) {
	l := a.Peek(block)
	if l == nil {
		return Line{}, false, false
	}
	if l.Locked {
		return Line{}, false, true
	}
	prior = *l
	l.State = Shared
	l.Dirty = false
	return prior, true, false
}

// ForEachValid calls fn for every valid line (stats, warmup checks).
func (a *Array) ForEachValid(fn func(*Line)) {
	for s, set := range a.sets {
		for w := range set {
			if set[w].State != Invalid {
				a.touched[s] = true
				fn(&set[w])
			}
		}
	}
}

// ArrayState is a checkpoint of the array: the LRU clock and a sparse
// copy of the valid lines (flat index = set*ways + way). Invalid lines
// carry no state the replacement policy or lookups can observe, so only
// valid lines are stored — which keeps a checkpoint of a mostly-empty
// shared cache small.
type ArrayState struct {
	tick  int64
	idx   []int32
	lines []Line
	// fromMem is a decoded state's: per line, whether its data is the
	// memory image's, which BindTo fills in. Nil on a live snapshot and
	// once bound.
	fromMem []bool
}

// Snapshot captures the array contents. Observably read-only; the
// snapshot becomes the array's base state.
func (a *Array) Snapshot() ArrayState {
	n := 0
	for _, set := range a.sets {
		for wi := range set {
			if set[wi].State != Invalid {
				n++
			}
		}
	}
	s := ArrayState{tick: a.tick, idx: make([]int32, 0, n), lines: make([]Line, 0, n)}
	flat := int32(0)
	for _, set := range a.sets {
		for wi := range set {
			if l := &set[wi]; l.State != Invalid {
				s.idx = append(s.idx, flat)
				s.lines = append(s.lines, *l)
			}
			flat++
		}
	}
	clear(a.touched)
	a.base = s
	return s
}

// isBase reports whether s is the array's base state. States are never
// mutated after creation, so sharing backing arrays means equal contents.
func (a *Array) isBase(s ArrayState) bool {
	b := a.base
	return s.tick == b.tick && len(s.idx) == len(b.idx) &&
		(len(s.idx) == 0 || &s.idx[0] == &b.idx[0] && &s.lines[0] == &b.lines[0])
}

// Restore rewrites the array from a snapshot: each rewritten set is
// invalidated, then its snapshotted valid lines are written back into
// their exact ways. Restoring the base state rewrites only the sets
// touched since it; any other state rewrites every set. The backing
// storage is reused, so *Line pointers taken before the snapshot keep
// pointing at the restored lines.
func (a *Array) Restore(s ArrayState) {
	all := !a.isBase(s)
	ways := int32(a.ways)
	k := 0 // cursor into s.idx; sets are visited in ascending order
	for si, set := range a.sets {
		if !all && !a.touched[si] {
			continue
		}
		clear(set)
		lo := int32(si) * ways
		if k < len(s.idx) && s.idx[k] < lo {
			j, _ := slices.BinarySearch(s.idx[k:], lo)
			k += j
		}
		for ; k < len(s.idx) && s.idx[k] < lo+ways; k++ {
			set[s.idx[k]-lo] = s.lines[k]
		}
	}
	clear(a.touched)
	a.tick = s.tick
	a.base = s
}
