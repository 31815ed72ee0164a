// Package tlb models the instruction and data translation lookaside
// buffers and their two management disciplines from the paper's §5.5:
//
//   - Hardware-managed: a miss costs a fixed page-walk latency and nothing
//     else (the baseline for most of the paper's results).
//   - Software-managed (UltraSPARC III "fast TLB miss handler"): a miss
//     invokes a handler containing two traps (entry and exit) and three
//     non-idempotent MMU accesses — five serializing events. Under any
//     checking microarchitecture each of those exposes the full comparison
//     latency, which is the effect Figure 7(b) quantifies.
//
// TLB state is updated on the committed instruction stream only. This keeps
// the vocal and mute TLBs of a logical pair exactly identical (they commit
// the same instruction stream), so a software handler is always invoked at
// the same instruction on both cores and never causes architectural
// divergence — matching a real machine, where the handler is part of the
// architectural execution.
package tlb

// Mode selects the TLB management discipline.
type Mode uint8

// Management modes.
const (
	// Hardware: misses are serviced by a fixed-latency page walker.
	Hardware Mode = iota
	// Software: misses trap to the UltraSPARC III-style fast miss handler
	// (2 traps + 3 non-idempotent MMU accesses + handler body).
	Software
)

// String names the mode.
func (m Mode) String() string {
	if m == Software {
		return "software"
	}
	return "hardware"
}

type entry struct {
	page  uint64
	valid bool
	lru   int64
}

// TLB is a set-associative translation buffer over page numbers. The
// simulator uses identity translation, so the TLB is a timing and counting
// structure: Access reports hit/miss and fills on miss.
type TLB struct {
	sets    [][]entry
	setMask uint64
	tick    int64

	Hits   int64
	Misses int64
}

// New builds a TLB with the given entry count and associativity.
func New(entries, ways int) *TLB {
	numSets := entries / ways
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic("tlb: entries/ways must give a power-of-two set count")
	}
	sets := make([][]entry, numSets)
	backing := make([]entry, entries)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return &TLB{sets: sets, setMask: uint64(numSets - 1)}
}

// Access looks up a page, filling on miss (LRU). It returns true on hit.
func (t *TLB) Access(page uint64) bool {
	set := t.sets[page&t.setMask]
	t.tick++
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].lru = t.tick
			t.Hits++
			return true
		}
	}
	t.Misses++
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	*victim = entry{page: page, valid: true, lru: t.tick}
	return false
}

// Probe reports whether page is resident without filling, counting, or
// touching LRU state (used to decide whether a software handler must run
// before mutating TLB state).
func (t *TLB) Probe(page uint64) bool {
	set := t.sets[page&t.setMask]
	for i := range set {
		if set[i].valid && set[i].page == page {
			return true
		}
	}
	return false
}

// Preload installs a page without counting (warmup).
func (t *TLB) Preload(page uint64) {
	set := t.sets[page&t.setMask]
	t.tick++
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].lru = t.tick
			return
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = entry{page: page, valid: true, lru: t.tick}
			return
		}
	}
	victim := &set[0]
	for i := range set {
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	*victim = entry{page: page, valid: true, lru: t.tick}
}

// ResetStats clears hit/miss counters (measurement-window boundaries).
func (t *TLB) ResetStats() { t.Hits, t.Misses = 0, 0 }

// TLBState is a checkpoint of the TLB: entries, LRU clock, and counters.
type TLBState struct {
	entries      []entry
	tick         int64
	hits, misses int64
}

// Snapshot captures the TLB state. Read-only.
func (t *TLB) Snapshot() *TLBState {
	n := 0
	for _, set := range t.sets {
		n += len(set)
	}
	s := &TLBState{tick: t.tick, hits: t.Hits, misses: t.Misses, entries: make([]entry, 0, n)}
	for _, set := range t.sets {
		s.entries = append(s.entries, set...)
	}
	return s
}

// Restore rewrites the TLB from a snapshot (same geometry by
// construction: checkpoints restore onto the system they were taken from).
func (t *TLB) Restore(s *TLBState) {
	i := 0
	for _, set := range t.sets {
		i += copy(set, s.entries[i:])
	}
	t.tick = s.tick
	t.Hits, t.Misses = s.hits, s.misses
}
