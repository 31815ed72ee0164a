package cache

import (
	"reunion/internal/mem"
)

// ReqKind distinguishes request types sent from an L1 to the shared cache
// controller.
type ReqKind uint8

// Request kinds.
const (
	// GetS requests read permission (coherent for vocal cores; transformed
	// into a phantom read for mute cores by the shared cache controller).
	GetS ReqKind = iota
	// GetX requests write permission and data.
	GetX
	// Ifetch requests instruction data (read-only, never exclusive).
	Ifetch
	// Writeback pushes a dirty evicted line down (vocal only; the
	// controller ignores mute writebacks per the Reunion model).
	Writeback
	// Sync is a synchronizing request (Reunion re-execution protocol):
	// the controller collects one from each member of a logical pair,
	// flushes the block from both private hierarchies, performs a coherent
	// transaction, and replies to both atomically.
	Sync
)

// String names the request kind.
func (k ReqKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetX:
		return "GetX"
	case Ifetch:
		return "Ifetch"
	case Writeback:
		return "WB"
	case Sync:
		return "Sync"
	}
	return "?"
}

// Req is a request from an L1 (or a logical pair, for Sync) to the shared
// cache controller.
type Req struct {
	Kind  ReqKind
	Block uint64
	Core  int   // global core index
	Pair  int   // logical processor index
	Vocal bool  // vocal (coherent) or mute (phantom) requester
	Token int64 // recovery generation for Sync requests; stale ones are dropped
	Data  *mem.Block
	L1    *L1 // the cache the reply fills; nil for writebacks
}

// Deliver hands the shared cache controller's reply to the L1 that
// issued the request.
func (r *Req) Deliver(resp Resp) { r.L1.fill(r.Block, resp) }

// Resp is the shared cache controller's reply.
type Resp struct {
	Data      mem.Block
	Exclusive bool
}

// Below is the downstream port an L1 sends requests into.
type Below interface {
	Request(*Req)
}

// AccessStatus is the result of a core-side L1 access attempt.
type AccessStatus uint8

// Access statuses.
const (
	// Hit: the access completed against the array; for loads the value is
	// valid now (the core applies its load-to-use latency).
	Hit AccessStatus = iota
	// Miss: the access was accepted; the L1 completes it into its Client
	// when the fill arrives.
	Miss
	// Retry: a structural hazard (MSHRs full, or an incompatible request
	// pending on the same block); the core should retry next cycle.
	Retry
)

// Client is the component an L1 completes its MSHR waiters into: the
// core that issued the accesses. Complete receives the waiter's
// descriptor and the filled word, and dispatches on cb.Kind.
type Client interface {
	Complete(cb *CB, word uint64)
}

// mshrWaiter is one access waiting on a fill. Its descriptor's kind
// decides what the fill does besides completing it: a CBStoreDone waiter
// writes data, and an atomic one (CBAtomicBegin, or a synchronizing
// wrapper around CBAtomicFin) locks the line.
type mshrWaiter struct {
	word int
	data uint64 // the store's value (CBStoreDone)
	cb   CB
}

type mshr struct {
	valid   bool
	block   uint64
	forX    bool
	waiters []mshrWaiter
}

// L1 is a private write-back L1 cache with MSHRs. One instance serves data
// accesses and a second (read-only) instance serves instruction fetches.
type L1 struct {
	Name  string
	Core  int
	Pair  int
	Vocal bool

	Arr     *Array
	Client  Client // completes MSHR waiters; cpu.New wires its core
	below   Below
	mshrs   []mshr
	free    int // count of free MSHRs
	iscache bool

	// Stats
	Hits, Misses, MergedMisses int64
	Fills                      int64
	WritebacksSent             int64
	MuteDropsWB                int64
	Retries                    int64
}

// NewL1 builds an L1 data or instruction cache.
func NewL1(name string, core, pair int, vocal bool, capacityBytes, ways, mshrs int, below Below, instruction bool) *L1 {
	return &L1{
		Name:    name,
		Core:    core,
		Pair:    pair,
		Vocal:   vocal,
		Arr:     NewArray(capacityBytes, ways),
		below:   below,
		mshrs:   make([]mshr, mshrs),
		free:    mshrs,
		iscache: instruction,
	}
}

func (c *L1) findMSHR(block uint64) *mshr {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].block == block {
			return &c.mshrs[i]
		}
	}
	return nil
}

func (c *L1) allocMSHR(block uint64, forX bool) *mshr {
	if c.free == 0 {
		return nil
	}
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			c.free--
			c.mshrs[i] = mshr{valid: true, block: block, forX: forX}
			return &c.mshrs[i]
		}
	}
	return nil
}

// sendMiss issues the downstream request for a freshly allocated MSHR.
func (c *L1) sendMiss(m *mshr, kind ReqKind) {
	c.below.Request(&Req{
		Kind:  kind,
		Block: m.block,
		Core:  c.Core,
		Pair:  c.Pair,
		Vocal: c.Vocal,
		L1:    c,
	})
}

// fill completes an outstanding miss: installs the line, performs waiting
// stores, locks the line for a waiting atomic, and completes every waiter
// into the Client.
func (c *L1) fill(block uint64, r Resp) {
	m := c.findMSHR(block)
	if m == nil {
		// The MSHR can never disappear: squashes cancel core-side
		// completions, not the cache fill itself.
		panic("cache: fill without MSHR: " + c.Name)
	}
	state := Shared
	if r.Exclusive {
		state = Exclusive
	}
	line, victim, evicted := c.Arr.Install(block, &r.Data, state)
	c.Fills++
	if evicted {
		c.evict(victim)
	}
	waiters := m.waiters
	m.valid = false
	m.waiters = nil
	c.free++
	for i := range waiters {
		w := &waiters[i]
		switch {
		case w.cb.Kind == CBStoreDone:
			line.Data[w.word] = w.data
			line.State = Modified
			line.Dirty = true
		case w.cb.Kind == CBAtomicBegin || w.cb.syncAtomic():
			// Write permission came with the GetX (or the synchronizing
			// fill): lock the line until the core's AtomicEnd.
			line.Locked = true
			line.State = Modified
		}
		c.Client.Complete(&w.cb, line.Data[w.word])
	}
}

func (c *L1) evict(victim Line) {
	if victim.Dirty {
		if c.Vocal {
			data := victim.Data
			c.WritebacksSent++
			c.below.Request(&Req{
				Kind:  Writeback,
				Block: victim.Block,
				Core:  c.Core,
				Pair:  c.Pair,
				Vocal: true,
				Data:  &data,
			})
		} else {
			// The shared cache controller ignores mute evictions and
			// writebacks (paper §4.2); we drop them at the source.
			c.MuteDropsWB++
		}
	}
}

// Load attempts to read the 64-bit word at block + 8*word. On a miss, cb
// describes the completion the fill hands to the Client.
func (c *L1) Load(block uint64, word int, cb CB) (AccessStatus, uint64) {
	if l := c.Arr.Lookup(block); l != nil {
		c.Hits++
		return Hit, l.Data[word]
	}
	if m := c.findMSHR(block); m != nil {
		m.waiters = append(m.waiters, mshrWaiter{word: word, cb: cb})
		c.MergedMisses++
		return Miss, 0
	}
	m := c.allocMSHR(block, false)
	if m == nil {
		c.Retries++
		return Retry, 0
	}
	m.waiters = append(m.waiters, mshrWaiter{word: word, cb: cb})
	c.Misses++
	kind := GetS
	if c.iscache {
		kind = Ifetch
	}
	c.sendMiss(m, kind)
	return Miss, 0
}

// Ifetch attempts to fetch the instruction block (timing only; instruction
// bytes themselves come from the Thread).
func (c *L1) Ifetch(block uint64, cb CB) AccessStatus {
	st, _ := c.Load(block, 0, cb)
	return st
}

// Store attempts to write the 64-bit word at block + 8*word. On a hit with
// write permission the store completes immediately; otherwise the line is
// (re)fetched exclusively and the store is applied at fill time, which
// cb's kind, CBStoreDone, tells the fill to do.
func (c *L1) Store(block uint64, word int, val uint64, cb CB) AccessStatus {
	if l := c.Arr.Lookup(block); l != nil {
		switch l.State {
		case Modified, Exclusive:
			l.Data[word] = val
			l.State = Modified
			l.Dirty = true
			c.Hits++
			return Hit
		case Shared:
			// Upgrade: refetch exclusively. The S copy stays readable
			// until the fill replaces it.
		}
	}
	if m := c.findMSHR(block); m != nil {
		if !m.forX {
			// A read fill is in flight; the store must wait for it to
			// resolve and then upgrade. Rare; retry is simplest.
			c.Retries++
			return Retry
		}
		m.waiters = append(m.waiters, mshrWaiter{word: word, data: val, cb: cb})
		c.MergedMisses++
		return Miss
	}
	m := c.allocMSHR(block, true)
	if m == nil {
		c.Retries++
		return Retry
	}
	m.waiters = append(m.waiters, mshrWaiter{word: word, data: val, cb: cb})
	c.Misses++
	c.sendMiss(m, GetX)
	return Miss
}

// AtomicBegin obtains the block in Modified state, locks the line against
// replacement and probes, and returns the current word value. The core
// calls AtomicEnd at retirement to apply (or discard) the write and
// unlock. Used by CAS. A miss fill locks the line before completing cb
// (whose Kind is CBAtomicBegin).
func (c *L1) AtomicBegin(block uint64, word int, cb CB) (AccessStatus, uint64) {
	if l := c.Arr.Lookup(block); l != nil && (l.State == Modified || l.State == Exclusive) {
		l.Locked = true
		c.Hits++
		return Hit, l.Data[word]
	}
	if m := c.findMSHR(block); m != nil {
		// Atomic to a block with an outstanding miss: retry until it
		// resolves (the atomic is serializing, so the core is quiet).
		c.Retries++
		return Retry, 0
	}
	m := c.allocMSHR(block, true)
	if m == nil {
		c.Retries++
		return Retry, 0
	}
	m.waiters = append(m.waiters, mshrWaiter{word: word, cb: cb})
	c.Misses++
	c.sendMiss(m, GetX)
	return Miss, 0
}

// AtomicEnd completes an atomic: optionally writes the new value, marks
// dirty, and unlocks the line.
func (c *L1) AtomicEnd(block uint64, word int, val uint64, write bool) {
	l := c.Arr.Peek(block)
	if l == nil {
		// The line must be present: it was locked. Tolerate anyway
		// (recovery can reset state between begin and end).
		return
	}
	if write {
		l.Data[word] = val
		l.State = Modified
		l.Dirty = true
	}
	l.Locked = false
}

// SyncFill issues a synchronizing request (Reunion re-execution protocol,
// Definition 10) for this cache. The fill travels through a normal MSHR so
// the coherence protocol sees it in flight — the shared cache controller
// combines the pair's two requests and replies to both atomically. When cb
// wraps an atomic's finish (CBAtomicFin) the filled line is locked and
// left Modified, as AtomicBegin would. The fill completes cb with the
// coherent word value. Returns false while a prior miss on the block is
// still outstanding or MSHRs are exhausted.
func (c *L1) SyncFill(block uint64, word int, token int64, cb CB) bool {
	if c.findMSHR(block) != nil {
		return false
	}
	m := c.allocMSHR(block, true)
	if m == nil {
		return false
	}
	m.waiters = append(m.waiters, mshrWaiter{word: word, cb: cb})
	c.below.Request(&Req{
		Kind:  Sync,
		Block: block,
		Core:  c.Core,
		Pair:  c.Pair,
		Vocal: c.Vocal,
		Token: token,
		L1:    c,
	})
	return true
}

// AbortMiss drops an outstanding MSHR whose reply will never arrive (a
// synchronizing request cancelled by recovery escalation). Waiters are
// discarded without completion.
func (c *L1) AbortMiss(block uint64) {
	if m := c.findMSHR(block); m != nil {
		m.valid = false
		m.waiters = nil
		c.free++
	}
}

// UnlockAll clears any lock left by a squashed in-flight atomic.
func (c *L1) UnlockAll() {
	c.Arr.ForEachValid(func(l *Line) { l.Locked = false })
}

// ProbeInvalidate removes the block on behalf of the coherence protocol,
// returning prior data for dirty recall. busy reports a locked line (the
// controller retries).
func (c *L1) ProbeInvalidate(block uint64) (data mem.Block, dirty, had, busy bool) {
	prior, ok, bsy := c.Arr.Invalidate(block)
	if bsy {
		return mem.Block{}, false, false, true
	}
	if !ok {
		return mem.Block{}, false, false, false
	}
	return prior.Data, prior.Dirty, true, false
}

// ProbeDowngrade demotes the block to Shared, returning data when it was
// dirty. busy reports a locked line.
func (c *L1) ProbeDowngrade(block uint64) (data mem.Block, dirty, had, busy bool) {
	prior, ok, bsy := c.Arr.Downgrade(block)
	if bsy {
		return mem.Block{}, false, false, true
	}
	if !ok {
		return mem.Block{}, false, false, false
	}
	return prior.Data, prior.Dirty, true, false
}

// PeekWord returns the current value of a word if the block is present
// (used by global phantom requests to read a vocal owner's copy without
// changing coherence state).
func (c *L1) PeekWord(block uint64) (data mem.Block, ok bool) {
	l := c.Arr.Peek(block)
	if l == nil {
		return mem.Block{}, false
	}
	return l.Data, true
}

// ResetStats zeroes every counter (measurement-window boundary).
func (c *L1) ResetStats() {
	c.Hits, c.Misses, c.MergedMisses = 0, 0, 0
	c.Fills = 0
	c.WritebacksSent = 0
	c.MuteDropsWB = 0
	c.Retries = 0
}

// L1State is a checkpoint of the cache: array contents, MSHRs (with their
// waiters' plain-data descriptors), and statistics.
type L1State struct {
	arr   ArrayState
	mshrs []mshr
	free  int

	hits, misses, merged int64
	fills                int64
	wbSent               int64
	muteDrops            int64
	retries              int64
}

// Snapshot captures the cache state. Read-only.
func (c *L1) Snapshot() *L1State {
	s := &L1State{
		arr:   c.Arr.Snapshot(),
		mshrs: append([]mshr(nil), c.mshrs...),
		free:  c.free,
		hits:  c.Hits, misses: c.Misses, merged: c.MergedMisses,
		fills: c.Fills, wbSent: c.WritebacksSent, muteDrops: c.MuteDropsWB,
		retries: c.Retries,
	}
	for i := range s.mshrs {
		s.mshrs[i].waiters = append([]mshrWaiter(nil), s.mshrs[i].waiters...)
	}
	return s
}

// Restore rewrites the cache from a snapshot. MSHR slots keep their
// backing array (outstanding fills find their MSHR by block, not by
// pointer, but identity costs nothing to preserve); waiter slices are
// copied out so post-restore appends never touch the snapshot.
func (c *L1) Restore(s *L1State) {
	c.Arr.Restore(s.arr)
	copy(c.mshrs, s.mshrs)
	for i := range c.mshrs {
		c.mshrs[i].waiters = append([]mshrWaiter(nil), s.mshrs[i].waiters...)
	}
	c.free = s.free
	c.Hits, c.Misses, c.MergedMisses = s.hits, s.misses, s.merged
	c.Fills = s.fills
	c.WritebacksSent = s.wbSent
	c.MuteDropsWB = s.muteDrops
	c.Retries = s.retries
}
