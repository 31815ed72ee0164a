// Package snoop implements the alternative memory-system topology the
// paper sketches in §4.1: "The Reunion execution model can also be
// implemented at a snoopy cache interface for microarchitectures with
// private caches, such as Montecito."
//
// Instead of an inclusive shared L2 with a directory, cores' private
// caches sit on a broadcast bus in front of memory. Every coherent
// transaction snoops all other vocal caches: an exclusive owner supplies
// data and downgrades or invalidates; otherwise memory supplies it. The
// bus serializes transactions, which makes the protocol a total order —
// considerably simpler than the banked directory.
//
// The three Reunion mechanisms translate naturally:
//
//   - Vocal/mute semantics: mute caches never assert snoop responses and
//     their writebacks are dropped at the source; the bus behaves as if
//     mute cores were absent.
//   - Phantom requests: a mute request rides the bus without changing any
//     coherence state. Its strengths become: null (arbitrary data
//     immediately), shared (peek other caches only — the analog of "check
//     the shared cache" when there is none — arbitrary data on a snoop
//     miss), and global (peek caches, then read memory).
//   - Synchronizing requests: both members of the pair arrive at the bus,
//     the block is flushed from their private caches, one coherent bus
//     transaction obtains the data, and both receive it atomically.
package snoop

import (
	"fmt"

	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
	"reunion/internal/sim"
)

// Config parameterizes the bus and memory.
type Config struct {
	SnoopLatency int64 // request issue + snoop response combining
	BusPerCycle  int   // transactions started per cycle
	MemLatency   int64 // memory access latency
	MemBanks     int
	MemBankBusy  int64
	MemMSHRs     int // outstanding memory fetches
	Phantom      PhantomStrength
}

// PhantomStrength aliases the shared definition so callers configure one
// notion of strength for either topology.
type PhantomStrength = int

// Phantom strengths (numeric values match coherence.PhantomStrength).
const (
	PhantomGlobal PhantomStrength = iota
	PhantomShared
	PhantomNull
)

// Bus is the snoopy interconnect plus memory controller. It implements
// the same downstream surface as the directory L2 (cache.Below plus sync
// cancellation), so the system can swap topologies.
type Bus struct {
	cfg Config
	// Identity wiring: preserved across Restore, never serialized.
	eq  *sim.EventQueue //reunion:shared
	mem *mem.Memory     //reunion:shared

	q   *interconnect.BankQueue //reunion:shared
	l1d []*cache.L1             //reunion:shared

	memInFlight  int
	memBankFree  []int64
	MemQueueWait int64

	pendingSync  map[int]*cache.Req
	syncMinToken map[int]int64

	fillsInFlight map[flightKey]int

	// Stats
	Transactions    int64
	Reads, ReadX    int64
	Ifetches        int64
	SnoopHits       int64 // supplied by another cache
	MemAccesses     int64
	WritebacksRecv  int64
	PhantomReqs     int64
	PhantomGarbage  int64
	PhantomPeeks    int64
	PhantomMemReads int64
	SyncRequests    int64
	Retries         int64
}

type flightKey struct {
	core  int
	block uint64
}

// NewBus builds the snoopy memory system for numCores private caches.
func NewBus(cfg Config, eq *sim.EventQueue, m *mem.Memory, numCores int) *Bus {
	if cfg.BusPerCycle < 1 {
		cfg.BusPerCycle = 1
	}
	b := &Bus{
		cfg:           cfg,
		eq:            eq,
		mem:           m,
		q:             interconnect.NewBankQueue(cfg.BusPerCycle),
		l1d:           make([]*cache.L1, numCores),
		pendingSync:   make(map[int]*cache.Req),
		syncMinToken:  make(map[int]int64),
		fillsInFlight: make(map[flightKey]int),
	}
	if cfg.MemBanks > 0 {
		b.memBankFree = make([]int64, cfg.MemBanks)
	}
	return b
}

// RegisterL1D attaches a core's data cache for snooping.
func (b *Bus) RegisterL1D(core int, c *cache.L1) { b.l1d[core] = c }

// Request implements cache.Below.
func (b *Bus) Request(r *cache.Req) { b.q.Push(b.eq.Now(), r) }

// Tick arbitrates and processes bus transactions. Call once per cycle.
func (b *Bus) Tick() {
	now := b.eq.Now()
	for {
		it := b.q.Pop(now)
		if it == nil {
			return
		}
		b.process(it.(*cache.Req))
	}
}

// QuiesceWake implements sim.Tickable: the bus has work exactly when its
// queue holds a transaction (memory completions and reply deliveries
// travel through scheduled events).
func (b *Bus) QuiesceWake() (int64, bool) {
	return 0, b.q.Len() == 0
}

// AccountIdle implements sim.Tickable: the bus keeps no per-cycle
// counters.
func (b *Bus) AccountIdle(int64) {}

// ResetStats zeroes every bus statistic, including queue contention and
// memory-queue wait (measurement-window boundary).
func (b *Bus) ResetStats() {
	b.Transactions = 0
	b.Reads, b.ReadX, b.Ifetches = 0, 0, 0
	b.SnoopHits = 0
	b.MemAccesses = 0
	b.WritebacksRecv = 0
	b.PhantomReqs, b.PhantomGarbage, b.PhantomPeeks, b.PhantomMemReads = 0, 0, 0, 0
	b.SyncRequests = 0
	b.Retries = 0
	b.MemQueueWait = 0
	b.q.ResetStats()
}

func (b *Bus) requeue(r *cache.Req) {
	b.Retries++
	b.q.Push(b.eq.Now(), r)
}

// trackFill marks a granted-but-undelivered fill. A matching releaseFill
// must run after the fill lands. Grants are tracked from the moment the
// bus transaction decides them — the decision's side effects (snoops,
// invalidations) happen at process time, so later transactions must see
// the grant immediately or they would re-grant exclusivity.
func (b *Bus) trackFill(core int, block uint64) {
	b.fillsInFlight[flightKey{core: core, block: block}]++
}

func (b *Bus) releaseFill(core int, block uint64) {
	key := flightKey{core: core, block: block}
	if b.fillsInFlight[key]--; b.fillsInFlight[key] == 0 {
		delete(b.fillsInFlight, key)
	}
}

// reply delivers a response after lat cycles. release selects whether the
// delivery retires a tracked fill; the tracking key is always the reply
// target's {core, block}, which is what lets the event survive checkpoint
// serialization as plain data.
func (b *Bus) reply(r *cache.Req, data *mem.Block, exclusive bool, lat int64, release bool) {
	if lat < 1 {
		lat = 1
	}
	d := &EvReply{R: r, Data: *data, Exclusive: exclusive, Release: release}
	b.eq.AfterR(lat, d, b)
}

// RunEvent implements sim.EventRunner: the bus schedules its events with
// descriptors and dispatches on their type here. The checkpoint binder
// attaches the bus as the runner of every decoded bus event, so a bound
// machine runs the same code. Each event's schedule-time bookkeeping
// (memInFlight, fill tracking) is in the snapshot, so firing only
// completes it, never repeats it.
func (b *Bus) RunEvent(desc any) {
	switch d := desc.(type) {
	case *EvReply:
		b.deliverReply(d)
	case *EvMemFetch:
		b.memFetchDone(d)
	case *EvPhantomMem:
		b.phantomMemDone(d.R)
	case *EvSyncMem:
		b.syncMemDone(d)
	default:
		panic(fmt.Sprintf("snoop: Bus.RunEvent on unknown descriptor %T", desc))
	}
}

// deliverReply delivers a scheduled response, then retires the
// fill-tracking entry reply took.
func (b *Bus) deliverReply(d *EvReply) {
	d.R.Deliver(cache.Resp{Data: d.Data, Exclusive: d.Exclusive})
	if d.Release {
		b.releaseFill(d.R.Core, d.R.Block)
	}
}

func (b *Bus) fillInFlight(core int, block uint64) bool {
	return b.fillsInFlight[flightKey{core: core, block: block}] > 0
}

func (b *Bus) memLatency(block uint64) int64 {
	if b.memBankFree == nil {
		return b.cfg.MemLatency
	}
	bank := (block >> mem.BlockShift) % uint64(len(b.memBankFree))
	now := b.eq.Now()
	start := now
	if b.memBankFree[bank] > start {
		start = b.memBankFree[bank]
		b.MemQueueWait += start - now
	}
	b.memBankFree[bank] = start + b.cfg.MemBankBusy
	return start - now + b.cfg.MemLatency
}

func garbageBlock(block uint64) mem.Block {
	var g mem.Block
	for i := range g {
		g[i] = sim.Mix64(block ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ 0x5160_0b5c_bad5_eed5)
	}
	return g
}

// snoopOthers probes every other vocal cache. invalidate selects
// invalidation vs downgrade. It returns the freshest data found (if any)
// and whether the transaction must retry (an in-flight grant or locked
// line).
func (b *Bus) snoopOthers(r *cache.Req, invalidate bool) (data mem.Block, supplied bool, retry bool) {
	for c := 0; c < len(b.l1d); c++ {
		l1 := b.l1d[c]
		if l1 == nil || c == r.Core || !l1.Vocal {
			continue
		}
		if b.fillInFlight(c, r.Block) {
			return mem.Block{}, false, true
		}
		line := l1.Arr.Peek(r.Block)
		if line == nil {
			continue
		}
		switch line.State {
		case cache.Modified, cache.Exclusive:
			var d mem.Block
			var dirty, had, busy bool
			if invalidate {
				d, dirty, had, busy = l1.ProbeInvalidate(r.Block)
			} else {
				d, dirty, had, busy = l1.ProbeDowngrade(r.Block)
			}
			if busy {
				return mem.Block{}, false, true
			}
			if had {
				data = d
				supplied = true
				b.SnoopHits++
				if dirty {
					// Snoop supply writes the dirty data home too
					// (write-back on ownership transfer).
					b.mem.WriteBlock(r.Block, &d)
				}
			}
		case cache.Shared:
			if invalidate {
				if _, _, _, busy := l1.ProbeInvalidate(r.Block); busy {
					return mem.Block{}, false, true
				}
			}
		}
	}
	return data, supplied, false
}

func (b *Bus) process(r *cache.Req) {
	b.Transactions++
	switch r.Kind {
	case cache.Writeback:
		if !r.Vocal {
			panic("snoop: mute writeback reached the bus")
		}
		b.WritebacksRecv++
		if r.Data != nil {
			b.mem.WriteBlock(r.Block, r.Data)
		}
	case cache.Sync:
		b.processSync(r)
	default:
		if r.Vocal {
			b.processVocal(r)
		} else {
			b.processPhantom(r)
		}
	}
}

// fetchAndReply supplies r from snooped data or memory. Tracking of the
// granted fill begins now, before any latency elapses.
func (b *Bus) fetchAndReply(r *cache.Req, data mem.Block, supplied, exclusive bool) bool {
	if !supplied && b.memInFlight >= b.cfg.MemMSHRs {
		b.requeue(r)
		return false
	}
	release := r.Kind != cache.Ifetch
	if release {
		b.trackFill(r.Core, r.Block)
	}
	if supplied {
		b.reply(r, &data, exclusive, b.cfg.SnoopLatency, release)
		return true
	}
	b.MemAccesses++
	b.memInFlight++
	d := &EvMemFetch{R: r, Exclusive: exclusive, Release: release}
	b.eq.AfterR(b.memLatency(r.Block), d, b)
	return true
}

// memFetchDone completes a memory fetch: read the block and schedule the
// reply.
func (b *Bus) memFetchDone(d *EvMemFetch) {
	b.memInFlight--
	var data mem.Block
	b.mem.ReadBlock(d.R.Block, &data)
	b.reply(d.R, &data, d.Exclusive, b.cfg.SnoopLatency, d.Release)
}

func (b *Bus) processVocal(r *cache.Req) {
	switch r.Kind {
	case cache.Ifetch:
		b.Ifetches++
		// Code is immutable; no snoop needed. Pays memory latency (there
		// is no shared cache at a snoopy interface).
		b.fetchAndReply(r, mem.Block{}, false, false)
	case cache.GetS:
		b.Reads++
		data, supplied, retry := b.snoopOthers(r, false)
		if retry {
			b.requeue(r)
			return
		}
		// Exclusive grant when no other cache holds a copy.
		exclusive := !supplied && !b.anySharer(r)
		b.fetchAndReply(r, data, supplied, exclusive)
	case cache.GetX:
		b.ReadX++
		data, supplied, retry := b.snoopOthers(r, true)
		if retry {
			b.requeue(r)
			return
		}
		b.fetchAndReply(r, data, supplied, true)
	default:
		panic(fmt.Sprintf("snoop: unexpected vocal request %v", r.Kind))
	}
}

// anySharer reports whether any other vocal cache holds the block Shared.
func (b *Bus) anySharer(r *cache.Req) bool {
	for c := 0; c < len(b.l1d); c++ {
		l1 := b.l1d[c]
		if l1 == nil || c == r.Core || !l1.Vocal {
			continue
		}
		if l1.Arr.Peek(r.Block) != nil {
			return true
		}
	}
	return false
}

// peekVocal returns the freshest vocal copy without changing any state
// (the snoopy analog of the global phantom's owner peek).
func (b *Bus) peekVocal(block uint64) (mem.Block, bool) {
	var best mem.Block
	found := false
	for c := 0; c < len(b.l1d); c++ {
		l1 := b.l1d[c]
		if l1 == nil || !l1.Vocal {
			continue
		}
		if line := l1.Arr.Peek(block); line != nil {
			best = line.Data
			found = true
			if line.State == cache.Modified || line.State == cache.Exclusive {
				return line.Data, true // unique freshest copy
			}
		}
	}
	return best, found
}

func (b *Bus) processPhantom(r *cache.Req) {
	b.PhantomReqs++
	switch b.cfg.Phantom {
	case PhantomNull:
		g := garbageBlock(r.Block)
		b.PhantomGarbage++
		b.trackFill(r.Core, r.Block)
		b.reply(r, &g, true, b.cfg.SnoopLatency, true)
	case PhantomShared:
		// No shared cache exists at a snoopy interface; the comparable
		// strength peeks the other private caches without going off-chip.
		if d, ok := b.peekVocal(r.Block); ok {
			b.PhantomPeeks++
			b.trackFill(r.Core, r.Block)
			b.reply(r, &d, true, b.cfg.SnoopLatency, true)
			return
		}
		g := garbageBlock(r.Block)
		b.PhantomGarbage++
		b.trackFill(r.Core, r.Block)
		b.reply(r, &g, true, b.cfg.SnoopLatency, true)
	default: // PhantomGlobal
		if d, ok := b.peekVocal(r.Block); ok {
			b.PhantomPeeks++
			b.trackFill(r.Core, r.Block)
			b.reply(r, &d, true, b.cfg.SnoopLatency, true)
			return
		}
		if b.memInFlight >= b.cfg.MemMSHRs {
			b.requeue(r)
			return
		}
		b.PhantomMemReads++
		b.MemAccesses++
		b.memInFlight++
		b.trackFill(r.Core, r.Block)
		b.eq.AfterR(b.memLatency(r.Block), &EvPhantomMem{R: r}, b)
	}
}

// phantomMemDone completes a phantom off-chip read.
func (b *Bus) phantomMemDone(r *cache.Req) {
	b.memInFlight--
	var data mem.Block
	b.mem.ReadBlock(r.Block, &data)
	b.reply(r, &data, true, b.cfg.SnoopLatency, true)
}

func (b *Bus) processSync(r *cache.Req) {
	if r.Token < b.syncMinToken[r.Pair] {
		return // cancelled by recovery escalation
	}
	first, ok := b.pendingSync[r.Pair]
	if !ok {
		b.pendingSync[r.Pair] = r
		return
	}
	if first.Token != r.Token {
		if first.Token < r.Token {
			b.pendingSync[r.Pair] = r
		}
		return
	}
	if first.Block != r.Block {
		panic(fmt.Sprintf("snoop: pair %d sync blocks disagree: %#x vs %#x", r.Pair, first.Block, r.Block))
	}
	vocal, mute := first, r
	if !vocal.Vocal {
		vocal, mute = r, first
	}
	if b.fillInFlight(vocal.Core, r.Block) || b.fillInFlight(mute.Core, r.Block) {
		b.pendingSync[r.Pair] = first
		b.requeue(r)
		return
	}
	delete(b.pendingSync, r.Pair)
	b.SyncRequests++

	// Flush the pair's own copies; the vocal's dirty data goes home.
	if vd, vdirty, vhad, vbusy := b.l1d[vocal.Core].ProbeInvalidate(r.Block); !vbusy && vhad && vdirty {
		b.mem.WriteBlock(r.Block, &vd)
	}
	b.l1d[mute.Core].ProbeInvalidate(r.Block)

	// One coherent write transaction on behalf of the pair.
	data, supplied, retry := b.snoopOthers(vocal, true)
	if retry {
		b.pendingSync[r.Pair] = first
		b.requeue(r)
		return
	}
	if supplied {
		b.trackFill(vocal.Core, r.Block)
		b.trackFill(mute.Core, r.Block)
		b.reply(vocal, &data, true, b.cfg.SnoopLatency, true)
		b.reply(mute, &data, true, b.cfg.SnoopLatency, true)
		return
	}
	if b.memInFlight >= b.cfg.MemMSHRs {
		b.pendingSync[r.Pair] = first
		b.requeue(r)
		return
	}
	b.MemAccesses++
	b.memInFlight++
	b.trackFill(vocal.Core, r.Block)
	b.trackFill(mute.Core, r.Block)
	d := &EvSyncMem{V: vocal, M: mute}
	b.eq.AfterR(b.memLatency(r.Block), d, b)
}

// syncMemDone completes a pair's combined off-chip synchronizing fetch:
// both members receive the same data atomically.
func (b *Bus) syncMemDone(d *EvSyncMem) {
	b.memInFlight--
	var data mem.Block
	b.mem.ReadBlock(d.V.Block, &data)
	b.reply(d.V, &data, true, b.cfg.SnoopLatency, true)
	b.reply(d.M, &data, true, b.cfg.SnoopLatency, true)
}

// CancelSync invalidates stale synchronizing requests (recovery
// escalation), mirroring the directory controller's contract.
func (b *Bus) CancelSync(pair int, minToken int64) {
	if r := b.pendingSync[pair]; r != nil && r.Token < minToken {
		delete(b.pendingSync, pair)
	}
	if b.syncMinToken[pair] < minToken {
		b.syncMinToken[pair] = minToken
	}
}

// DebugRead returns the coherent view of a block (owner copy, else memory).
func (b *Bus) DebugRead(block uint64) mem.Block {
	for c := 0; c < len(b.l1d); c++ {
		l1 := b.l1d[c]
		if l1 == nil || !l1.Vocal {
			continue
		}
		if line := l1.Arr.Peek(block); line != nil &&
			(line.State == cache.Modified || line.State == cache.Exclusive) {
			return line.Data
		}
	}
	var d mem.Block
	b.mem.ReadBlock(block, &d)
	return d
}
