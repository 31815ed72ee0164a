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
// The three Reunion mechanisms translate naturally, and the bus shares
// the directory's implementation of what does not depend on the topology
// (coherence.MemSide: memory-bank timing, sync pairing, fill tracking,
// and the phantom strength's reach):
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
	"reunion/internal/coherence"
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
	Phantom      coherence.PhantomStrength
}

// garbageSalt keeps the bus's phantom garbage apart from the directory's.
const garbageSalt = 0x5160_0b5c_bad5_eed5

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

	coherence.MemSide

	// Stats
	Transactions   int64
	Reads, ReadX   int64
	Ifetches       int64
	SnoopHits      int64 // supplied by another cache
	WritebacksRecv int64
	Retries        int64
}

// NewBus builds the snoopy memory system for numCores private caches.
func NewBus(cfg Config, eq *sim.EventQueue, m *mem.Memory, numCores int) *Bus {
	if cfg.BusPerCycle < 1 {
		cfg.BusPerCycle = 1
	}
	return &Bus{
		cfg: cfg,
		eq:  eq,
		mem: m,
		q:   interconnect.NewBankQueue(cfg.BusPerCycle),
		l1d: make([]*cache.L1, numCores),
		MemSide: coherence.NewMemSide(coherence.Config{
			MemLatency:  cfg.MemLatency,
			MemBanks:    cfg.MemBanks,
			MemBankBusy: cfg.MemBankBusy,
			MemMSHRs:    cfg.MemMSHRs,
		}),
	}
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
	b.WritebacksRecv = 0
	b.Retries = 0
	b.MemSide.ResetStats()
	b.q.ResetStats()
}

func (b *Bus) requeue(r *cache.Req) {
	b.Retries++
	b.q.Push(b.eq.Now(), r)
}

// reply delivers a response after lat cycles. release selects whether the
// delivery retires a tracked fill; the tracking key is always the reply
// target's {core, block}, which is what lets the event survive checkpoint
// serialization as plain data. Grants are tracked (TrackFill) from the
// moment the bus transaction decides them — the decision's side effects
// (snoops, invalidations) happen at process time, so later transactions
// must see the grant immediately or they would re-grant exclusivity.
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
		b.Deliver(d.R, &d.Data, d.Exclusive, d.Release)
	case *EvMemFetch:
		b.memFetchDone(d)
	case *coherence.EvPhantomMem:
		b.phantomMemDone(d.R)
	case *EvSyncMem:
		b.syncMemDone(d)
	default:
		panic(fmt.Sprintf("snoop: Bus.RunEvent on unknown descriptor %T", desc))
	}
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
		if b.FillInFlight(c, r.Block) {
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

// fetchAndReply supplies r from snooped data or memory, or requeues it
// while the memory MSHRs are full. Tracking of the granted fill begins
// now, before any latency elapses.
func (b *Bus) fetchAndReply(r *cache.Req, data mem.Block, supplied, exclusive bool) {
	if !supplied && b.MemFull() {
		b.requeue(r)
		return
	}
	release := r.Kind != cache.Ifetch
	if release {
		b.TrackFill(r.Core, r.Block)
	}
	if supplied {
		b.reply(r, &data, exclusive, b.cfg.SnoopLatency, release)
		return
	}
	d := &EvMemFetch{R: r, Exclusive: exclusive, Release: release}
	b.eq.AfterR(b.StartMem(b.eq.Now(), r.Block), d, b)
}

// memFetchDone completes a memory fetch: read the block and schedule the
// reply.
func (b *Bus) memFetchDone(d *EvMemFetch) {
	data := b.EndMem(b.mem, d.R.Block)
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

// processPhantom serves a mute request at the configured strength. No
// shared cache exists at a snoopy interface, so the on-chip search peeks
// the other private caches without going off-chip.
func (b *Bus) processPhantom(r *cache.Req) {
	b.PhantomReqs++
	onChip, global := b.cfg.Phantom.Reach()
	if onChip {
		if d, ok := b.peekVocal(r.Block); ok {
			b.PhantomPeeks++
			b.TrackFill(r.Core, r.Block)
			b.reply(r, &d, true, b.cfg.SnoopLatency, true)
			return
		}
	}
	if !global {
		g := b.Garbage(r.Block, garbageSalt)
		b.TrackFill(r.Core, r.Block)
		b.reply(r, &g, true, b.cfg.SnoopLatency, true)
		return
	}
	if b.MemFull() {
		b.requeue(r)
		return
	}
	b.PhantomMemReads++
	b.TrackFill(r.Core, r.Block)
	b.eq.AfterR(b.StartMem(b.eq.Now(), r.Block), &coherence.EvPhantomMem{R: r}, b)
}

// phantomMemDone completes a phantom off-chip read.
func (b *Bus) phantomMemDone(r *cache.Req) {
	data := b.EndMem(b.mem, r.Block)
	b.reply(r, &data, true, b.cfg.SnoopLatency, true)
}

// processSync implements the synchronizing request: once MemSide has
// paired both members of the logical pair, the block is flushed from
// their private caches, one coherent bus transaction obtains the data,
// and both receive it atomically.
func (b *Bus) processSync(r *cache.Req) {
	vocal, mute, retry := b.PairSync(r)
	if retry {
		b.requeue(r)
		return
	}
	if vocal == nil {
		return
	}
	// Flush the pair's own copies; the vocal's dirty data goes home.
	if vd, vdirty, vhad, vbusy := b.l1d[vocal.Core].ProbeInvalidate(r.Block); !vbusy && vhad && vdirty {
		b.mem.WriteBlock(r.Block, &vd)
	}
	b.l1d[mute.Core].ProbeInvalidate(r.Block)

	// One coherent write transaction on behalf of the pair.
	data, supplied, retry := b.snoopOthers(vocal, true)
	if retry || !supplied && b.MemFull() {
		b.ReparkSync(r, vocal, mute)
		b.requeue(r)
		return
	}
	b.TrackFill(vocal.Core, r.Block)
	b.TrackFill(mute.Core, r.Block)
	if supplied {
		b.reply(vocal, &data, true, b.cfg.SnoopLatency, true)
		b.reply(mute, &data, true, b.cfg.SnoopLatency, true)
		return
	}
	d := &EvSyncMem{V: vocal, M: mute}
	b.eq.AfterR(b.StartMem(b.eq.Now(), r.Block), d, b)
}

// syncMemDone completes a pair's combined off-chip synchronizing fetch:
// both members receive the same data atomically.
func (b *Bus) syncMemDone(d *EvSyncMem) {
	data := b.EndMem(b.mem, d.V.Block)
	b.reply(d.V, &data, true, b.cfg.SnoopLatency, true)
	b.reply(d.M, &data, true, b.cfg.SnoopLatency, true)
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
