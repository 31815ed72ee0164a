// Package coherence implements the shared cache controller of the
// simulated CMP: a banked, inclusive L2 with a directory tracking vocal L1
// sharers and owners, backed by a fixed-latency memory model.
//
// On top of the ordinary MESI-style protocol, the controller implements
// the three Reunion mechanisms from §4.2 of the paper:
//
//   - Vocal/mute semantics: the directory never records mute caches as
//     sharers or owners, and mute evictions/writebacks never reach memory.
//     The coherence protocol behaves as if mute cores were absent.
//   - Phantom requests: every non-synchronizing mute request is transformed
//     into a phantom request that returns a value without changing
//     coherence state. Three strengths are modelled — null (arbitrary data
//     on any miss), shared (L2 hit data, arbitrary on L2 miss), and global
//     (L2, then vocal-owner peek, then main memory).
//   - Synchronizing requests: issued by both members of a logical pair
//     during the re-execution protocol. The controller collects both,
//     flushes the block from the pair's private caches, performs a coherent
//     write transaction on the pair's behalf, and replies to both cores
//     atomically.
package coherence

import (
	"fmt"

	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
	"reunion/internal/sim"
)

// Config holds shared-cache and memory parameters (Table 1 defaults come
// from the reunion package).
type Config struct {
	CapacityBytes int
	Ways          int
	Banks         int   // power of two
	HitLatency    int64 // L1-miss to L1-fill for an L2 hit (35 cycles)
	XBarLatency   int64 // one-way crossbar traversal, included in HitLatency
	RecallLatency int64 // extra latency to recall/peek a private L1 copy
	MemLatency    int64 // off-chip access (60ns at 4GHz = 240 cycles)
	MemBanks      int   // memory banks (64); 0 disables bank contention
	MemBankBusy   int64 // cycles a bank is occupied per access
	MemMSHRs      int   // max outstanding off-chip fetches (64)
	PortsPerBank  int   // bank service bandwidth per cycle
	Phantom       PhantomStrength
}

type dirEntry struct {
	sharers uint32 // vocal core bitmask, excluding owner
	owner   int8   // vocal core index with E/M permission, -1 if none
}

// garbageSalt keeps the directory's phantom garbage apart from the bus's.
const garbageSalt = 0xbadc0ffee0ddf00d

// L2 is the shared cache controller. It implements cache.Below.
type L2 struct {
	cfg Config
	eq  *sim.EventQueue //reunion:shared the system's one event queue, restored on its own
	arr *cache.Array
	dir map[uint64]*dirEntry
	mem *mem.Memory //reunion:shared the system's backing memory, restored on its own

	banks    []*interconnect.BankQueue
	bankMask uint64

	l1d []*cache.L1 // indexed by global core id; nil until registered

	MemSide

	// Stats
	Reads, ReadX, Ifetches int64
	HitsL2, MissesL2       int64
	Recalls                int64
	Invalidations          int64
	WritebacksRecv         int64
	RetriesInternal        int64
}

// NewL2 builds the controller.
func NewL2(cfg Config, eq *sim.EventQueue, m *mem.Memory, numCores int) *L2 {
	if cfg.Banks&(cfg.Banks-1) != 0 || cfg.Banks == 0 {
		panic("coherence: banks must be a power of two")
	}
	l2 := &L2{
		cfg:      cfg,
		eq:       eq,
		arr:      cache.NewArray(cfg.CapacityBytes, cfg.Ways),
		dir:      make(map[uint64]*dirEntry),
		mem:      m,
		bankMask: uint64(cfg.Banks - 1),
		l1d:      make([]*cache.L1, numCores),
		MemSide:  NewMemSide(cfg),
	}
	for i := 0; i < cfg.Banks; i++ {
		l2.banks = append(l2.banks, interconnect.NewBankQueue(cfg.PortsPerBank))
	}
	return l2
}

// RegisterL1D attaches a core's data cache for probes and phantom peeks.
func (l2 *L2) RegisterL1D(core int, c *cache.L1) { l2.l1d[core] = c }

// QueueStats returns aggregate bank-queue contention statistics. No
// simulator code reads them; it stays exported for the root package's
// kernel A/B test (TestKernelEquivalence), which compares them between
// the two kernels.
func (l2 *L2) QueueStats() (arrivals, totalWait int64) {
	for _, b := range l2.banks {
		arrivals += b.Arrivals
		totalWait += b.TotalWait
	}
	return
}

func (l2 *L2) bankOf(block uint64) *interconnect.BankQueue {
	return l2.banks[(block>>mem.BlockShift)&l2.bankMask]
}

// Request accepts an L1 (or pair) request. It arrives at its bank after
// the crossbar latency.
func (l2 *L2) Request(r *cache.Req) {
	l2.eq.AfterR(l2.cfg.XBarLatency, &EvXbar{R: r}, l2)
}

// xbarArrive lands a request that crossed the crossbar in its bank queue.
func (l2 *L2) xbarArrive(r *cache.Req) { l2.bankOf(r.Block).Push(l2.eq.Now(), r) }

// RunEvent implements sim.EventRunner: the controller schedules its
// events with descriptors and dispatches on their type here. The
// checkpoint binder attaches the controller as the runner of every
// decoded L2 event, so a bound machine runs the same code. Each event's
// schedule-time bookkeeping (memInFlight, fill tracking) is in the
// snapshot, so firing only completes it, never repeats it.
func (l2 *L2) RunEvent(desc any) {
	switch d := desc.(type) {
	case *EvXbar:
		l2.xbarArrive(d.R)
	case *EvReply:
		l2.Deliver(d.R, &d.Data, d.Exclusive, d.Track)
	case *EvMemCont:
		l2.memFetchDone(d)
	case *EvPhantomMem:
		l2.phantomMemDone(d.R)
	default:
		panic(fmt.Sprintf("coherence: L2.RunEvent on unknown descriptor %T", desc))
	}
}

// Tick services every bank once per cycle. Call exactly once per cycle.
func (l2 *L2) Tick() {
	now := l2.eq.Now()
	for _, b := range l2.banks {
		for {
			it := b.Pop(now)
			if it == nil {
				break
			}
			l2.process(it.(*cache.Req))
		}
	}
}

// QuiesceWake implements sim.Tickable: the controller has work exactly
// when a bank queue holds a request (arrivals, including internal
// requeues, land in a bank; everything else — memory completions, reply
// deliveries — travels through scheduled events).
func (l2 *L2) QuiesceWake() (int64, bool) {
	for _, b := range l2.banks {
		if b.Len() > 0 {
			return 0, false
		}
	}
	return 0, true
}

// AccountIdle implements sim.Tickable: the controller keeps no per-cycle
// counters.
func (l2 *L2) AccountIdle(int64) {}

// ResetStats zeroes every controller statistic, including bank-queue
// contention and memory-queue wait (measurement-window boundary).
func (l2 *L2) ResetStats() {
	l2.Reads, l2.ReadX, l2.Ifetches = 0, 0, 0
	l2.HitsL2, l2.MissesL2 = 0, 0
	l2.Recalls, l2.Invalidations = 0, 0
	l2.WritebacksRecv = 0
	l2.RetriesInternal = 0
	l2.MemSide.ResetStats()
	for _, b := range l2.banks {
		b.ResetStats()
	}
}

// requeue re-enqueues a request that hit a transient conflict; it will be
// serviced after everything already queued, which guarantees progress for
// in-flight notifications it may be waiting on.
func (l2 *L2) requeue(r *cache.Req) {
	l2.RetriesInternal++
	l2.bankOf(r.Block).Push(l2.eq.Now(), r)
}

// reply schedules a response to the requester after service plus crossbar
// time. extra adds recall or memory latency. Replies that grant a copy to
// a vocal data cache are tracked until delivery so directory probes can
// distinguish in-flight fills from silent clean evictions.
func (l2 *L2) reply(r *cache.Req, data *mem.Block, exclusive bool, extra int64) {
	lat := l2.cfg.HitLatency - l2.cfg.XBarLatency + extra
	if lat < 1 {
		lat = 1
	}
	track := r.Kind != cache.Ifetch
	if track {
		l2.TrackFill(r.Core, r.Block)
	}
	d := &EvReply{R: r, Data: *data, Exclusive: exclusive, Track: track}
	l2.eq.AfterR(lat, d, l2)
}

func (l2 *L2) process(r *cache.Req) {
	switch r.Kind {
	case cache.Writeback:
		l2.processWriteback(r)
	case cache.Sync:
		l2.processSync(r)
	default:
		if r.Vocal {
			l2.processVocal(r)
		} else {
			l2.processPhantom(r)
		}
	}
}

func (l2 *L2) processWriteback(r *cache.Req) {
	if !r.Vocal {
		// The controller ignores all eviction and writeback requests
		// originating from mute cores (paper §4.2). L1s drop them at the
		// source, so seeing one here is a bug.
		panic("coherence: mute writeback reached shared cache controller")
	}
	l2.WritebacksRecv++
	d := l2.dir[r.Block]
	if d != nil {
		if d.owner == int8(r.Core) {
			d.owner = -1
		}
		d.sharers &^= 1 << uint(r.Core)
		if r.Data == nil { // clean-eviction notification
			if d.owner < 0 && d.sharers == 0 {
				delete(l2.dir, r.Block)
			}
			return
		}
	}
	if r.Data == nil {
		return
	}
	if l := l2.arr.Peek(r.Block); l != nil {
		l.Data = *r.Data
		l.Dirty = true
		l.State = cache.Modified
	} else {
		// Victimized from L2 while the L1 still held it; write home.
		l2.mem.WriteBlock(r.Block, r.Data)
	}
}

// recallOwner pulls the freshest copy from the current owner's L1 into the
// L2 line. invalidate selects recall-invalidate vs recall-downgrade.
// It returns false (and requeues r) if the owner's copy is transiently
// unavailable (fill in flight or line locked by an atomic).
func (l2 *L2) recallOwner(r *cache.Req, line *cache.Line, d *dirEntry, invalidate bool) (ok bool, extra int64) {
	if d == nil || d.owner < 0 {
		return true, 0
	}
	if int(d.owner) == r.Core {
		// The requester itself is the stale-registered owner (it silently
		// evicted a clean E line and is re-requesting). Clear and proceed.
		d.owner = -1
		return true, 0
	}
	if l2.FillInFlight(int(d.owner), r.Block) {
		// The owner's grant has not landed yet. Probing now would find
		// either nothing or a stale pre-upgrade S line; both are wrong to
		// act on. Retry once the grant is delivered (bounded wait).
		l2.requeue(r)
		return false, 0
	}
	owner := l2.l1d[d.owner]
	var data mem.Block
	var dirty, had, busy bool
	if invalidate {
		data, dirty, had, busy = owner.ProbeInvalidate(r.Block)
	} else {
		data, dirty, had, busy = owner.ProbeDowngrade(r.Block)
	}
	if busy {
		l2.requeue(r)
		return false, 0
	}
	l2.Recalls++
	if had && dirty {
		line.Data = data
		line.Dirty = true
	}
	// With no line and no grant in flight (!had), the owner silently
	// evicted a clean line; the L2 copy is current. Clear ownership below.
	if invalidate {
		d.owner = -1
	} else {
		d.sharers |= 1 << uint(d.owner)
		d.owner = -1
	}
	return true, l2.cfg.RecallLatency
}

// invalidateSharers drops every vocal sharer except keep. It returns
// false (after requeueing r) when a sharer's fill is still in flight or
// its line is transiently locked: clearing the directory bit then would
// let the late fill create a stale copy the directory no longer tracks.
func (l2 *L2) invalidateSharers(r *cache.Req, block uint64, d *dirEntry, keep int) bool {
	if d == nil {
		return true
	}
	for c := 0; c < len(l2.l1d); c++ {
		if c == keep || d.sharers&(1<<uint(c)) == 0 {
			continue
		}
		if l1 := l2.l1d[c]; l1 != nil {
			if l2.FillInFlight(c, block) {
				l2.requeue(r)
				return false
			}
			if _, _, _, busy := l1.ProbeInvalidate(block); busy {
				l2.requeue(r)
				return false
			}
			l2.Invalidations++
		}
		d.sharers &^= 1 << uint(c)
	}
	return true
}

// ensureLine obtains the L2 line for d.R.Block, fetching from memory when
// absent, or requeues the request while the memory MSHRs are full. The
// continuation named by d runs when the line is resident, with extra
// latency already accumulated for the reply. The continuation is carried
// as plain data so a pending off-chip fetch survives checkpoint
// serialization.
func (l2 *L2) ensureLine(d *EvMemCont) {
	r := d.R
	if l := l2.arr.Lookup(r.Block); l != nil {
		l2.HitsL2++
		l2.runCont(d, l, 0)
		return
	}
	if l2.MemFull() {
		l2.requeue(r)
		return
	}
	l2.MissesL2++
	l2.eq.AfterR(l2.StartMem(l2.eq.Now(), r.Block), d, l2)
}

// memFetchDone completes an off-chip fetch: install the block and resume
// the request's continuation. The off-chip latency was paid by the event
// itself; the reply adds only its normal on-chip service and crossbar
// time.
func (l2 *L2) memFetchDone(d *EvMemCont) {
	data := l2.EndMem(l2.mem, d.R.Block)
	line := l2.installL2(d.R.Block, &data)
	l2.runCont(d, line, 0)
}

// runCont dispatches a resident-line continuation by kind.
func (l2 *L2) runCont(d *EvMemCont, line *cache.Line, extra int64) {
	switch d.Cont {
	case ContIfetch:
		l2.reply(d.R, &line.Data, false, extra)
	case ContGetS:
		l2.contGetS(d.R, line, extra)
	case ContGetX:
		l2.contGetX(d.R, line, extra)
	case ContSync:
		l2.contSync(d, line, extra)
	default:
		panic(fmt.Sprintf("coherence: unknown continuation kind %d", d.Cont))
	}
}

// installL2 places a block into the L2 array, handling inclusive eviction
// of the victim's L1 copies.
func (l2 *L2) installL2(block uint64, data *mem.Block) *cache.Line {
	if l := l2.arr.Peek(block); l != nil {
		// Raced with another miss to the same block; keep resident copy.
		return l
	}
	line, victim, evicted := l2.arr.Install(block, data, cache.Shared)
	if evicted {
		l2.evictInclusive(victim)
	}
	return line
}

func (l2 *L2) evictInclusive(victim cache.Line) {
	data := victim.Data
	dirty := victim.Dirty
	if d := l2.dir[victim.Block]; d != nil {
		if d.owner >= 0 {
			if od, odirty, had, busy := l2.l1d[d.owner].ProbeInvalidate(victim.Block); had && !busy && odirty {
				data = od
				dirty = true
			}
			// A busy (locked) or in-flight owner copy is a tolerated rare
			// race: its eventual writeback goes straight to memory. LRU
			// makes it near-impossible (the line was just touched).
		}
		for c := 0; c < len(l2.l1d); c++ {
			if d.sharers&(1<<uint(c)) == 0 {
				continue
			}
			if l1 := l2.l1d[c]; l1 != nil {
				l1.ProbeInvalidate(victim.Block)
				l2.Invalidations++
			}
		}
		delete(l2.dir, victim.Block)
	}
	if dirty {
		l2.mem.WriteBlock(victim.Block, &data)
	}
}

func (l2 *L2) dirFor(block uint64) *dirEntry {
	d := l2.dir[block]
	if d == nil {
		d = &dirEntry{owner: -1}
		l2.dir[block] = d
	}
	return d
}

func (l2 *L2) processVocal(r *cache.Req) {
	switch r.Kind {
	case cache.Ifetch:
		l2.Ifetches++
		l2.ensureLine(&EvMemCont{R: r, Cont: ContIfetch})
	case cache.GetS:
		l2.Reads++
		l2.ensureLine(&EvMemCont{R: r, Cont: ContGetS})
	case cache.GetX:
		l2.ReadX++
		l2.ensureLine(&EvMemCont{R: r, Cont: ContGetX})
	default:
		panic(fmt.Sprintf("coherence: unexpected vocal request kind %v", r.Kind))
	}
}

// contGetS resumes a vocal read once the line is resident.
func (l2 *L2) contGetS(r *cache.Req, line *cache.Line, extra int64) {
	d := l2.dirFor(r.Block)
	ok, rextra := l2.recallOwner(r, line, d, false)
	if !ok {
		return
	}
	exclusive := d.sharers == 0 && d.owner < 0
	if exclusive {
		d.owner = int8(r.Core)
	} else {
		d.sharers |= 1 << uint(r.Core)
	}
	l2.reply(r, &line.Data, exclusive, extra+rextra)
}

// contGetX resumes a vocal read-exclusive once the line is resident.
func (l2 *L2) contGetX(r *cache.Req, line *cache.Line, extra int64) {
	d := l2.dirFor(r.Block)
	ok, rextra := l2.recallOwner(r, line, d, true)
	if !ok {
		return
	}
	if !l2.invalidateSharers(r, r.Block, d, r.Core) {
		return
	}
	d.sharers = 0
	d.owner = int8(r.Core)
	l2.reply(r, &line.Data, true, extra+rextra)
}

// processPhantom serves a mute request at the configured strength.
// Phantom replies always grant write permission within the mute hierarchy.
func (l2 *L2) processPhantom(r *cache.Req) {
	l2.PhantomReqs++
	onChip, global := l2.cfg.Phantom.Reach()
	if onChip {
		if line := l2.arr.Lookup(r.Block); line != nil {
			l2.HitsL2++
			// Best-effort freshness: a global phantom peeks a vocal
			// owner's private copy without changing its coherence state.
			if d := l2.dir[r.Block]; global && d != nil && d.owner >= 0 {
				if data, ok := l2.l1d[d.owner].PeekWord(r.Block); ok {
					l2.PhantomPeeks++
					l2.reply(r, &data, true, l2.cfg.RecallLatency)
					return
				}
			}
			l2.reply(r, &line.Data, true, 0)
			return
		}
		l2.MissesL2++
	}
	if !global {
		g := l2.Garbage(r.Block, garbageSalt)
		l2.reply(r, &g, true, 0)
		return
	}
	// Off-chip non-coherent read: do not install in L2 (a phantom
	// request must not change memory-system state).
	if l2.MemFull() {
		l2.requeue(r)
		return
	}
	l2.PhantomMemReads++
	l2.eq.AfterR(l2.StartMem(l2.eq.Now(), r.Block), &EvPhantomMem{R: r}, l2)
}

// phantomMemDone completes a phantom off-chip read: reply with the memory
// image without installing anything.
func (l2 *L2) phantomMemDone(r *cache.Req) {
	data := l2.EndMem(l2.mem, r.Block)
	l2.reply(r, &data, true, 0)
}

// DebugDir formats the directory and cache state of a block plus every
// registered L1's view of it (wedge diagnosis). No simulator code calls
// it; it stays exported for the root package's TestDebugWedge, which
// prints it when a run wedges.
func (l2 *L2) DebugDir(block uint64) string {
	s := fmt.Sprintf("block %#x: ", block)
	if d := l2.dir[block]; d != nil {
		s += fmt.Sprintf("dir{owner=%d sharers=%012b} ", d.owner, d.sharers)
	} else {
		s += "dir{none} "
	}
	if l := l2.arr.Peek(block); l != nil {
		s += fmt.Sprintf("l2{%v dirty=%v w0=%d} ", l.State, l.Dirty, l.Data[0])
	} else {
		s += "l2{miss} "
	}
	for i, l1 := range l2.l1d {
		if l1 == nil {
			continue
		}
		if l := l1.Arr.Peek(block); l != nil {
			s += fmt.Sprintf("l1d%d{%v dirty=%v locked=%v w0=%d} ", i, l.State, l.Dirty, l.Locked, l.Data[0])
		}
	}
	return s
}

// DebugRead returns the current coherent value of a block, outside of
// timing: the owner's private copy if one exists, else the L2 copy, else
// memory. For tests and result inspection.
func (l2 *L2) DebugRead(block uint64) mem.Block {
	if d := l2.dir[block]; d != nil && d.owner >= 0 {
		if data, ok := l2.l1d[d.owner].PeekWord(block); ok {
			return data
		}
	}
	if l := l2.arr.Peek(block); l != nil {
		return l.Data
	}
	var b mem.Block
	l2.mem.ReadBlock(block, &b)
	return b
}

// Prefill installs a block from memory into the L2 without timing (warmup
// from an emulated checkpoint). It reports whether the block was newly
// installed.
func (l2 *L2) Prefill(block uint64) bool {
	if l2.arr.Peek(block) != nil {
		return false
	}
	var d mem.Block
	l2.mem.ReadBlock(block, &d)
	l2.installL2(block, &d)
	return true
}

// Capacity returns the number of blocks the L2 can hold.
func (l2 *L2) Capacity() int { return l2.cfg.CapacityBytes / mem.BlockBytes }

// VisitDirty calls fn for every dirty line in the shared cache, in
// deterministic array order (set-major, then way). Architectural-state
// digests fold dirty L2 lines this way; clean lines mirror memory and
// carry no unique architectural state.
func (l2 *L2) VisitDirty(fn func(block uint64, data *mem.Block)) {
	l2.arr.ForEachValid(func(l *cache.Line) {
		if l.Dirty {
			fn(l.Block, &l.Data)
		}
	})
}

// processSync implements the synchronizing request: once MemSide has
// paired both members of the logical pair, the block is flushed from the
// pair's private caches, a coherent write transaction is performed on the
// pair's behalf, and both cores receive the same value atomically.
func (l2 *L2) processSync(r *cache.Req) {
	vocal, mute, retry := l2.PairSync(r)
	if retry {
		l2.requeue(r)
		return
	}
	if vocal == nil {
		return
	}
	// Flush the pair's private copies: the vocal's comes home, the mute's
	// is discarded.
	vd, vdirty, vhad, vbusy := l2.l1d[vocal.Core].ProbeInvalidate(r.Block)
	if vbusy {
		// Cannot happen in the re-execution protocol (the pair is single-
		// stepping and holds no locked lines), but be safe.
		l2.requeue(syncPartner(r, vocal, mute))
		l2.requeue(r)
		return
	}
	l2.l1d[mute.Core].ProbeInvalidate(r.Block)

	l2.ensureLine(&EvMemCont{
		R: r, Cont: ContSync,
		Vocal: vocal, Mute: mute,
		VHad: vhad, VDirty: vdirty, VData: vd,
	})
}

// contSync resumes a combined synchronizing request once the line is
// resident. d carries the pair's two requests and the flushed vocal copy.
func (l2 *L2) contSync(c *EvMemCont, line *cache.Line, extra int64) {
	r := c.R
	d := l2.dirFor(r.Block)
	ok, rextra := l2.recallOwner(r, line, d, true)
	if !ok {
		l2.ReparkSync(r, c.Vocal, c.Mute) // recallOwner requeued r
		return
	}
	if c.VHad && c.VDirty {
		line.Data = c.VData
		line.Dirty = true
	}
	if !l2.invalidateSharers(r, r.Block, d, c.Vocal.Core) {
		l2.ReparkSync(r, c.Vocal, c.Mute) // invalidateSharers requeued r
		return
	}
	d.sharers = 0
	d.owner = int8(c.Vocal.Core)
	// Atomic reply to both members of the pair.
	l2.reply(c.Vocal, &line.Data, true, extra+rextra)
	l2.reply(c.Mute, &line.Data, true, extra+rextra)
}
