// Package cpu implements the out-of-order processor core of the simulated
// CMP: the simplified pipeline of the paper's Figure 3 — in-order fetch and
// decode, out-of-order issue/execute/writeback against a 256-entry RUU-style
// reorder buffer, a two-region (speculative/non-speculative) store buffer,
// and in-order retirement stages.
//
// For redundant execution models, retirement is split exactly as in
// Figure 3(b): instructions first pass mis-speculation detection, then
// enter an in-order *check* stage where a fingerprint of their
// architectural updates is generated and exchanged with the partner core,
// and only after a matching comparison do they retire to the architectural
// register file and non-speculative store buffer. Instructions occupy
// their ROB entry until the comparison completes, which is the resource-
// occupancy overhead the paper measures; serializing instructions stall
// issue of younger instructions until they retire, which is the
// serializing overhead.
//
// The core is fully functional: register values, memory values and branch
// outcomes are real, so a vocal/mute pair detects genuine divergence.
package cpu

import (
	"fmt"

	"reunion/internal/bpred"
	"reunion/internal/cache"
	"reunion/internal/fingerprint"
	"reunion/internal/isa"
	"reunion/internal/mem"
	"reunion/internal/program"
	"reunion/internal/sim"
	"reunion/internal/tlb"
)

// Consistency selects the memory consistency model.
type Consistency uint8

// Consistency models.
const (
	// TSO (Sun total store order): stores drain lazily from the
	// non-speculative store buffer; MEMBAR drains and serializes.
	TSO Consistency = iota
	// SC (sequential consistency): every store carries memory-barrier
	// semantics and therefore serializes retirement (paper §5.5).
	SC
)

// String names the consistency model.
func (c Consistency) String() string {
	if c == SC {
		return "SC"
	}
	return "TSO"
}

// Config holds per-core microarchitecture parameters (defaults per
// Table 1 live in the public reunion package).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	RetireWidth   int
	ROBSize       int
	SBSize        int
	FetchQCap     int
	CheckQCap     int   // max instructions in check (offered, unretired)
	LoadToUse     int64 // L1D hit latency
	FrontDepth    int64 // fetch-to-dispatch stages (redirect penalty)
	L1LoadPorts   int
	L1StorePorts  int
	TrapLatency   int64 // trap service body
	DevLatency    int64 // uncached device access latency
	Consistency   Consistency
	FPMode        fingerprint.Mode
	FPInterval    int // instructions per fingerprint/comparison interval

	TLB TLBPolicy
}

// TLBPolicy configures TLB management (paper §5.5).
type TLBPolicy struct {
	Mode        tlb.Mode
	WalkLatency int64 // hardware-managed page walk
	HandlerBody int64 // software handler non-serializing work
	// HandlerSerializers counts serializing events inside the software
	// handler: trap entry + three non-idempotent MMU accesses + trap
	// return = 5 for the UltraSPARC III fast miss handler.
	HandlerSerializers int
}

type entryState uint8

const (
	stFree entryState = iota
	stDispatched
	stIssued
	stDone
	stOffered
)

// Entry is one ROB (RUU) entry.
type Entry struct {
	Seq   int64
	PC    int64
	In    isa.Instr
	Epoch int64

	state entryState

	// Operand capture (RUU style): each source is either a ready value or
	// a reference to the producing ROB entry, guarded by the producer's
	// Seq against slot reuse.
	src1, src2, src3                int64
	src1Rob, src2Rob, src3Rob       int
	src1Seq, src2Seq, src3Seq       int64
	src1Reg, src2Reg, src3Reg       uint8
	src1Ready, src2Ready, src3Ready bool

	// Branch prediction state.
	predTaken  bool
	predTarget int64

	// Execution results.
	Result    int64
	Taken     bool
	Target    int64
	EA        uint64
	doneAt    int64
	hasDoneAt bool

	// CAS bookkeeping.
	casSuccess bool
	casNew     int64

	// Synchronizing-request bookkeeping (re-execution protocol).
	syncIssued bool

	// Check-stage state.
	Serializing bool  // ISA- or consistency-model-serializing
	ExtraCheck  int64 // additional compare exposure (software TLB handler)
	SerialCount int   // serializing compare exposures beyond the first
	OfferedAt   int64 // cycle the entry entered check
	tlbChecked  bool
	offerAfter  int64
}

type fqSlot struct {
	seq        int64
	pc         int64
	in         isa.Instr
	predTaken  bool
	predTarget int64
	readyAt    int64
}

type sbEntry struct {
	seq       int64
	block     uint64
	word      int
	data      uint64
	addrReady bool
	nonspec   bool
	draining  bool
}

// Stats are per-core counters. Reset at measurement boundaries.
type Stats struct {
	Committed       int64 // user instructions retired to architectural state
	CommittedLoads  int64
	CommittedStores int64
	Mispredicts     int64
	Serializing     int64 // serializing instructions committed
	ITLBMisses      int64
	DTLBMisses      int64
	ROBOccupancy    int64 // summed per cycle
	CheckOccupancy  int64 // offered-unretired summed per cycle
	Cycles          int64
	IssueStallSer   int64 // cycles an issuable instruction waited on a serializing fence
	SBFullStalls    int64
	DevReads        int64
}

// Gate decides when offered instructions may architecturally retire. It is
// the seam between the core pipeline and the execution model (non-
// redundant, strict, or Reunion pair) implemented in internal/core.
type Gate interface {
	// Offer is called once per instruction, in order, when it enters the
	// check stage. send is true when this instruction closes a comparison
	// interval; fp is then the interval fingerprint.
	Offer(c *Core, e *Entry, send bool, fp uint16)
	// FlushInterval closes the open comparison interval early, ending at
	// endSeq: a serializing instruction is next, and all older
	// instructions must compare and retire before it executes (§4.4:
	// "the fingerprint interval immediately ends").
	FlushInterval(c *Core, endSeq int64, fp uint16)
	// FinalizeReady reports whether the head entry may retire now.
	FinalizeReady(c *Core, e *Entry) bool
	// Stepping reports whether the core is in re-execution single-step mode.
	Stepping(c *Core) bool
	// SyncArmed reports whether the next load/atomic must use a
	// synchronizing request.
	SyncArmed(c *Core) bool
	// SyncIssue sends the synchronizing request for this core; the fill
	// completes cb with the coherent word value once the block is in the
	// core's L1 (locked and Modified when cb is a CBAtomicFin). The gate
	// wraps cb in a CBSyncWrap before registering it with the L1. It
	// returns false if the request could not be sent yet.
	SyncIssue(c *Core, block uint64, word int, cb cache.CB) bool
	// SyncDone runs the gate's half of a completed synchronizing fill (a
	// CBSyncWrap issued under generation gen), before the core completes
	// the wrapped descriptor.
	SyncDone(c *Core, gen int64)
	// DeviceRead returns the value of the n-th committed non-idempotent
	// device read at addr for this logical processor (replicated so both
	// members of a pair observe identical device values).
	DeviceRead(c *Core, addr uint64, n int64) int64
	// RetireWake reports the earliest future cycle at which FinalizeReady
	// for the (currently not-ready) head entry could turn true purely by
	// time passing — a pending comparison decision's completion cycle, or
	// the check-latency expiry. 0 means retirement waits on a scheduled
	// event or on other pipeline activity, either of which wakes the core
	// through the kernel anyway. Queried only after a Tick in which the
	// head did not retire, so gate-internal decision queues are settled.
	RetireWake(c *Core, e *Entry) int64
}

// Core is one simulated processor core.
type Core struct {
	ID    int
	Pair  int
	Vocal bool
	// Identity wiring, not wire state: a decoded snapshot carries nil in
	// these until BindTo rebinds them from the live core (see wire.go).
	Cfg *Config         //reunion:shared
	EQ  *sim.EventQueue //reunion:shared

	Thread *program.Thread  //reunion:shared
	L1D    *cache.L1        //reunion:shared
	L1I    *cache.L1        //reunion:shared
	ITLB   *tlb.TLB         //reunion:shared
	DTLB   *tlb.TLB         //reunion:shared
	BP     *bpred.Predictor //reunion:shared
	Gate   Gate             //reunion:shared

	// Architectural state.
	arf       [isa.NumRegs]int64
	commitSeq int64
	commitPC  int64

	// Front end.
	fetchPC     int64
	fetchSeq    int64
	fetchHalted bool
	icacheWait  bool
	curIBlock   uint64
	haveIBlock  bool
	fetchEpoch  int64
	fq          []fqSlot

	// Window.
	rob      []Entry
	robHead  int
	robCount int
	offerIdx int // entries [head, head+offerIdx) are offered
	rename   [isa.NumRegs]renameRef
	inExec   []int // ROB indices executing or awaiting memory

	// active lists, in age (seq) order, the stDispatched entries the issue
	// scan must examine: entries that are ready (or whose readiness the
	// scan has not yet established), quiet-parked on memory
	// disambiguation, or stalled on a serializing fence. Entries blocked
	// on pending operands leave the list entirely — they park in the
	// waiter chains below and are re-inserted (in age position) when a
	// waited producer completes. Under the naive poll-every-cycle kernel
	// nothing parks, so active is simply every dispatched entry. Derived
	// state: rebuilt from the ROB on restore, never in a checkpoint.
	active []dispEntry //reunion:derived

	// Producer-indexed waiter chains (fast-forward kernel): an
	// operand-blocked entry registers on each source whose producer has
	// not yet completed, and completeExec wakes the chain of the slot it
	// completes. A consumer occupies up to three chain nodes — one per
	// source position — linked intrusively through the flat wNext/wPrev
	// arrays (node ref = consumer slot * 3 + source position).
	// waiterHead is indexed by producer slot; wProd records, per node,
	// the producer slot the node is chained on (-1 = unregistered). All
	// derived state, reconstructed on restore from the authoritative
	// unready flags and producer states.
	waiterHead []int32 //reunion:derived
	wNext      []int32 //reunion:derived
	wPrev      []int32 //reunion:derived
	wProd      []int32 //reunion:derived
	wakeBuf    []int32 // scratch for wakeWaiters (chain is read, then edited) //reunion:derived

	// Whole-scan issue memo (fast-forward kernel): after a scan in which
	// every examined entry was (or became) memo-parked — nothing issued,
	// no statistic accrued, no volatile blocker, no list mutation — the
	// next scan is provably a no-op until the wake stamp or the list
	// itself changes. issueIdleLen is -1 when no such proof is held.
	issueIdleLen   int   //reunion:derived
	issueIdleStamp int64 //reunion:derived

	// Store buffer (ordered by seq; spec entries follow non-spec).
	sb         []sbEntry
	sbDraining bool
	// sbNonspec counts non-speculative (retired, still draining) entries
	// in sb; derived state maintained by finalize/drain/squash and
	// rebuilt on restore.
	sbNonspec int //reunion:derived

	// Serializing fences: seqs of in-flight serializing instructions.
	serQ []int64

	epoch  int64
	halted bool
	failed bool

	// Soft-error injection: when armed, the next register-writing
	// instruction entering check has the given bit of its result flipped
	// (a datapath transient caught by output comparison).
	faultArmed   bool
	faultBit     uint
	OnFaultFired func() //reunion:shared observer hook: Restore puts back the snapshot's, unwinding a per-trial wrapper

	// Fault-consumption tracking: faultSeq is the seq of the instruction a
	// fired fault flipped, until that instruction either retires (the flip
	// reached architectural state) or is squashed (the flip was discarded —
	// architecturally masked by rollback or a pipeline flush).
	faultSeq      int64
	FaultRetired  int64
	FaultSquashed int64

	// Commit digest (fault-injection observability): a running hash of
	// every retired instruction's architectural updates — register writes,
	// store address/data, branch targets — latched exactly when the
	// committed count since EnableCommitDigest reaches its target (or the
	// core halts). Comparing latched digests against a fault-free golden
	// run of the same seed classifies silent data corruption at a precise
	// instruction boundary, which a fixed-cycle snapshot cannot (a
	// recovered run loses cycles to rollback, not correctness).
	digestOn      bool
	digestCount   int64
	digestTarget  int64
	digestVal     uint64
	digestLatched uint64
	digestDone    bool

	// Fingerprinting.
	fpGen         *fingerprint.Gen
	intervalCount int

	// Per-cycle structural ports.
	loadsThisCycle  int
	storesThisCycle int

	// Quiescence tracking for the fast-forward kernel (see QuiesceWake).
	// progress marks any state change during the current Tick; a
	// volatileStall is a structural blocker that can clear by itself next
	// cycle (issue width, a cache port, an L1 retry), so the core must
	// keep ticking. idleSerStalls and idleSBFull record the per-cycle stat
	// increments a fully stalled core still accrues; AccountIdle replays
	// them for skipped cycles. execStamp versions the quiet-park and
	// whole-scan memos in the issue stage; it increments on every state
	// change that can unblock a dispatched entry (see noteWake).
	// pollEvery disables the memos, restoring the naive kernel's
	// poll-everything issue loop.
	progress      bool
	volatileStall bool
	idleSerStalls int64
	idleSBFull    int64
	execStamp     int64
	pollEvery     bool

	// Self-tick short-circuit (fast-forward kernel): after a tick with no
	// progress and no volatile blocker, selfQuiet latches with selfWake
	// (the earliest time-triggered work, 0 = event-driven only). While
	// quiet, not dirty, and before the wake cycle, Tick reduces to the
	// idle accounting a full quiescent tick would perform. dirty is set
	// by every event-context mutation of core state (cache fills,
	// store-drain completions, pair comparison decisions, squash/
	// recovery, fault arming) and forces the next Tick to run in full.
	dirty     bool
	selfQuiet bool
	selfWake  int64

	// devCount numbers committed device reads; unlike Stats it is never
	// reset, so the replicated device values of a pair stay aligned across
	// measurement boundaries.
	devCount int64

	Stats Stats
}

type renameRef struct {
	valid bool
	rob   int
	seq   int64
}

// dispEntry is one issue-stage candidate: a dispatched ROB entry with the
// scan-relevant fields mirrored into a compact record. Under the
// fast-forward kernel the active list holds only entries the scan can do
// something with; an entry whose operands are still in flight is not in
// any list — it sits in the waiter chains of its pending producers and
// completeExec re-inserts it (in age position) on the first completion.
// That wake fires exactly when a poll would first capture a value, so
// the scan never wastes a read on a provably blocked entry. Entries the
// scan must keep polling stay in the list with a quiet-park memo
// (stamp == execStamp): blocked on memory disambiguation or a
// serializing fence, re-evaluated on any wake-worthy state change.
// Stamps are monotonic, so a stale stamp can never match again.
//
// Every park structure is derived state: parking writes nothing to the
// ROB entry, so a spurious re-evaluation (the memos do not survive a
// restore) is invisible — an evaluation only mutates state when a
// producer has actually completed, and then the reconstruction routes
// the entry to the active list anyway.
type dispEntry struct {
	seq   int64
	stamp int64 // quiet-park memo: skip while equal to execStamp (-1 = none)
	idx   int32
}

// New builds a core bound to a thread and its private caches, and makes
// the core the Client both caches complete their misses into. pollEvery
// selects the issue-stage polling policy for the core's lifetime: true is
// the naive kernel's re-poll-every-entry-every-cycle loop; false (the
// fast-forward kernel) skips dispatched entries whose blocking condition
// cannot have changed since they were last evaluated. Both policies are
// bit-identical in every architectural and statistical outcome.
func New(id, pair int, vocal bool, cfg *Config, eq *sim.EventQueue,
	th *program.Thread, l1d, l1i *cache.L1, itlb, dtlb *tlb.TLB, gate Gate, pollEvery bool) *Core {
	c := &Core{
		ID: id, Pair: pair, Vocal: vocal, Cfg: cfg, EQ: eq,
		Thread: th, L1D: l1d, L1I: l1i, ITLB: itlb, DTLB: dtlb,
		BP:        bpred.New(12, 10),
		Gate:      gate,
		rob:       make([]Entry, cfg.ROBSize),
		fpGen:     fingerprint.NewGen(cfg.FPMode),
		pollEvery: pollEvery,
	}
	c.arf = th.InitRegs
	c.fetchPC = th.Entry
	c.commitPC = th.Entry
	c.faultSeq = -1
	c.execStamp = 1
	c.issueIdleLen = -1
	c.initWaiters()
	l1d.Client, l1i.Client = c, c
	return c
}

// initWaiters (re)allocates the waiter-chain arrays, empty. One chain
// head per ROB slot; one (next, prev, producer) node triple per ROB slot
// and source position.
func (c *Core) initWaiters() {
	n := len(c.rob)
	if len(c.waiterHead) != n {
		c.waiterHead = make([]int32, n)
		c.wNext = make([]int32, 3*n)
		c.wPrev = make([]int32, 3*n)
		c.wProd = make([]int32, 3*n)
	}
	for i := range c.waiterHead {
		c.waiterHead[i] = -1
	}
	for i := range c.wNext {
		c.wNext[i], c.wPrev[i], c.wProd[i] = -1, -1, -1
	}
}

// noteProgress records a state change in the current Tick: the core is
// not quiescent.
func (c *Core) noteProgress() {
	c.progress = true
}

// noteWake records a state change that can alter the outcome of a
// blocked issue-stage evaluation, invalidating the entry-level skip
// memo. The set of such changes is exactly: a producer completing
// (completeExec), an instruction retiring (architectural values, the
// serialize fence, the commit point), a store's address becoming known
// (memory disambiguation), a non-speculative store draining (the
// serializing sbNonspec condition), and any squash. Fetch, dispatch,
// offer and comparison traffic cannot unblock a dispatched entry, so
// they mark progress without touching the memo.
func (c *Core) noteWake() {
	c.execStamp++
}

// rebuildDerived recomputes the redundant issue-stage structures — the
// active list, the waiter chains and the non-speculative store count —
// from the authoritative window state. Called after a snapshot restore or
// a checkpoint decode, where only the authoritative state is
// materialized.
func (c *Core) rebuildDerived() {
	c.initWaiters()
	c.active = c.active[:0]
	for i := 0; i < c.robCount; i++ {
		idx := c.robIdx(i)
		e := &c.rob[idx]
		if e.state != stDispatched {
			continue
		}
		// Route the entry exactly as the live run had it. An unready
		// source whose producer is still in flight means the entry was
		// (or next scan would be) parked in the waiter chains; an unready
		// source whose producer already completed, retired, or left the
		// slot means the wake has fired (or a first examination would
		// capture a value), so the entry belongs in the active list. An
		// entry the scan had not yet examined may be parked here though
		// the live run still had it listed, but that evaluation could not
		// have captured anything, so the difference is unobservable.
		if !c.pollEvery {
			unready := !e.src1Ready || !e.src2Ready || !e.src3Ready
			allPending := unready &&
				(e.src1Ready || c.producerPending(e.src1Rob, e.src1Seq)) &&
				(e.src2Ready || c.producerPending(e.src2Rob, e.src2Seq)) &&
				(e.src3Ready || c.producerPending(e.src3Rob, e.src3Seq))
			if allPending {
				if !e.src1Ready {
					c.register(idx, e.src1Rob, 0)
				}
				if !e.src2Ready {
					c.register(idx, e.src2Rob, 1)
				}
				if !e.src3Ready {
					c.register(idx, e.src3Rob, 2)
				}
				continue // parked: no poll can capture anything yet
			}
		}
		c.active = append(c.active, dispEntry{seq: e.Seq, stamp: -1, idx: int32(idx)})
	}
	c.issueIdleLen = -1 // the scan memo does not survive a restore
	c.sbNonspec = 0
	for i := range c.sb {
		if c.sb[i].nonspec {
			c.sbNonspec++
		}
	}
}

// producerPending reports whether the producer identified by (slot, seq)
// has yet to complete: the slot still holds that very instruction and it
// is still dispatched or executing. Any other state — completed, offered,
// freed, reused — means a poll of this source would capture a value.
func (c *Core) producerPending(slot int, seq int64) bool {
	if slot < 0 {
		return false
	}
	p := &c.rob[slot]
	return p.Seq == seq && (p.state == stDispatched || p.state == stIssued)
}

// register chains consumer slot cidx, source position k, onto producer
// slot pidx's waiter list. The consumer must not already be registered at
// that position.
func (c *Core) register(cidx, pidx, k int) {
	n := int32(cidx*3 + k)
	h := c.waiterHead[pidx]
	c.wProd[n], c.wNext[n], c.wPrev[n] = int32(pidx), h, -1
	if h >= 0 {
		c.wPrev[h] = n
	}
	c.waiterHead[pidx] = n
}

// unregisterAll unlinks every chain node of consumer slot cidx. Safe to
// call when none are registered.
func (c *Core) unregisterAll(cidx int) {
	for k := 0; k < 3; k++ {
		n := int32(cidx*3 + k)
		p := c.wProd[n]
		if p < 0 {
			continue
		}
		if prev := c.wPrev[n]; prev >= 0 {
			c.wNext[prev] = c.wNext[n]
		} else {
			c.waiterHead[p] = c.wNext[n]
		}
		if next := c.wNext[n]; next >= 0 {
			c.wPrev[next] = c.wPrev[n]
		}
		c.wProd[n], c.wNext[n], c.wPrev[n] = -1, -1, -1
	}
}

// registered reports whether consumer slot cidx holds any chain node.
func (c *Core) registered(cidx int32) bool {
	n := cidx * 3
	return c.wProd[n] >= 0 || c.wProd[n+1] >= 0 || c.wProd[n+2] >= 0
}

// wakeWaiters moves every consumer chained on producer slot pidx back
// into the active list, in age position. Called by completeExec; the
// first completion of any waited producer is exactly when a poll of the
// consumer would first capture a value. A consumer waiting on the same
// producer through two source positions appears twice in the chain; the
// registered() guard inserts it once.
func (c *Core) wakeWaiters(pidx int) {
	h := c.waiterHead[pidx]
	if h < 0 {
		return
	}
	// Snapshot the chain first: unregisterAll edits it mid-walk.
	buf := c.wakeBuf[:0]
	for n := h; n >= 0; n = c.wNext[n] {
		buf = append(buf, n/3)
	}
	for _, cidx := range buf {
		if !c.registered(cidx) {
			continue // duplicate node for a consumer already woken
		}
		c.unregisterAll(int(cidx))
		e := &c.rob[cidx]
		c.activeInsert(dispEntry{seq: e.Seq, stamp: -1, idx: cidx})
	}
	c.wakeBuf = buf[:0]
}

// activeInsert places d into the seq-ordered active list. Woken entries
// are usually older than everything listed (their producers dispatched
// before the list's stalled tail), so the shift is short.
func (c *Core) activeInsert(d dispEntry) {
	a := c.active
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid].seq < d.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.active = append(c.active, dispEntry{})
	copy(c.active[lo+1:], c.active[lo:])
	c.active[lo] = d
}

// MarkDirty invalidates the core's self-tick short-circuit. Every
// event-context mutation of core-visible state must call it (directly or
// through Complete); a missed mark would leave the core asleep on work the
// naive kernel would have seen.
func (c *Core) MarkDirty() { c.dirty = true }

// ARF returns a copy of the committed architectural register file.
func (c *Core) ARF() [isa.NumRegs]int64 { return c.arf }

// SetARF overwrites the committed register file (mute register
// initialization, Definition 9 / re-execution phase 2).
func (c *Core) SetARF(r [isa.NumRegs]int64) { c.arf = r }

// CommitPoint returns the seq and pc of the next instruction to retire.
func (c *Core) CommitPoint() (seq, pc int64) { return c.commitSeq, c.commitPC }

// SetCommitPoint overwrites the restart point (phase-2 recovery: the mute
// adopts the vocal's).
func (c *Core) SetCommitPoint(seq, pc int64) { c.commitSeq, c.commitPC = seq, pc }

// Halted reports whether the core has retired a Halt.
func (c *Core) Halted() bool { return c.halted }

// MarkFailed permanently stops the core (unrecoverable error, paper §4.3).
func (c *Core) MarkFailed() { c.failed = true; c.halted = true }

// Failed reports whether the core was stopped by an unrecoverable error.
func (c *Core) Failed() bool { return c.failed }

func (c *Core) robIdx(offset int) int { return (c.robHead + offset) % len(c.rob) }

func (c *Core) head() *Entry {
	if c.robCount == 0 {
		return nil
	}
	return &c.rob[c.robHead]
}

// ArmFault schedules a single-bit transient fault: the next register-
// writing instruction to enter the check stage has bit b of its result
// flipped before fingerprinting. Because the flip happens before
// retirement, detection-and-recovery machinery must catch it for the
// program to stay architecturally correct.
func (c *Core) ArmFault(b uint) { c.faultArmed, c.faultBit, c.dirty = true, b%64, true }

// FaultPending reports whether an armed fault has not yet fired.
func (c *Core) FaultPending() bool { return c.faultArmed }

// DisarmFault clears an armed-but-unfired fault, reporting whether one was
// pending. A disarmed fault never reached the datapath, so it is
// architecturally masked by definition (e.g., armed on a core that halted).
func (c *Core) DisarmFault() bool {
	pending := c.faultArmed
	c.faultArmed = false
	c.dirty = true
	return pending
}

// EnableCommitDigest starts the running commit digest and arms its latch
// at target committed instructions from now. Call at a measurement
// boundary (alongside stats reset); the digest then covers exactly the
// next target retirements.
func (c *Core) EnableCommitDigest(target int64) {
	c.dirty = true
	c.digestOn = true
	c.digestCount = 0
	c.digestTarget = target
	c.digestVal = sim.Mix64(0xd16e57 ^ uint64(c.Pair))
	c.digestLatched = 0
	c.digestDone = c.halted // nothing will ever commit on a halted core
	if c.digestDone {
		c.digestLatched = c.digestVal
	}
}

// CommitDigest returns the latched commit digest and whether the latch has
// closed (the commit target was reached, or the core halted).
func (c *Core) CommitDigest() (uint64, bool) { return c.digestLatched, c.digestDone }

func (c *Core) digestFold(x uint64) { c.digestVal = sim.Mix64(c.digestVal ^ x) }

// digestCommit folds one retiring instruction's architectural updates into
// the running digest and closes the latch at the target boundary.
func (c *Core) digestCommit(e *Entry) {
	if !c.digestOn || c.digestDone {
		return
	}
	in := e.In
	c.digestFold(uint64(e.PC))
	if in.WritesReg() && in.Rd != 0 {
		c.digestFold(uint64(in.Rd))
		c.digestFold(uint64(e.Result))
	}
	switch {
	case in.IsStore():
		c.digestFold(e.EA)
		c.digestFold(uint64(e.src2))
	case in.IsAtomic():
		c.digestFold(e.EA)
		if e.casSuccess {
			c.digestFold(uint64(e.casNew))
		}
	}
	if in.IsBranch() {
		c.digestFold(uint64(e.Target))
	}
	c.digestCount++
	if c.digestCount >= c.digestTarget || in.Op == isa.Halt {
		c.digestLatched = c.digestVal
		c.digestDone = true
	}
}

// String identifies the core in diagnostics.
func (c *Core) String() string {
	role := "mute"
	if c.Vocal {
		role = "vocal"
	}
	return fmt.Sprintf("core%d(%s,pair%d)", c.ID, role, c.Pair)
}

// DumpState formats a short pipeline summary for debugging.
func (c *Core) DumpState() string {
	h := c.head()
	hs := "-"
	if h != nil {
		hs = fmt.Sprintf("seq=%d pc=%d %v st=%d", h.Seq, h.PC, h.In, h.state)
	}
	return fmt.Sprintf("%s commitSeq=%d commitPC=%d fetchPC=%d rob=%d offered=%d sb=%d head[%s] halted=%v",
		c, c.commitSeq, c.commitPC, c.fetchPC, c.robCount, c.offerIdx, len(c.sb), hs, c.halted)
}

func wordIndex(addr uint64) int { return int(addr%mem.BlockBytes) / 8 }
