package reunion

import (
	"fmt"

	"reunion/internal/cache"
	"reunion/internal/coherence"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/mem"
	"reunion/internal/sim"
	"reunion/internal/snoop"
	"reunion/internal/tlb"
	"reunion/internal/workload"
)

// memorySystem is the surface both topologies (directory L2 and snoopy
// bus) provide to the system: the L1s' downstream port, the scheduler's
// tick/quiescence contract, the runner of the events both schedule
// (coherence.EvPhantomMem), and stats management.
type memorySystem interface {
	cache.Below
	sim.Tickable
	sim.EventRunner
	RegisterL1D(core int, c *cache.L1)
	CancelSync(pair int, minToken int64)
	DebugRead(block uint64) mem.Block
	ResetStats()
}

// Kernel selects the simulation kernel.
type Kernel uint8

// Kernels. Both are cycle-exact and bit-identical in every architectural
// and statistical outcome; they differ only in wall-clock cost.
const (
	// KernelFastForward (the default) is the quiescence-aware kernel:
	// when every component reports itself quiescent, the clock jumps in
	// one move to the next scheduled event, component wake cycle, or
	// deadline instead of polling every component every cycle.
	KernelFastForward Kernel = iota
	// KernelNaive ticks every component on every cycle (the reference
	// kernel the A/B equivalence tests compare against).
	KernelNaive
)

// String names the kernel.
func (k Kernel) String() string {
	if k == KernelNaive {
		return "naive"
	}
	return "fastforward"
}

// System is one assembled CMP simulation: memory image, memory-system
// topology (directory L2 or snoopy bus), cores (one per logical processor,
// or a vocal/mute pair each under ModeReunion), and the execution-model
// gates wiring them together.
type System struct {
	// Cfg is the machine NewSystem built, its LogicalProcessors set from
	// the workload. Treat it as read-only: the system reads its kernel
	// and interrupt schedule from it as it runs, and the cores and caches
	// were sized from it.
	Cfg  Config
	Mode Mode

	EQ    *sim.EventQueue
	Sched *sim.Scheduler
	Mem   *mem.Memory
	L2    *coherence.L2 // directory topology (nil under TopologySnoopy)
	Bus   *snoop.Bus    // snoopy topology (nil under TopologyDirectory)
	msys  memorySystem
	Cores []*cpu.Core
	Pairs []*core.Pair // ModeReunion only
	W     *workload.Workload

	gates []core.InterruptSink

	// initMem is the memory image once the workload was loaded, before
	// the system ran: pages only, shared with Mem copy-on-write. A
	// serialized checkpoint holds its memory as a delta on it.
	initMem *mem.MemoryState

	// Liveness watchdog (see checkLiveness).
	watchLast   int64
	watchSince  int64
	watchHalted bool
}

// NewSystem builds a system running the given workload under the given
// execution model. The workload's thread count defines the number of
// logical processors. The kernel and the interrupt schedule are fixed
// here: each core gets the kernel's issue-stage polling policy, and with
// cfg.InterruptEvery set the first interrupt boundary is scheduled. A
// negative cfg.InterruptCost panics.
func NewSystem(cfg Config, mode Mode, w *workload.Workload, seed uint64) *System {
	n := len(w.Threads)
	if n == 0 {
		panic("reunion: workload has no threads")
	}
	if cfg.InterruptCost < 0 {
		panic(fmt.Sprintf("reunion: Config.InterruptCost is %d; a handler cannot take negative cycles", cfg.InterruptCost))
	}
	cfg.LogicalProcessors = n
	numCores := n
	if mode == ModeReunion {
		numCores = 2 * n
	}
	s := &System{Cfg: cfg, Mode: mode, EQ: sim.NewEventQueue(), Mem: mem.New(), W: w}
	w.Init(s.Mem)
	s.initMem = s.Mem.Snapshot()
	switch cfg.Topology {
	case TopologySnoopy:
		s.Bus = snoop.NewBus(snoop.Config{
			SnoopLatency: cfg.SnoopLatency,
			BusPerCycle:  max(1, numCores/4),
			MemLatency:   cfg.L2.MemLatency,
			MemBanks:     cfg.L2.MemBanks,
			MemBankBusy:  cfg.L2.MemBankBusy,
			MemMSHRs:     cfg.L2.MemMSHRs,
			Phantom:      cfg.L2.Phantom,
		}, s.EQ, s.Mem, numCores)
		s.msys = s.Bus
	default:
		// On-chip cache bandwidth scales in proportion with the number of
		// cores (paper §5).
		l2cfg := cfg.L2
		l2cfg.PortsPerBank = max(1, numCores/l2cfg.Banks)
		s.L2 = coherence.NewL2(l2cfg, s.EQ, s.Mem, numCores)
		s.msys = s.L2
	}

	devSalt := sim.Mix64(seed ^ 0xdec1de)

	newCore := func(id, pair int, vocal bool, gate cpu.Gate) *cpu.Core {
		ccfg := cfg.Core // copy
		l1d := cache.NewL1(fmt.Sprintf("l1d%d", id), id, pair, vocal, cfg.L1Bytes, cfg.L1Ways, cfg.L1MSHRs, s.msys, false)
		l1i := cache.NewL1(fmt.Sprintf("l1i%d", id), id, pair, vocal, cfg.L1Bytes, cfg.L1Ways, cfg.L1MSHRs, s.msys, true)
		itlb := tlb.New(cfg.ITLBEntries, cfg.ITLBWays)
		dtlb := tlb.New(cfg.DTLBEntries, cfg.DTLBWays)
		c := cpu.New(id, pair, vocal, &ccfg, s.EQ, w.Threads[pair], l1d, l1i, itlb, dtlb, gate, cfg.Kernel == KernelNaive)
		s.msys.RegisterL1D(id, l1d)
		s.Cores = append(s.Cores, c)
		return c
	}

	switch mode {
	case ModeNonRedundant:
		for t := 0; t < n; t++ {
			g := &core.NonRedundantGate{EQ: s.EQ, DevSalt: devSalt}
			newCore(t, t, true, g)
			s.gates = append(s.gates, g)
		}
	case ModeStrict:
		for t := 0; t < n; t++ {
			g := &core.StrictGate{EQ: s.EQ, CompareLat: cfg.CompareLatency, DevSalt: devSalt}
			newCore(t, t, true, g)
			s.gates = append(s.gates, g)
		}
	case ModeReunion:
		for t := 0; t < n; t++ {
			p := core.NewPair(t, s.EQ, s.msys, cfg.CompareLatency, cfg.PairTimeout, devSalt)
			vocal := newCore(2*t, t, true, p)
			mute := newCore(2*t+1, t, false, p)
			p.Bind(vocal, mute)
			s.Pairs = append(s.Pairs, p)
			s.gates = append(s.gates, p)
		}
	default:
		panic("reunion: unknown mode")
	}
	// Kernel tick order: memory system, pair gates, cores — the order the
	// original per-cycle loop used. Registration order is the per-cycle
	// semantics, so it must not change.
	s.Sched = sim.NewScheduler(s.EQ)
	s.Sched.Register(s.msys)
	for _, p := range s.Pairs {
		s.Sched.Register(p)
	}
	for _, c := range s.Cores {
		s.Sched.Register(c)
	}
	if every := cfg.InterruptEvery; every > 0 {
		s.EQ.AtR(every, &evInterrupt{}, s)
	}
	return s
}

// InterruptsServiced totals serviced external interrupts across logical
// processors.
func (s *System) InterruptsServiced() int64 {
	var n int64
	for _, g := range s.gates {
		n += g.InterruptsServiced()
	}
	return n
}

// Prefill emulates launching from a checkpoint with warmed caches: the
// workload's warm ranges are installed into the shared cache (bounded by
// its capacity) and each core's hot pages are preloaded into its DTLB and
// the first code pages into its ITLB.
func (s *System) Prefill() {
	if s.L2 != nil {
		budget := s.L2.Capacity()
		for _, r := range s.W.WarmRanges {
			for off := uint64(0); off < r.Len && budget > 0; off += mem.BlockBytes {
				if s.L2.Prefill(r.Base + off) {
					budget--
				}
			}
		}
	}
	for _, c := range s.Cores {
		if hp := s.W.HotPages; c.Pair < len(hp) {
			for _, pg := range hp[c.Pair] {
				c.DTLB.Preload(pg)
			}
		}
		th := s.W.Threads[c.Pair]
		codePages := uint64(len(th.Code)*4)/mem.PageBytes + 1
		for pg := uint64(0); pg < codePages && pg < 64; pg++ {
			c.ITLB.Preload(mem.PageOf(th.CodeBase) + pg)
		}
	}
}

// evInterrupt is the descriptor of one link in the interrupt-delivery
// chain. Delivery is a scheduled event at every positive multiple of
// Cfg.InterruptEvery, not a per-cycle modulo check, so the fast-forward
// kernel can never jump across a boundary; each link schedules the next.
// It is plain data, so a restored chain replays exactly.
type evInterrupt struct{}

// RunEvent implements sim.EventRunner: one interrupt boundary of the
// delivery chain.
func (s *System) RunEvent(desc any) {
	for _, g := range s.gates {
		g.RaiseInterrupt(s.Cfg.InterruptCost)
	}
	s.EQ.AtR(s.EQ.Now()+s.Cfg.InterruptEvery, desc, s)
}

// Step advances the simulation by exactly one cycle: due events fire,
// then every component ticks. This is the shared per-cycle contract of
// both kernels; the Run methods additionally fast-forward between steps
// under KernelFastForward.
func (s *System) Step() {
	s.Sched.Step()
}

// fastForward jumps over provably idle cycles (KernelFastForward only),
// bounded by limit and by the liveness watchdog's deadline so a wedged
// simulation still panics at exactly the cycle the naive kernel would.
func (s *System) fastForward(limit int64) {
	if s.Cfg.Kernel == KernelNaive {
		return
	}
	if !s.watchHalted {
		if d := s.watchSince + livenessWindow + 1; d < limit {
			limit = d
		}
	}
	s.Sched.FastForward(limit)
}

// Run advances the simulation by n cycles (with a liveness watchdog: the
// forward-progress guarantee of Lemma 2 means a correct model never stops
// committing; a stall of 500k cycles indicates a simulator bug and
// panics with the pipeline state).
func (s *System) Run(n int64) {
	limit := s.EQ.Now() + n
	for s.EQ.Now() < limit {
		s.Step()
		s.checkLiveness()
		s.fastForward(limit)
	}
}

const livenessWindow = 500_000

func (s *System) checkLiveness() {
	var total int64
	halted := true
	for _, c := range s.Cores {
		total += c.Stats.Committed
		if !c.Halted() {
			halted = false
		}
	}
	s.watchHalted = halted
	if halted {
		return
	}
	if total != s.watchLast {
		s.watchLast = total
		s.watchSince = s.EQ.Now()
		return
	}
	if s.EQ.Now()-s.watchSince > livenessWindow {
		msg := fmt.Sprintf("reunion: no commit in %d cycles at cycle %d\n", int64(livenessWindow), s.EQ.Now())
		for _, c := range s.Cores {
			msg += c.DumpState() + "\n"
		}
		panic(msg)
	}
}

// RunUntilDone advances until done (checked once per cycle, before the
// step) reports true or maxCycles elapse, returning the cycles run and
// whether done fired. done must be a pure predicate of simulation state
// (the fast-forward kernel evaluates it less often than once per cycle,
// which is equivalent exactly because skipped cycles change no state).
// Fault-injection trials use it to run to a committed-instruction
// boundary under a hard cycle deadline — the kilroy lesson: a campaign
// trial ends in a terminal outcome or a deadline, never a retry loop.
func (s *System) RunUntilDone(maxCycles int64, done func() bool) (int64, bool) {
	start := s.EQ.Now()
	limit := start + maxCycles
	for s.EQ.Now() < limit {
		if done() {
			return s.EQ.Now() - start, true
		}
		s.Step()
		s.checkLiveness()
		// The fast-forward kernel must not jump past a cycle where done
		// already holds, or the returned cycle count would overshoot.
		if s.Cfg.Kernel != KernelNaive && s.EQ.Now() < limit && !done() {
			s.fastForward(limit)
		}
	}
	return s.EQ.Now() - start, done()
}

// Failed reports whether any pair signalled an unrecoverable error.
func (s *System) Failed() bool {
	for _, c := range s.Cores {
		if c.Failed() {
			return true
		}
	}
	return false
}

// ResetStats zeroes every statistic counter (measurement boundary):
// core, TLB and L1 counters, pair execution-model counters, the memory
// system's (shared-cache/bus hit, miss, queue and phantom counters —
// without this the warmup window would bleed into the measured L2/bus
// statistics), the scheduler's kernel-efficiency counters (steps, jumps,
// skipped cycles), and the gates' interrupts-serviced counters.
func (s *System) ResetStats() {
	for _, c := range s.Cores {
		c.Stats = cpu.Stats{}
		c.ITLB.ResetStats()
		c.DTLB.ResetStats()
		c.L1D.ResetStats()
		c.L1I.ResetStats()
	}
	for _, p := range s.Pairs {
		p.Stats = core.PairStats{}
	}
	for _, g := range s.gates {
		g.ResetInterruptStats()
	}
	s.msys.ResetStats()
	s.Sched.ResetStats()
}

// CoherentWord returns the coherent architectural value of the 8-byte
// word at addr, reading through the cache hierarchy (owner's copy first).
// The bool is always true; it keeps call sites explicit about the
// non-timing debug path. No simulator code calls it; it is the root
// API's way to read a halted program's result (ExampleNewSystem).
func (s *System) CoherentWord(addr uint64) (int64, bool) {
	b := s.msys.DebugRead(mem.BlockAddr(addr))
	return int64(b[(addr%mem.BlockBytes)/8]), true
}

// ArmCommitDigests enables the running commit digest on every vocal core,
// latching each at target committed instructions from now. Call at a
// measurement boundary (right after ResetStats); the latched digests then
// cover exactly the next target retirements per logical processor, which
// is the instruction-precise boundary fault classification compares at.
func (s *System) ArmCommitDigests(target int64) {
	for _, c := range s.VocalCores() {
		c.EnableCommitDigest(target)
	}
}

// DigestsDone reports whether every vocal core has latched its commit
// digest (reached the commit target, or halted).
func (s *System) DigestsDone() bool {
	for _, c := range s.VocalCores() {
		if _, done := c.CommitDigest(); !done {
			return false
		}
	}
	return true
}

// CommitDigest folds the vocal cores' latched commit digests into one
// system-level value. ok is true only when every vocal core latched; a
// digest compared before then says nothing. Only vocal cores contribute:
// their retirement defines architectural state, and a recovered mute
// legitimately differs in timing, not correctness.
func (s *System) CommitDigest() (digest uint64, ok bool) {
	digest = 0x5dc0ffee
	ok = true
	for _, c := range s.VocalCores() {
		d, done := c.CommitDigest()
		if !done {
			ok = false
		}
		digest = sim.Mix64(digest ^ d)
	}
	return digest, ok
}

// ArchDigest hashes the point-in-time architectural state of the system:
// every vocal core's register file and commit point, plus every dirty
// line in the vocal L1Ds and the shared cache (dirty lines are the memory
// state not yet mirrored below; clean lines carry no unique state). All
// iteration is in deterministic array order, so two runs with identical
// architectural histories digest identically. Unlike CommitDigest it is
// comparable across runs only when their timing agrees — use it for
// snapshots of equal-schedule runs, and CommitDigest for classification
// at an instruction boundary.
func (s *System) ArchDigest() uint64 {
	d := uint64(0xa2c4d16e57)
	fold := func(x uint64) { d = sim.Mix64(d ^ x) }
	for _, c := range s.VocalCores() {
		seq, pc := c.CommitPoint()
		fold(uint64(seq))
		fold(uint64(pc))
		for _, r := range c.ARF() {
			fold(uint64(r))
		}
		c.L1D.Arr.ForEachValid(func(l *cache.Line) {
			if l.Dirty {
				fold(l.Block)
				for _, w := range l.Data {
					fold(w)
				}
			}
		})
	}
	if s.L2 != nil {
		s.L2.VisitDirty(func(block uint64, data *mem.Block) {
			fold(block)
			for _, w := range data {
				fold(w)
			}
		})
	}
	return d
}

// VocalCores returns the cores whose retirement defines each logical
// processor's architectural progress (all cores outside ModeReunion).
func (s *System) VocalCores() []*cpu.Core {
	var v []*cpu.Core
	for _, c := range s.Cores {
		if c.Vocal {
			v = append(v, c)
		}
	}
	return v
}
