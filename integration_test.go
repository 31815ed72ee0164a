package reunion

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reunion/internal/fault"
	"reunion/internal/workload"
)

// RunUntilHalted runs until every core halts or maxCycles elapse. It
// returns the cycle count and whether all cores halted. Only tests run a
// program to its halt; measured runs stop at a cycle or commit count.
func (s *System) RunUntilHalted(maxCycles int64) (int64, bool) {
	start := s.EQ.Now()
	limit := start + maxCycles
	for s.EQ.Now() < limit {
		s.Step()
		s.checkLiveness()
		if s.watchHalted {
			return s.EQ.Now() - start, true
		}
		s.fastForward(limit)
	}
	return s.EQ.Now() - start, false
}

// runToHalt drives a system to completion and fails the test on timeout or
// unrecoverable failure.
func runToHalt(t *testing.T, sys *System, maxCycles int64) int64 {
	t.Helper()
	cycles, halted := sys.RunUntilHalted(maxCycles)
	if !halted {
		for _, c := range sys.Cores {
			t.Log(c.DumpState())
		}
		for _, p := range sys.Pairs {
			t.Log(p.DebugString())
		}
		t.Fatalf("did not halt in %d cycles", maxCycles)
	}
	if sys.Failed() {
		t.Fatal("unrecoverable failure signalled")
	}
	return cycles
}

// TestCounterAllModes is the central safety/liveness test: the
// lock-protected shared counter must reach exactly n*iters under every
// execution model and every phantom strength. Under Reunion with weak
// phantoms this exercises constant input incoherence, rollback recovery,
// and the forward-progress guarantee of Lemma 2.
func TestCounterAllModes(t *testing.T) {
	type tc struct {
		name    string
		mode    Mode
		phantom Phantom
		iters   int
		budget  int64
	}
	cases := []tc{
		{"non-redundant", ModeNonRedundant, PhantomGlobal, 60, 3_000_000},
		{"strict", ModeStrict, PhantomGlobal, 60, 3_000_000},
		{"reunion/global", ModeReunion, PhantomGlobal, 60, 6_000_000},
		{"reunion/shared", ModeReunion, PhantomShared, 25, 12_000_000},
		{"reunion/null", ModeReunion, PhantomNull, 12, 20_000_000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && (c.phantom != PhantomGlobal) {
				t.Skip("short mode")
			}
			cfg := DefaultConfig()
			cfg.L2.Phantom = c.phantom
			w := workload.MicroCounter(4, c.iters)
			sys := NewSystem(cfg, c.mode, w, 11)
			cycles := runToHalt(t, sys, c.budget)
			got, _ := sys.CoherentWord(workload.CounterAddr)
			if want := int64(4 * c.iters); got != want {
				t.Fatalf("counter=%d want %d", got, want)
			}
			var rec int64
			for _, p := range sys.Pairs {
				rec += p.Stats.Recoveries
			}
			t.Logf("%d cycles, %d recoveries", cycles, rec)
		})
	}
}

// TestProducerConsumer checks cross-pair flag/data communication: the
// consumer must accumulate exactly 1+2+...+iters under every model.
func TestProducerConsumer(t *testing.T) {
	const iters = 40
	want := int64(iters * (iters + 1) / 2)
	for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
		t.Run(mode.String(), func(t *testing.T) {
			w := workload.MicroProducerConsumer(iters)
			sys := NewSystem(DefaultConfig(), mode, w, 5)
			runToHalt(t, sys, 20_000_000)
			got, _ := sys.CoherentWord(workload.ResultAddr(1))
			if got != want {
				t.Fatalf("consumer sum=%d want %d", got, want)
			}
		})
	}
}

// TestRacyFlags runs a deliberately racy program: there is no unique
// correct answer, but safe execution requires every observed value to be
// one that was coherently written (thread ids 1..n or the initial 0 —
// observed as a set bit 1..n or bit 0).
func TestRacyFlags(t *testing.T) {
	const n, iters = 4, 50
	for _, mode := range []Mode{ModeNonRedundant, ModeReunion} {
		t.Run(mode.String(), func(t *testing.T) {
			w := workload.MicroRacyFlags(n, iters)
			sys := NewSystem(DefaultConfig(), mode, w, 9)
			runToHalt(t, sys, 30_000_000)
			validMask := int64(0)
			for id := 0; id <= n; id++ {
				validMask |= 1 << id
			}
			for tid := 0; tid < n; tid++ {
				seen, _ := sys.CoherentWord(workload.ResultAddr(tid))
				if seen == 0 {
					t.Fatalf("thread %d observed nothing", tid)
				}
				if seen&^validMask != 0 {
					t.Fatalf("thread %d observed impossible values: mask %b", tid, seen)
				}
				// Every thread must at least have observed its own write.
				if seen&(1<<(tid+1)) == 0 {
					t.Fatalf("thread %d never observed its own store", tid)
				}
			}
		})
	}
}

// TestDeterminism: the simulator must be cycle-exact reproducible — two
// systems with identical seeds evolve identically.
func TestDeterminism(t *testing.T) {
	build := func() *System {
		w := workload.Apache().Build(123, 4)
		s := NewSystem(DefaultConfig(), ModeReunion, w, 123)
		s.Prefill()
		return s
	}
	a, b := build(), build()
	a.Run(30_000)
	b.Run(30_000)
	for i := range a.Cores {
		ca, cb := a.Cores[i], b.Cores[i]
		if ca.Stats.Committed != cb.Stats.Committed {
			t.Fatalf("core %d committed %d vs %d", i, ca.Stats.Committed, cb.Stats.Committed)
		}
		if ca.ARF() != cb.ARF() {
			t.Fatalf("core %d architectural state diverged", i)
		}
	}
	for i := range a.Pairs {
		if a.Pairs[i].Stats != b.Pairs[i].Stats {
			t.Fatalf("pair %d stats diverged: %+v vs %+v", i, a.Pairs[i].Stats, b.Pairs[i].Stats)
		}
	}
}

// TestStrictNeverRecovers: the strict input replication oracle by
// construction never observes input incoherence.
func TestStrictNeverRecovers(t *testing.T) {
	w := workload.Zeus().Build(7, 4)
	sys := NewSystem(DefaultConfig(), ModeStrict, w, 7)
	sys.Run(50_000)
	if len(sys.Pairs) != 0 {
		t.Fatal("strict mode must not build pairs")
	}
	var committed int64
	for _, c := range sys.Cores {
		committed += c.Stats.Committed
	}
	if committed == 0 {
		t.Fatal("no progress")
	}
}

// TestFingerprintIntervals: longer comparison intervals (the paper reports
// intervals of 1 and 50 are performance-equivalent) must preserve
// correctness, including recovery restart at interval granularity.
func TestFingerprintIntervals(t *testing.T) {
	for _, interval := range []int{1, 5, 50} {
		t.Run(fmt.Sprintf("interval=%d", interval), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Core.FPInterval = interval
			w := workload.MicroCounter(4, 40)
			sys := NewSystem(cfg, ModeReunion, w, 3)
			runToHalt(t, sys, 10_000_000)
			got, _ := sys.CoherentWord(workload.CounterAddr)
			if got != 160 {
				t.Fatalf("counter=%d want 160", got)
			}
		})
	}
}

// TestForcedAliasingPhase2 drives the rare second recovery phase: forcing
// mismatching comparisons to pass emulates fingerprint aliasing, which
// corrupts the mute's architectural state; phase 1 re-execution then fails
// and phase 2 must copy the vocal's safe state into the mute (Definition 9)
// and still produce the correct result.
func TestForcedAliasingPhase2(t *testing.T) {
	cfg := DefaultConfig()
	w := workload.MicroCounter(4, 60)
	sys := NewSystem(cfg, ModeReunion, w, 13)
	for _, p := range sys.Pairs {
		p.ForceAlias = 2
	}
	runToHalt(t, sys, 20_000_000)
	got, _ := sys.CoherentWord(workload.CounterAddr)
	if got != 240 {
		t.Fatalf("counter=%d want 240", got)
	}
	var aliased, phase2 int64
	for _, p := range sys.Pairs {
		aliased += p.Stats.AliasForced
		phase2 += p.Stats.Phase2
	}
	t.Logf("aliased %d comparisons, %d phase-2 recoveries", aliased, phase2)
	if aliased == 0 {
		t.Skip("no comparison mismatched in this run; aliasing hook unexercised")
	}
}

// TestFaultInjection: every injected transient must be detected or masked,
// never corrupting architectural results (the paper's soft-error claim).
func TestFaultInjection(t *testing.T) {
	w := workload.MicroCounter(4, 100)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 21)
	campaign := fault.NewCampaign(77, 2_000, sys.Cores)
	var cycles int64
	for cycles = 0; cycles < 30_000_000; cycles++ {
		sys.Step()
		campaign.Tick(cycles)
		all := true
		for _, c := range sys.Cores {
			if !c.Halted() {
				all = false
				break
			}
		}
		if all {
			break
		}
	}
	if sys.Failed() {
		t.Fatal("unrecoverable failure on transient faults")
	}
	got, _ := sys.CoherentWord(workload.CounterAddr)
	if got != 400 {
		t.Fatalf("counter=%d want 400 (architectural corruption)", got)
	}
	var faults int64
	for _, p := range sys.Pairs {
		faults += p.Stats.FaultEvents
	}
	if campaign.Fired > 0 && faults == 0 {
		t.Fatalf("%d faults fired but none detected", campaign.Fired)
	}
	t.Logf("injected=%d fired=%d detected=%d", campaign.Injected, campaign.Fired, faults)
}

// TestSoftwareTLB: correctness is unaffected by the TLB discipline; the
// software handler only costs time.
func TestSoftwareTLB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.TLB.Mode = TLBSoftware
	for _, mode := range []Mode{ModeNonRedundant, ModeReunion} {
		w := workload.MicroCounter(4, 40)
		sys := NewSystem(cfg, mode, w, 17)
		runToHalt(t, sys, 10_000_000)
		got, _ := sys.CoherentWord(workload.CounterAddr)
		if got != 160 {
			t.Fatalf("%v: counter=%d want 160", mode, got)
		}
	}
}

// TestSequentialConsistency: with every store serializing, results stay
// correct (and stores drain before anything younger retires).
func TestSequentialConsistency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.Consistency = SC
	for _, mode := range []Mode{ModeNonRedundant, ModeReunion} {
		w := workload.MicroCounter(4, 30)
		sys := NewSystem(cfg, mode, w, 19)
		runToHalt(t, sys, 20_000_000)
		got, _ := sys.CoherentWord(workload.CounterAddr)
		if got != 120 {
			t.Fatalf("%v: counter=%d want 120", mode, got)
		}
	}
}

// TestMuteNeverLeaks: a mute core's stores must never become visible in
// the coherent memory image (Definition 2).
func TestMuteNeverLeaks(t *testing.T) {
	w := workload.MicroCounter(2, 30)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 23)
	runToHalt(t, sys, 10_000_000)
	// The counter reflects exactly the vocal executions.
	got, _ := sys.CoherentWord(workload.CounterAddr)
	if got != 60 {
		t.Fatalf("counter=%d want 60", got)
	}
	// Mute L1s may hold dirty lines, but the L2/memory view must match the
	// vocal's architecture. Spot-check: no mute writeback ever reached L2.
	for _, c := range sys.Cores {
		if !c.Vocal && c.L1D.WritebacksSent > 0 {
			t.Fatal("mute sent a writeback to the shared cache controller")
		}
	}
}

// TestRunAPI exercises the public entry points.
func TestRunAPI(t *testing.T) {
	p := workload.Sparse()
	o := DefaultOptions()
	o.Workload, o.WarmCycles, o.MeasureCycles = p, 5_000, 5_000
	reun := o
	reun.Mode, reun.Seed = ModeReunion, 3
	r, err := Run(reun)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed <= 0 || r.UserIPC <= 0 || r.Cycles != 5_000 {
		t.Fatalf("suspicious result: %+v", r)
	}
	if r.Workload != "sparse" || r.Mode != ModeReunion {
		t.Fatal("result identity fields wrong")
	}
	strict := o
	strict.Mode = ModeStrict
	cmp, err := Compare(o, strict, DefaultSeeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Normalized <= 0 || cmp.Normalized > 1.2 {
		t.Fatalf("normalized IPC %v out of sane range", cmp.Normalized)
	}
	if len(cmp.Base) != 2 || len(cmp.Test) != 2 {
		t.Fatal("matched pairs missing")
	}
}

// TestZeroCycleLatency: CompareLatency 0 must run a literal 0-cycle comparison
// and perform at least as well as 10 cycles.
func TestZeroCycleLatency(t *testing.T) {
	o := DefaultOptions()
	o.Mode, o.Workload = ModeStrict, workload.Moldyn()
	o.WarmCycles, o.MeasureCycles = 10_000, 10_000
	o.Config.CompareLatency = 0
	z, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Config.CompareLatency = 10
	ten, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if z.UserIPC < ten.UserIPC*0.99 {
		t.Fatalf("zero latency (%.3f) slower than 10 cycles (%.3f)", z.UserIPC, ten.UserIPC)
	}
}

// TestAllWorkloadsAllModesSmoke: every suite workload makes progress and
// never signals failure under every mode (short windows).
func TestAllWorkloadsAllModesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range workload.Suite() {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			o := DefaultOptions()
			o.Mode, o.Workload, o.Seed = mode, p, 2
			o.WarmCycles, o.MeasureCycles = 5_000, 8_000
			r, err := Run(o)
			if err != nil {
				t.Fatalf("%s/%v: %v", p.Name, mode, err)
			}
			if r.Committed == 0 {
				t.Fatalf("%s/%v: no instructions committed", p.Name, mode)
			}
			if r.Failures != 0 {
				t.Fatalf("%s/%v: %d failures", p.Name, mode, r.Failures)
			}
		}
	}
}

// TestVocalMatchesGoldenUnderReunion: for a single-threaded (race-free)
// program, the Reunion vocal core must commit exactly the golden model's
// architectural results — redundant execution is transparent.
func TestVocalMatchesGoldenUnderReunion(t *testing.T) {
	w := workload.MicroCompute(300)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 31)
	runToHalt(t, sys, 10_000_000)

	w2 := workload.MicroCompute(300)
	m2 := newMemWrap(w2)
	// Reference result.
	want := int64(0)
	{
		res, err := interpRun(w2, m2)
		if err != nil {
			t.Fatal(err)
		}
		want = res
	}
	got, _ := sys.CoherentWord(workload.ResultAddr(0))
	if got != want {
		t.Fatalf("result %d want %d", got, want)
	}
	// The mute committed the same architectural state.
	v, m := sys.Cores[0], sys.Cores[1]
	if v.ARF() != m.ARF() {
		t.Fatal("vocal and mute architectural registers differ after race-free run")
	}
}

// TestExternalInterrupts: interrupts are replicated to both members of a
// pair and serviced at the same comparison boundary (§4.3): correctness is
// preserved, interrupts are counted, and the run is slower.
func TestExternalInterrupts(t *testing.T) {
	run := func(every int64) (int64, *System) {
		cfg := DefaultConfig()
		cfg.InterruptEvery, cfg.InterruptCost = every, 200
		sys := NewSystem(cfg, ModeReunion, workload.MicroCounter(4, 50), 7)
		cycles := runToHalt(t, sys, 20_000_000)
		got, _ := sys.CoherentWord(workload.CounterAddr)
		if got != 200 {
			t.Fatalf("counter=%d want 200", got)
		}
		return cycles, sys
	}
	base, _ := run(0)
	withInt, sys := run(500)
	if sys.InterruptsServiced() == 0 {
		t.Fatal("no interrupts serviced")
	}
	if withInt <= base {
		t.Fatalf("interrupt run (%d cycles) not slower than base (%d)", withInt, base)
	}
	t.Logf("base %d cycles, with interrupts %d (%d serviced)", base, withInt, sys.InterruptsServiced())
}

// TestInterruptCostIsAValue: the default handler costs 150 cycles, and
// a cost of 0 is a zero-cycle handler, not a stand-in for the default:
// its interrupts are raised and serviced like any other, and the run
// takes exactly as long as one without interrupts. A negative cost
// panics in NewSystem, naming the field.
func TestInterruptCostIsAValue(t *testing.T) {
	if c := DefaultConfig().InterruptCost; c != 150 {
		t.Fatalf("the default interrupt cost is %d, want 150", c)
	}
	build := func(every, cost int64) *System {
		cfg := DefaultConfig()
		cfg.InterruptEvery, cfg.InterruptCost = every, cost
		return NewSystem(cfg, ModeReunion, workload.MicroCounter(4, 50), 7)
	}
	base := runToHalt(t, build(0, 0), 20_000_000)
	free := build(500, 0)
	if cycles := runToHalt(t, free, 20_000_000); cycles != base {
		t.Errorf("zero-cost interrupts took %d cycles, no interrupts %d", cycles, base)
	}
	if free.InterruptsServiced() == 0 {
		t.Error("no zero-cost interrupt serviced")
	}
	if cycles := runToHalt(t, build(500, 150), 20_000_000); cycles <= base {
		t.Errorf("150-cycle interrupts took %d cycles, no interrupts %d", cycles, base)
	}

	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "InterruptCost") {
			t.Errorf("a negative interrupt cost panicked with %v, want a panic naming InterruptCost", r)
		}
	}()
	build(500, -1)
}

// TestTracing: the pair hooks report mismatches and recoveries under a
// recovery-heavy configuration.
func TestTracing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2.Phantom = PhantomShared // frequent incoherence
	w := workload.MicroCounter(4, 15)
	sys := NewSystem(cfg, ModeReunion, w, 3)
	events := observePairs(sys, 256)
	runToHalt(t, sys, 20_000_000)
	if len(events.lines) == 0 {
		t.Fatal("no events recorded under shared phantoms")
	}
	t.Logf("held the last %d events", len(events.lines))
}

// TestTraceDump: a traced Run keeps only its last TraceEvents pair
// events, oldest first, with both event kinds; it changes no result; and
// the next, untraced run on the same warm cache records nothing, so no
// hook outlives its run.
func TestTraceDump(t *testing.T) {
	const keep = 4
	o := DefaultOptions()
	o.Mode, o.Workload, o.Config.L2.Phantom = ModeReunion, workload.Apache(), PhantomShared
	o.WarmCycles, o.MeasureCycles = 3_000, 4_000
	o.Warm = NewWarmCache()
	o.TraceEvents = keep
	traced, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Recoveries < keep {
		t.Fatalf("only %d recoveries: the window never wraps", traced.Recoveries)
	}
	lines := strings.Split(strings.TrimSuffix(traced.TraceDump, "\n"), "\n")
	if len(lines) != keep {
		t.Fatalf("dump has %d lines, want the last %d:\n%s", len(lines), keep, traced.TraceDump)
	}
	shape := regexp.MustCompile(`^\[ *(\d+)\] core\d +(compare  mismatch endSeq=\d+ fp=[0-9a-f]{4}/[0-9a-f]{4} stepping=(true|false)|recovery phase=[12] restart seq=\d+ pc=\d+)$`)
	kinds := map[string]bool{}
	last := int64(-1)
	for _, line := range lines {
		m := shape.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %q has neither event shape", line)
		}
		kinds[strings.Fields(m[2])[0]] = true
		cycle, _ := strconv.ParseInt(m[1], 10, 64)
		if cycle < last {
			t.Errorf("cycle %d after %d: the dump is not oldest first:\n%s", cycle, last, traced.TraceDump)
		}
		last = cycle
	}
	if !kinds["compare"] || !kinds["recovery"] {
		t.Errorf("dump lacks an event kind (have %v):\n%s", kinds, traced.TraceDump)
	}

	o.TraceEvents = 0
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceDump != "" {
		t.Errorf("untraced run after a traced one on the same warm cache dumped:\n%s", plain.TraceDump)
	}
	traced.TraceDump = ""
	if traced != plain {
		t.Errorf("tracing changed the result:\ntraced   %+v\nuntraced %+v", traced, plain)
	}
}

// TestEventLogRecordAndDump: each event becomes one line of the fixed
// "[cycle] coreN category message" layout, in the order recorded.
func TestEventLogRecordAndDump(t *testing.T) {
	l := &eventLog{lines: make([]string, 0, 8)}
	l.add(1, 0, "compare", "a")
	l.add(2, 1, "recovery", "b")
	want := "[         1] core0  compare  a\n" +
		"[         2] core1  recovery b\n"
	if got := l.String(); got != want {
		t.Fatalf("dump:\n%q\nwant\n%q", got, want)
	}
}

// TestEventLogRingWrap: a full log keeps only its newest cap(lines)
// events, in cycle order.
func TestEventLogRingWrap(t *testing.T) {
	l := &eventLog{lines: make([]string, 0, 4)}
	for i := int64(0); i < 10; i++ {
		l.add(i, 0, "compare", "x")
	}
	lines := strings.Split(strings.TrimSuffix(l.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump has %d lines, want 4:\n%s", len(lines), l)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("[%10d] ", 6+i); !strings.HasPrefix(line, want) {
			t.Fatalf("line %d = %q, want cycle %d (events 6..9 in order)", i, line, 6+i)
		}
	}
}

// TestEventLogDumpOrderingAfterWrap: after the ring wraps mid-buffer the
// dump still runs oldest first, newest last.
func TestEventLogDumpOrderingAfterWrap(t *testing.T) {
	l := &eventLog{lines: make([]string, 0, 3)}
	for i := int64(0); i < 5; i++ {
		l.add(i, int(i), "recovery", fmt.Sprintf("ev%d", i))
	}
	lines := strings.Split(strings.TrimSuffix(l.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump lines: %q", lines)
	}
	for i, want := range []string{"ev2", "ev3", "ev4"} {
		if !strings.HasSuffix(lines[i], want) {
			t.Fatalf("line %d = %q, want %s", i, lines[i], want)
		}
	}
}

// TestSnoopyTopology: the Reunion execution model is independent of the
// memory-system organization (paper §4.1): the Montecito-style snoopy bus
// must deliver the same architectural results as the directory L2 under
// every execution model, with recoveries working end to end.
func TestSnoopyTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologySnoopy
	for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
		t.Run(mode.String(), func(t *testing.T) {
			w := workload.MicroCounter(4, 40)
			sys := NewSystem(cfg, mode, w, 29)
			if sys.Bus == nil || sys.L2 != nil {
				t.Fatal("snoopy system built the wrong memory system")
			}
			runToHalt(t, sys, 30_000_000)
			got, _ := sys.CoherentWord(workload.CounterAddr)
			if got != 160 {
				t.Fatalf("counter=%d want 160", got)
			}
		})
	}
	t.Run("producer-consumer", func(t *testing.T) {
		w := workload.MicroProducerConsumer(30)
		sys := NewSystem(cfg, ModeReunion, w, 31)
		runToHalt(t, sys, 30_000_000)
		got, _ := sys.CoherentWord(workload.ResultAddr(1))
		if got != 465 {
			t.Fatalf("sum=%d want 465", got)
		}
	})
	t.Run("fuzz", func(t *testing.T) {
		for s := 0; s < 5; s++ {
			seed := uint64(777 + s*131)
			w := workload.RandomProgram(seed, 90, 0)
			mRef := newMemWrap(w)
			ref, err := interpRunRegs(w, mRef)
			if err != nil {
				t.Fatal(err)
			}
			w2 := workload.RandomProgram(seed, 90, 0)
			sys := NewSystem(cfg, ModeReunion, w2, seed)
			if _, halted := sys.RunUntilHalted(20_000_000); !halted {
				t.Fatalf("seed %d: did not halt", seed)
			}
			if sys.Cores[0].ARF() != ref {
				t.Fatalf("seed %d: snoopy vocal diverged from golden", seed)
			}
		}
	})
}
