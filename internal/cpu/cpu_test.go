package cpu_test

import (
	"testing"

	"reunion/internal/cache"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/fingerprint"
	"reunion/internal/isa"
	"reunion/internal/mem"
	"reunion/internal/program"
	"reunion/internal/sim"
	"reunion/internal/tlb"
)

// instantBelow replies to every L1 request after a fixed delay from a flat
// memory image — a minimal memory system for single-core pipeline tests.
type instantBelow struct {
	eq    *sim.EventQueue
	mem   *mem.Memory
	delay int64
}

func (b *instantBelow) Request(r *cache.Req) {
	switch r.Kind {
	case cache.Writeback:
		b.mem.WriteBlock(r.Block, r.Data)
	default:
		b.eq.AfterR(b.delay, r, b)
	}
}

// RunEvent implements sim.EventRunner: fill the request from memory.
func (b *instantBelow) RunEvent(desc any) {
	r := desc.(*cache.Req)
	var d mem.Block
	b.mem.ReadBlock(r.Block, &d)
	r.Deliver(cache.Resp{Data: d, Exclusive: true})
}

type rig struct {
	eq   *sim.EventQueue
	mem  *mem.Memory
	core *cpu.Core
}

func testCfg() *cpu.Config {
	return &cpu.Config{
		FetchWidth: 4, DispatchWidth: 4, IssueWidth: 4, RetireWidth: 4,
		ROBSize: 64, SBSize: 16, FetchQCap: 8, CheckQCap: 64,
		LoadToUse: 2, FrontDepth: 4, L1LoadPorts: 2, L1StorePorts: 1,
		TrapLatency: 10, DevLatency: 10,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 10, HandlerBody: 20, HandlerSerializers: 5},
	}
}

func newRig(t *testing.T, th *program.Thread, gate cpu.Gate) *rig {
	t.Helper()
	r := &rig{eq: sim.NewEventQueue(), mem: mem.New()}
	below := &instantBelow{eq: r.eq, mem: r.mem, delay: 20}
	l1d := cache.NewL1("d", 0, 0, true, 8<<10, 2, 8, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 8<<10, 2, 8, below, true)
	if gate == nil {
		gate = &core.NonRedundantGate{EQ: r.eq}
	}
	r.core = cpu.New(0, 0, true, testCfg(), r.eq, th,
		l1d, l1i, tlb.New(64, 2), tlb.New(64, 2), gate, false)
	return r
}

func (r *rig) runToHalt(t *testing.T, max int64) int64 {
	t.Helper()
	for i := int64(0); i < max; i++ {
		r.eq.Advance(r.eq.Now() + 1)
		r.core.Tick()
		if r.core.Halted() {
			return i
		}
	}
	t.Fatalf("core did not halt; %s", r.core.DumpState())
	return 0
}

func TestALUDependencyChain(t *testing.T) {
	b := program.NewBuilder("t", 0)
	b.Li(1, 5)
	b.Addi(2, 1, 3)         // 8
	b.Op3(isa.Mul, 3, 2, 1) // 40
	b.Op3(isa.Sub, 4, 3, 2) // 32
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	arf := r.core.ARF()
	if arf[4] != 32 {
		t.Fatalf("r4=%d want 32", arf[4])
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load must forward from an older in-flight store to the same word
	// without waiting for the drain.
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x1000)
	b.Li(2, 77)
	b.St(1, 0, 2)
	b.Ld(3, 1, 0)
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	if r.core.ARF()[3] != 77 {
		t.Fatalf("forwarded %d want 77", r.core.ARF()[3])
	}
}

func TestStoreDrainsToCache(t *testing.T) {
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x2000)
	b.Li(2, 9)
	b.St(1, 0, 2)
	b.Membar() // forces the drain before retiring
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	st, v := r.core.L1D.Load(mem.BlockAddr(0x2000), 0, cache.CB{})
	if st != cache.Hit || v != 9 {
		t.Fatalf("drained store not in L1: st=%v v=%d", st, v)
	}
}

func TestBranchMispredictRecovery(t *testing.T) {
	// A data-dependent unpredictable branch: results must still be exact.
	b := program.NewBuilder("t", 0)
	b.Li(1, 0)  // i
	b.Li(2, 20) // n
	b.Li(3, 0)  // acc
	b.Label("loop")
	b.OpI(isa.Andi, 4, 1, 1)
	b.Bne(4, 0, "odd")
	b.Addi(3, 3, 10) // even: +10
	b.Jmp("next")
	b.Label("odd")
	b.Addi(3, 3, 1) // odd: +1
	b.Label("next")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 50_000)
	if got := r.core.ARF()[3]; got != 110 {
		t.Fatalf("acc=%d want 110", got)
	}
	if r.core.Stats.Mispredicts == 0 {
		t.Fatal("expected at least one misprediction")
	}
}

func TestJrIndirect(t *testing.T) {
	b := program.NewBuilder("t", 0)
	b.Li(1, 4) // target index of "land"
	b.Emit(isa.Instr{Op: isa.Jr, Rs1: 1})
	b.Li(2, 111) // skipped
	b.Halt()     // skipped
	b.Label("land")
	b.Li(2, 222)
	b.Halt()
	th := b.Build()
	if th.Code[4].Op != isa.Li {
		t.Fatalf("label layout changed: %v", th.Code[4])
	}
	r := newRig(t, th, nil)
	r.runToHalt(t, 10_000)
	if r.core.ARF()[2] != 222 {
		t.Fatalf("r2=%d want 222 (jr fell through)", r.core.ARF()[2])
	}
}

func TestCASSerializesAndWorks(t *testing.T) {
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x3000)
	b.Li(2, 0) // expected
	b.Li(3, 7) // new
	b.Cas(2, 1, 3)
	b.Ld(4, 1, 0)
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	arf := r.core.ARF()
	if arf[2] != 0 || arf[4] != 7 {
		t.Fatalf("cas old=%d readback=%d", arf[2], arf[4])
	}
	if r.core.Stats.Serializing == 0 {
		t.Fatal("CAS not counted as serializing")
	}
}

func TestWAWAndWARHazards(t *testing.T) {
	// Two writes to the same register with an interleaved reader: the
	// reader must capture the first value (RUU operand copy), and the
	// final architectural value is the last write.
	b := program.NewBuilder("t", 0)
	b.Li(1, 1)
	b.Add(2, 1, 1)          // r2 = 2  (first write)
	b.Op3(isa.Mul, 3, 2, 2) // r3 = 4  (reads first r2)
	b.Li(2, 100)            // second write (WAW over r2, WAR vs the mul)
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	arf := r.core.ARF()
	if arf[3] != 4 || arf[2] != 100 {
		t.Fatalf("r3=%d r2=%d want 4,100", arf[3], arf[2])
	}
}

func TestHardwareTLBWalkCharged(t *testing.T) {
	// Touch many pages: misses must be counted and walk latency charged.
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x10000)
	for i := 0; i < 8; i++ {
		b.Ld(2, 1, int64(i)*int64(mem.PageBytes))
	}
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 50_000)
	if r.core.Stats.DTLBMisses != 8 {
		t.Fatalf("DTLB misses %d want 8", r.core.Stats.DTLBMisses)
	}
}

func TestR0NeverWritten(t *testing.T) {
	b := program.NewBuilder("t", 0)
	b.Li(0, 55)
	b.Add(1, 0, 0)
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	if r.core.ARF()[0] != 0 || r.core.ARF()[1] != 0 {
		t.Fatalf("r0=%d r1=%d", r.core.ARF()[0], r.core.ARF()[1])
	}
}

func TestSCMakesStoresSerializing(t *testing.T) {
	cfgSC := testCfg()
	cfgSC.Consistency = cpu.SC
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x4000)
	for i := 0; i < 10; i++ {
		b.St(1, int64(i*8), 1)
	}
	b.Halt()
	th := b.Build()

	eq := sim.NewEventQueue()
	memi := mem.New()
	below := &instantBelow{eq: eq, mem: memi, delay: 20}
	l1d := cache.NewL1("d", 0, 0, true, 8<<10, 2, 8, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 8<<10, 2, 8, below, true)
	c := cpu.New(0, 0, true, cfgSC, eq, th, l1d, l1i, tlb.New(64, 2), tlb.New(64, 2),
		&core.NonRedundantGate{EQ: eq}, false)
	for i := 0; i < 100_000 && !c.Halted(); i++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
	}
	if !c.Halted() {
		t.Fatal("SC run did not halt")
	}
	if c.Stats.Serializing < 10 {
		t.Fatalf("SC stores serializing=%d want >=10", c.Stats.Serializing)
	}

	// TSO run of the same program must be faster (stores drain lazily).
	r := newRig(t, th, nil)
	tsoCycles := r.runToHalt(t, 100_000)
	if scCycles := c.Stats.Cycles; scCycles <= tsoCycles {
		t.Fatalf("SC (%d cycles) not slower than TSO (%d)", scCycles, tsoCycles)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Independent loads to distinct blocks must overlap their miss
	// latency: 8 independent misses at delay 20 should take far less than
	// 8*20 cycles beyond the pipeline fill.
	b := program.NewBuilder("t", 0)
	b.Li(1, 0x8000)
	for i := 0; i < 8; i++ {
		b.Ld(uint8(2+i), 1, int64(i)*mem.BlockBytes)
	}
	b.Halt()
	r := newRig(t, b.Build(), nil)
	cycles := r.runToHalt(t, 10_000)
	if cycles > 120 {
		t.Fatalf("8 independent misses took %d cycles; MLP broken", cycles)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	// A pointer chase cannot overlap: each load needs the previous value.
	m := mem.New()
	base := uint64(0x9000)
	for i := uint64(0); i < 8; i++ {
		m.WriteWord(base+i*mem.BlockBytes, uint64(base+(i+1)*mem.BlockBytes))
	}
	b := program.NewBuilder("t", 0)
	b.Li(1, int64(base))
	for i := 0; i < 7; i++ {
		b.Ld(1, 1, 0)
	}
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.mem = m
	// rebuild rig with the prepared memory
	eq := sim.NewEventQueue()
	below := &instantBelow{eq: eq, mem: m, delay: 20}
	l1d := cache.NewL1("d", 0, 0, true, 8<<10, 2, 8, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 8<<10, 2, 8, below, true)
	c := cpu.New(0, 0, true, testCfg(), eq, b.Build(), l1d, l1i,
		tlb.New(64, 2), tlb.New(64, 2), &core.NonRedundantGate{EQ: eq}, false)
	var cycles int64
	for ; cycles < 10_000 && !c.Halted(); cycles++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
	}
	if cycles < 7*20 {
		t.Fatalf("dependent chain finished in %d cycles (< serial latency)", cycles)
	}
}

func TestROBOccupancyTracked(t *testing.T) {
	b := program.NewBuilder("t", 0)
	for i := 0; i < 50; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	r := newRig(t, b.Build(), nil)
	r.runToHalt(t, 10_000)
	if r.core.Stats.ROBOccupancy == 0 || r.core.Stats.Committed != 51 {
		t.Fatalf("occupancy=%d committed=%d", r.core.Stats.ROBOccupancy, r.core.Stats.Committed)
	}
}

// dataBlackhole serves instruction fetches and swallows every data
// request, so L1D misses stay outstanding forever.
type dataBlackhole struct{ instantBelow }

func (b *dataBlackhole) Request(r *cache.Req) {
	if r.Kind == cache.Ifetch {
		b.instantBelow.Request(r)
	}
}

// TestRetryAllocatesNothing pins the L1 retry path at zero allocations:
// a core whose L1D has every MSHR busy retries its load, or its store
// drain, once per tick, and a retry builds nothing on the heap.
func TestRetryAllocatesNothing(t *testing.T) {
	const addr = 0x40000
	for _, tc := range []struct {
		name  string
		build func(b *program.Builder)
	}{
		{"load", func(b *program.Builder) {
			b.Li(1, addr)
			b.Ld(2, 1, 0)
		}},
		{"store drain", func(b *program.Builder) {
			b.Li(1, addr)
			b.Li(2, 5)
			b.St(1, 0, 2)
			b.Membar() // waits for the drain
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := program.NewBuilder("t", 0)
			tc.build(b)
			b.Halt()
			eq := sim.NewEventQueue()
			below := &dataBlackhole{instantBelow{eq: eq, mem: mem.New(), delay: 20}}
			l1d := cache.NewL1("d", 0, 0, true, 8<<10, 2, 8, below, false)
			l1i := cache.NewL1("i", 0, 0, true, 8<<10, 2, 8, below, true)
			c := cpu.New(0, 0, true, testCfg(), eq, b.Build(), l1d, l1i,
				tlb.New(64, 2), tlb.New(64, 2), &core.NonRedundantGate{EQ: eq}, false)
			for i := 0; l1d.Misses < 8; i++ { // every MSHR busy
				l1d.Load(mem.BlockAddr(0x80000)+uint64(i)*mem.BlockBytes, 0, cache.CB{Kind: cache.CBLoadDone})
			}
			tick := func() {
				eq.Advance(eq.Now() + 1)
				c.Tick()
			}
			for i := 0; i < 500; i++ {
				tick()
			}
			retries := l1d.Retries
			if a := testing.AllocsPerRun(100, tick); a != 0 {
				t.Fatalf("a retrying tick allocates %v, want 0", a)
			}
			if l1d.Retries <= retries {
				t.Fatal("the core did not retry during the measured ticks")
			}
		})
	}
}
