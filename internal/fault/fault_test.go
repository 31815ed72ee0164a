package fault

import (
	"testing"

	"reunion/internal/cache"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/fingerprint"
	"reunion/internal/mem"
	"reunion/internal/program"
	"reunion/internal/sim"
	"reunion/internal/tlb"
)

// echoBelow instantly satisfies cache misses from a memory image.
type echoBelow struct {
	eq  *sim.EventQueue
	mem *mem.Memory
}

func (b *echoBelow) Request(r *cache.Req) {
	if r.Kind == cache.Writeback {
		b.mem.WriteBlock(r.Block, r.Data)
		return
	}
	b.eq.AfterR(5, r, b)
}

// RunEvent implements sim.EventRunner: fill the request from memory.
func (b *echoBelow) RunEvent(desc any) {
	r := desc.(*cache.Req)
	var d mem.Block
	b.mem.ReadBlock(r.Block, &d)
	r.Deliver(cache.Resp{Data: d, Exclusive: true})
}

func testCore(eq *sim.EventQueue) *cpu.Core {
	b := program.NewBuilder("spin", 0)
	b.Label("loop")
	b.Addi(1, 1, 1)
	b.Jmp("loop")
	th := b.Build()
	below := &echoBelow{eq: eq, mem: mem.New()}
	cfg := &cpu.Config{
		FetchWidth: 2, DispatchWidth: 2, IssueWidth: 2, RetireWidth: 2,
		ROBSize: 16, SBSize: 4, FetchQCap: 4, CheckQCap: 16,
		LoadToUse: 2, FrontDepth: 2, L1LoadPorts: 1, L1StorePorts: 1,
		TrapLatency: 5, DevLatency: 5,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 5, HandlerBody: 5, HandlerSerializers: 5},
	}
	l1d := cache.NewL1("d", 0, 0, true, 1<<10, 2, 4, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 1<<10, 2, 4, below, true)
	c := cpu.New(0, 0, true, cfg, eq, th, l1d, l1i, tlb.New(16, 2), tlb.New(16, 2),
		&core.NonRedundantGate{EQ: eq}, false)
	return c
}

func TestCampaignArmsAndFires(t *testing.T) {
	eq := sim.NewEventQueue()
	c := testCore(eq)
	camp := NewCampaign(3, 50, []*cpu.Core{c})
	for cyc := int64(0); cyc < 5_000; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
		camp.Tick(cyc)
	}
	if camp.Injected == 0 {
		t.Fatal("campaign armed nothing")
	}
	if camp.Fired == 0 {
		t.Fatal("no armed fault fired on a register-writing stream")
	}
	if camp.Pending() < 0 {
		t.Fatalf("pending underflow: %d", camp.Pending())
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		eq := sim.NewEventQueue()
		c := testCore(eq)
		camp := NewCampaign(9, 80, []*cpu.Core{c})
		for cyc := int64(0); cyc < 4_000; cyc++ {
			eq.Advance(eq.Now() + 1)
			c.Tick()
			camp.Tick(cyc)
		}
		return camp.Injected, camp.Fired
	}
	i1, f1 := run()
	i2, f2 := run()
	if i1 != i2 || f1 != f2 {
		t.Fatalf("campaign not deterministic: (%d,%d) vs (%d,%d)", i1, f1, i2, f2)
	}
}

func TestCampaignSkipsHaltedCores(t *testing.T) {
	eq := sim.NewEventQueue()
	b := program.NewBuilder("halt", 0)
	b.Halt()
	below := &echoBelow{eq: eq, mem: mem.New()}
	cfg := &cpu.Config{
		FetchWidth: 1, DispatchWidth: 1, IssueWidth: 1, RetireWidth: 1,
		ROBSize: 8, SBSize: 2, FetchQCap: 2, CheckQCap: 8,
		LoadToUse: 2, FrontDepth: 1, L1LoadPorts: 1, L1StorePorts: 1,
		TrapLatency: 5, DevLatency: 5,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 5, HandlerBody: 5, HandlerSerializers: 5},
	}
	l1d := cache.NewL1("d", 0, 0, true, 1<<10, 2, 4, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 1<<10, 2, 4, below, true)
	c := cpu.New(0, 0, true, cfg, eq, b.Build(), l1d, l1i, tlb.New(16, 2), tlb.New(16, 2),
		&core.NonRedundantGate{EQ: eq}, false)
	camp := NewCampaign(5, 10, []*cpu.Core{c})
	for cyc := int64(0); cyc < 2_000; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
		camp.Tick(cyc)
	}
	if !c.Halted() {
		t.Fatal("core did not halt")
	}
	if camp.Injected > 2 {
		t.Fatalf("campaign kept arming a halted core: %d", camp.Injected)
	}
}

func TestCampaignMeanIntervalClamped(t *testing.T) {
	// Regression: MeanInterval <= 0 used to panic in the RNG
	// (Intn(non-positive)), and MeanInterval == 1 degenerated to zero-gap
	// re-injection. NewCampaign must clamp both into a usable schedule.
	for _, mean := range []int64{-5, 0, 1, 2} {
		eq := sim.NewEventQueue()
		c := testCore(eq)
		camp := NewCampaign(7, mean, []*cpu.Core{c})
		if camp.MeanInterval < 2 {
			t.Fatalf("mean %d not clamped: %d", mean, camp.MeanInterval)
		}
		for cyc := int64(0); cyc < 2_000; cyc++ {
			eq.Advance(eq.Now() + 1)
			c.Tick()
			camp.Tick(cyc)
		}
		if camp.Injected == 0 {
			t.Fatalf("mean %d: campaign armed nothing", mean)
		}
		if camp.Fired == 0 {
			t.Fatalf("mean %d: no fault fired", mean)
		}
	}
}

func TestCampaignScheduleGapPositive(t *testing.T) {
	c := &Campaign{rng: sim.NewRand(1), MeanInterval: 2}
	for i := 0; i < 1_000; i++ {
		now := c.nextAt
		c.schedule(now)
		if c.nextAt <= now {
			t.Fatalf("schedule produced non-positive gap at iteration %d: %d -> %d", i, now, c.nextAt)
		}
	}
}

func TestCampaignMaskedArmedOnHalt(t *testing.T) {
	// A fault armed on a core that halts can never fire; the campaign must
	// retire it as architecturally masked instead of leaving Pending()
	// nonzero forever.
	eq := sim.NewEventQueue()
	b := program.NewBuilder("halt", 0)
	for i := 0; i < 50; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	below := &echoBelow{eq: eq, mem: mem.New()}
	cfg := &cpu.Config{
		FetchWidth: 1, DispatchWidth: 1, IssueWidth: 1, RetireWidth: 1,
		ROBSize: 8, SBSize: 2, FetchQCap: 2, CheckQCap: 8,
		LoadToUse: 2, FrontDepth: 1, L1LoadPorts: 1, L1StorePorts: 1,
		TrapLatency: 5, DevLatency: 5,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 5, HandlerBody: 5, HandlerSerializers: 5},
	}
	l1d := cache.NewL1("d", 0, 0, true, 1<<10, 2, 4, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 1<<10, 2, 4, below, true)
	c := cpu.New(0, 0, true, cfg, eq, b.Build(), l1d, l1i, tlb.New(16, 2), tlb.New(16, 2),
		&core.NonRedundantGate{EQ: eq}, false)
	// Arm directly just before the halt retires so the flip has no
	// register-writing instruction left to consume.
	camp := NewCampaign(5, 1_000_000, []*cpu.Core{c})
	armed := false
	for cyc := int64(0); cyc < 3_000; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
		if c.Halted() && !armed {
			c.ArmFault(3)
			camp.Injected++
			armed = true
		}
		camp.Tick(cyc)
	}
	if !c.Halted() {
		t.Fatal("core did not halt")
	}
	if !armed {
		t.Fatal("test never armed its fault")
	}
	if camp.MaskedArmed != 1 {
		t.Fatalf("armed fault on halted core not retired as masked: MaskedArmed=%d", camp.MaskedArmed)
	}
	if camp.Pending() != 0 {
		t.Fatalf("Pending() stuck nonzero: %d", camp.Pending())
	}
}

func TestInjectionSingleShot(t *testing.T) {
	eq := sim.NewEventQueue()
	c := testCore(eq)
	var fireAt int64 = -1
	shot := Injection{Core: 0, Cycle: 100, Bit: 9}.Arm(eq, c, func(now int64) { fireAt = now })
	for cyc := int64(0); cyc < 2_000; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
	}
	if !shot.Armed {
		t.Fatal("injection never armed")
	}
	if !shot.Fired || shot.Unfired() {
		t.Fatal("injection never fired on a register-writing stream")
	}
	if shot.FiredAt < 100 {
		t.Fatalf("fired at %d, before the arm cycle", shot.FiredAt)
	}
	if fireAt != shot.FiredAt {
		t.Fatalf("onFire saw cycle %d, shot recorded %d", fireAt, shot.FiredAt)
	}
}

func TestInjectionOnHaltedCoreStaysUnfired(t *testing.T) {
	eq := sim.NewEventQueue()
	b := program.NewBuilder("halt", 0)
	b.Halt()
	below := &echoBelow{eq: eq, mem: mem.New()}
	cfg := &cpu.Config{
		FetchWidth: 1, DispatchWidth: 1, IssueWidth: 1, RetireWidth: 1,
		ROBSize: 8, SBSize: 2, FetchQCap: 2, CheckQCap: 8,
		LoadToUse: 2, FrontDepth: 1, L1LoadPorts: 1, L1StorePorts: 1,
		TrapLatency: 5, DevLatency: 5,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 5, HandlerBody: 5, HandlerSerializers: 5},
	}
	l1d := cache.NewL1("d", 0, 0, true, 1<<10, 2, 4, below, false)
	l1i := cache.NewL1("i", 0, 0, true, 1<<10, 2, 4, below, true)
	c := cpu.New(0, 0, true, cfg, eq, b.Build(), l1d, l1i, tlb.New(16, 2), tlb.New(16, 2),
		&core.NonRedundantGate{EQ: eq}, false)
	shot := Injection{Core: 0, Cycle: 1_500, Bit: 0}.Arm(eq, c, nil)
	for cyc := int64(0); cyc < 2_000; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
	}
	if !c.Halted() {
		t.Fatal("core did not halt")
	}
	if shot.Armed || shot.Fired || !shot.Unfired() {
		t.Fatalf("injection on a halted core must stay unfired: %+v", shot)
	}
}

func TestFiredHookChains(t *testing.T) {
	eq := sim.NewEventQueue()
	c := testCore(eq)
	prevCalled := false
	c.OnFaultFired = func() { prevCalled = true }
	camp := NewCampaign(3, 50, []*cpu.Core{c})
	for cyc := int64(0); cyc < 2_000 && camp.Fired == 0; cyc++ {
		eq.Advance(eq.Now() + 1)
		c.Tick()
		camp.Tick(cyc)
	}
	if camp.Fired == 0 {
		t.Skip("no fault fired in window")
	}
	if !prevCalled {
		t.Fatal("campaign must chain the pre-existing OnFaultFired hook")
	}
}
