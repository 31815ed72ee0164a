package core

import (
	"testing"

	"reunion/internal/cache"
	"reunion/internal/cpu"
	"reunion/internal/fingerprint"
	"reunion/internal/isa"
	"reunion/internal/program"
	"reunion/internal/sim"
	"reunion/internal/tlb"
)

// noSync is a SyncTarget with no synchronizing requests to cancel.
type noSync struct{}

func (noSync) CancelSync(int, int64) {}

// noBelow is an L1's next level for cores that are never ticked.
type noBelow struct{}

func (noBelow) Request(*cache.Req) {}

// testPair wires a pair over two real but never-ticked cores, so the
// pair's comparison logic runs alone: a test drives Offer, Tick and the
// event queue by hand and asks FinalizeReady what may retire.
func testPair(lat int64) (*Pair, *sim.EventQueue) {
	eq := sim.NewEventQueue()
	p := NewPair(0, eq, noSync{}, lat, 1_000, 0)
	b := program.NewBuilder("spin", 0)
	b.Label("loop")
	b.Jmp("loop")
	th := b.Build()
	cfg := &cpu.Config{
		FetchWidth: 1, DispatchWidth: 1, IssueWidth: 1, RetireWidth: 1,
		ROBSize: 8, SBSize: 2, FetchQCap: 2, CheckQCap: 8,
		LoadToUse: 2, FrontDepth: 1, L1LoadPorts: 1, L1StorePorts: 1,
		TrapLatency: 5, DevLatency: 5,
		FPMode: fingerprint.Direct, FPInterval: 1,
		TLB: cpu.TLBPolicy{Mode: tlb.Hardware, WalkLatency: 5, HandlerBody: 5, HandlerSerializers: 5},
	}
	core := func(id int, vocal bool) *cpu.Core {
		l1d := cache.NewL1("d", id, 0, vocal, 1<<10, 2, 4, noBelow{}, false)
		l1i := cache.NewL1("i", id, 0, vocal, 1<<10, 2, 4, noBelow{}, true)
		return cpu.New(id, 0, vocal, cfg, eq, th, l1d, l1i, tlb.New(16, 2), tlb.New(16, 2), p, false)
	}
	p.Bind(core(0, true), core(1, false))
	return p, eq
}

// offerBoth sends one single-instruction interval from each side with
// the given fingerprints; extra is the instruction's check exposure.
func offerBoth(p *Pair, seq int64, op isa.Op, extra int64, vfp, mfp uint16) (v, m *cpu.Entry) {
	v, m = entry(seq, op), entry(seq, op)
	v.ExtraCheck, m.ExtraCheck = extra, extra
	p.Offer(p.VocalC, v, true, vfp)
	p.Offer(p.MuteC, m, true, mfp)
	return v, m
}

// In steady state a matched comparison costs no allocation: both sends,
// the match and the decision reuse the pair's queues.
func TestPairMatchedCompareZeroAlloc(t *testing.T) {
	p, eq := testPair(1)
	v, m := entry(0, isa.Add), entry(0, isa.Add)
	seq := int64(0)
	compare := func() {
		seq++
		v.Seq, m.Seq = seq, seq
		p.Offer(p.VocalC, v, true, 0x5a5a)
		p.Offer(p.MuteC, m, true, 0x5a5a)
		p.Tick()
		eq.Advance(eq.Now() + 1)
		if !p.FinalizeReady(p.VocalC, v) || !p.FinalizeReady(p.MuteC, m) {
			t.Fatalf("seq %d not decided one cycle after its send", seq)
		}
	}
	for i := 0; i < 64; i++ {
		compare() // grow the queues to their working size
	}
	if n := testing.AllocsPerRun(1_000, compare); n != 0 {
		t.Fatalf("a matched compare allocates %v times, want 0", n)
	}
	if p.Stats.Compares != seq {
		t.Fatalf("Compares = %d, want %d", p.Stats.Compares, seq)
	}
}

// retireCycles drives the pair from cycle 1 through last in the order
// the system ticks it (events, then the pair, then the cores): sends
// offered in a cycle are matched at the next one. offers[c] lists the
// vocal and mute entries that each close a one-instruction interval in
// cycle c. It returns the first cycle FinalizeReady released each
// sequence number, asked in order as a core's retire stage asks about
// its head.
func retireCycles(p *Pair, eq *sim.EventQueue, last int64, offers map[int64][]*[2]*cpu.Entry) map[int64]int64 {
	var pending []*[2]*cpu.Entry
	released := map[int64]int64{}
	for c := int64(1); c <= last; c++ {
		eq.Advance(c)
		p.Tick()
		for len(pending) > 0 && p.FinalizeReady(p.VocalC, pending[0][0]) {
			if !p.FinalizeReady(p.MuteC, pending[0][1]) {
				panic("vocal released an entry the mute did not")
			}
			released[pending[0][0].Seq] = c
			pending = pending[1:]
		}
		for _, vm := range offers[c] {
			p.Offer(p.VocalC, vm[0], true, 0x77)
			p.Offer(p.MuteC, vm[1], true, 0x77)
			pending = append(pending, vm)
		}
	}
	return released
}

// An interval whose decision lands before an older interval's releases
// the older one's entries too: interval 1 carries a 40-cycle exposure,
// interval 2 none, so interval 2's decision at cycle 12 retires both,
// long before interval 1's own decision cycle (51). The cycles are those
// of the event-per-compare model this pair replaced.
func TestPairDecisionOvertake(t *testing.T) {
	p, eq := testPair(10)
	interval := func(seq, extra int64) *[2]*cpu.Entry {
		v, m := entry(seq, isa.Add), entry(seq, isa.Add)
		v.ExtraCheck, m.ExtraCheck = extra, extra
		return &[2]*cpu.Entry{v, m}
	}
	got := retireCycles(p, eq, 60, map[int64][]*[2]*cpu.Entry{
		1: {interval(1, 40)},
		2: {interval(2, 0)},
		3: {interval(3, 0)},
	})
	want := map[int64]int64{1: 12, 2: 12, 3: 13}
	for seq, c := range want {
		if got[seq] != c {
			t.Errorf("seq %d released at cycle %d, want %d", seq, got[seq], c)
		}
	}
}

// A mismatch recovers the pair at its decision cycle, and the matched
// decisions queued before it never release their entries. The
// re-executed interval's match then ends re-execution at its own
// decision cycle.
func TestPairMismatchRecoversAtDecision(t *testing.T) {
	p, eq := testPair(10)
	var recoveredAt []int64
	p.OnRecovery = func(Recovery) { recoveredAt = append(recoveredAt, eq.Now()) }

	eq.Advance(1)
	v1, m1 := offerBoth(p, 1, isa.Add, 20, 0x11, 0x11) // matches, decided at 1+10+20
	offerBoth(p, 2, isa.Add, 0, 0x22, 0x23)            // mismatches, decided at 11
	offerBoth(p, 3, isa.Add, 0, 0x33, 0x33)            // matches, decided at 11
	for c := int64(2); c <= 40; c++ {
		eq.Advance(c)
		p.Tick()
		if p.FinalizeReady(p.VocalC, v1) || p.FinalizeReady(p.MuteC, m1) {
			t.Fatalf("cycle %d: an interval decided before the recovery retired", c)
		}
		if want := c >= 11; p.Stepping(nil) != want {
			t.Fatalf("cycle %d: stepping %v, want %v", c, p.Stepping(nil), want)
		}
	}
	if p.Stats.Recoveries != 1 || len(recoveredAt) != 1 || recoveredAt[0] != 11 {
		t.Fatalf("recoveries %d at %v, want one at cycle 11", p.Stats.Recoveries, recoveredAt)
	}

	// Re-execution: the first memory operation compares at cycle 40 and
	// its match, decided at 50, ends the protocol.
	v, m := offerBoth(p, 1, isa.Ld, 0, 0x44, 0x44)
	for c := int64(41); c <= 55; c++ {
		eq.Advance(c)
		p.Tick()
		ready := p.FinalizeReady(p.VocalC, v) && p.FinalizeReady(p.MuteC, m)
		if want := c >= 50; ready != want || p.Stepping(nil) == want {
			t.Fatalf("cycle %d: ready %v stepping %v, want ready %v", c, ready, p.Stepping(nil), want)
		}
		if ready {
			break
		}
	}
}
