package snoop

import (
	"fmt"
	"testing"
	"testing/quick"

	"reunion/internal/cache"
	"reunion/internal/coherence"
	"reunion/internal/mem"
	"reunion/internal/sim"
)

type rig struct {
	eq  *sim.EventQueue
	mem *mem.Memory
	bus *Bus
	l1  []*cache.L1

	done recorder
	seq  int64
}

// recorder is a cache.Client that keeps each completed waiter's word,
// keyed by its descriptor's Seq. A second completion of one Seq panics.
type recorder map[int64]uint64

func (d recorder) Complete(cb *cache.CB, v uint64) {
	if _, dup := d[cb.Seq]; dup {
		panic(fmt.Sprintf("waiter %d completed twice", cb.Seq))
	}
	d[cb.Seq] = v
}

// next returns a descriptor of the given kind whose completion r.done
// records under a fresh Seq.
func (r *rig) next(kind cache.CBKind) cache.CB {
	r.seq++
	return cache.CB{Kind: kind, Seq: r.seq}
}

// syncLoad returns the descriptor of a synchronizing load.
func (r *rig) syncLoad() cache.CB {
	cb := r.next(cache.CBSyncWrap)
	cb.Inner = &cache.CB{Kind: cache.CBLoadDone}
	return cb
}

func testConfig() Config {
	return Config{
		SnoopLatency: 20,
		BusPerCycle:  1,
		MemLatency:   240,
		MemBanks:     8,
		MemBankBusy:  24,
		MemMSHRs:     32,
		Phantom:      coherence.PhantomGlobal,
	}
}

func newRig(t *testing.T, cfg Config, vocal, mute int) *rig {
	t.Helper()
	r := &rig{eq: sim.NewEventQueue(), mem: mem.New(), done: recorder{}}
	r.bus = NewBus(cfg, r.eq, r.mem, vocal+mute)
	for i := 0; i < vocal+mute; i++ {
		isVocal := i < vocal
		pair := i
		if !isVocal {
			pair = i - vocal
		}
		l1 := cache.NewL1("l1", i, pair, isVocal, 8<<10, 2, 8, r.bus, false)
		l1.Client = r.done
		r.bus.RegisterL1D(i, l1)
		r.l1 = append(r.l1, l1)
	}
	return r
}

func (r *rig) drain(t *testing.T) {
	t.Helper()
	for i := 0; i < 200_000; i++ {
		r.eq.Advance(r.eq.Now() + 1)
		r.bus.Tick()
		if r.eq.Pending() == 0 && r.bus.q.Len() == 0 {
			return
		}
	}
	t.Fatal("bus did not drain")
}

func blockN(n uint64) uint64 { return n * mem.BlockBytes }

func (r *rig) load(t *testing.T, core int, block uint64) uint64 {
	t.Helper()
	cb := r.next(cache.CBLoadDone)
	st, v := r.l1[core].Load(block, 0, cb)
	if st == cache.Hit {
		return v
	}
	if st == cache.Retry {
		t.Fatal("retry in quiet system")
	}
	r.drain(t)
	got, ok := r.done[cb.Seq]
	if !ok {
		t.Fatal("load never completed")
	}
	return got
}

func (r *rig) store(t *testing.T, core int, block uint64, val uint64) {
	t.Helper()
	for i := 0; i < 100; i++ {
		cb := r.next(cache.CBStoreDone)
		switch r.l1[core].Store(block, 0, val, cb) {
		case cache.Hit:
			return
		case cache.Miss:
			r.drain(t)
			if _, done := r.done[cb.Seq]; !done {
				t.Fatal("store never completed")
			}
			return
		case cache.Retry:
			r.drain(t)
		}
	}
	t.Fatal("store retried forever")
}

func TestSnoopReadYourWrites(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(3)
	r.mem.WriteWord(b, 5)
	if got := r.load(t, 0, b); got != 5 {
		t.Fatalf("initial %d", got)
	}
	r.store(t, 0, b, 6)
	if got := r.load(t, 0, b); got != 6 {
		t.Fatalf("readback %d", got)
	}
}

func TestSnoopSupplyAndInvalidate(t *testing.T) {
	r := newRig(t, testConfig(), 3, 0)
	b := blockN(9)
	r.store(t, 0, b, 11) // core 0 M
	if got := r.load(t, 1, b); got != 11 {
		t.Fatalf("snoop supply %d", got)
	}
	if r.bus.SnoopHits == 0 {
		t.Fatal("snoop hit not counted")
	}
	if st := r.l1[0].Arr.Peek(b).State; st != cache.Shared {
		t.Fatalf("owner not downgraded: %v", st)
	}
	r.store(t, 2, b, 12) // invalidates both sharers
	if r.l1[0].Arr.Peek(b) != nil || r.l1[1].Arr.Peek(b) != nil {
		t.Fatal("sharers not invalidated by GetX")
	}
	for c := 0; c < 3; c++ {
		if got := r.load(t, c, b); got != 12 {
			t.Fatalf("core %d sees %d", c, got)
		}
	}
}

func TestSnoopDirtySupplyWritesHome(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(4)
	r.store(t, 0, b, 77)
	r.load(t, 1, b) // snoop supply from M; dirty data written home
	if r.mem.ReadWord(b) != 77 {
		t.Fatal("dirty snoop supply not written home")
	}
}

func TestSnoopExclusiveGrant(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(5)
	r.load(t, 0, b)
	if st := r.l1[0].Arr.Peek(b).State; st != cache.Exclusive {
		t.Fatalf("solo reader got %v", st)
	}
	r.load(t, 1, b)
	if st := r.l1[1].Arr.Peek(b).State; st != cache.Shared {
		t.Fatalf("second reader got %v", st)
	}
}

func TestSnoopPhantomStrengths(t *testing.T) {
	// Global: peeks vocal caches, then memory.
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(7)
	r.store(t, 0, b, 42)
	if got := r.load(t, 1, b); got != 42 {
		t.Fatalf("global phantom peek %d", got)
	}
	if st := r.l1[0].Arr.Peek(b).State; st != cache.Modified {
		t.Fatal("phantom peek changed owner state")
	}
	b2 := blockN(8)
	r.mem.WriteWord(b2, 9)
	if got := r.load(t, 1, b2); got != 9 {
		t.Fatalf("global phantom memory read %d", got)
	}

	// Null: garbage always.
	cfg := testConfig()
	cfg.Phantom = coherence.PhantomNull
	r2 := newRig(t, cfg, 1, 1)
	r2.mem.WriteWord(b, 3)
	r2.load(t, 0, b)
	if got := r2.load(t, 1, b); got == 3 {
		t.Fatal("null phantom returned coherent data")
	}

	// Shared-analog: cache peek works, memory path returns garbage.
	cfg.Phantom = coherence.PhantomShared
	r3 := newRig(t, cfg, 1, 1)
	r3.store(t, 0, b, 8)
	if got := r3.load(t, 1, b); got != 8 {
		t.Fatalf("shared phantom peek %d", got)
	}
	missing := blockN(60)
	r3.mem.WriteWord(missing, 4)
	if got := r3.load(t, 1, missing); got == 4 {
		t.Fatal("shared phantom off-chip read returned coherent data")
	}
}

func TestSnoopMuteIsolation(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(12)
	r.load(t, 1, b)
	r.store(t, 1, b, 999) // mute store: local only
	if r.mem.ReadWord(b) == 999 {
		t.Fatal("mute store reached memory")
	}
	if got := r.bus.DebugRead(b); got[0] == 999 {
		t.Fatal("mute store in coherent view")
	}
}

func TestSnoopSyncCombines(t *testing.T) {
	r := newRig(t, testConfig(), 2, 2) // pairs (0,2) and (1,3)
	b := blockN(20)
	r.mem.WriteWord(b, 3)
	r.load(t, 2, b)     // mute 0 caches it
	r.store(t, 1, b, 9) // other pair's vocal owns it dirty
	vcb, mcb := r.syncLoad(), r.syncLoad()
	if !r.l1[0].SyncFill(b, 0, 1, vcb) {
		t.Fatal("vocal sync rejected")
	}
	r.drain(t)
	if _, vDone := r.done[vcb.Seq]; vDone {
		t.Fatal("sync completed one-sided")
	}
	if !r.l1[2].SyncFill(b, 0, 1, mcb) {
		t.Fatal("mute sync rejected")
	}
	r.drain(t)
	vGot, vDone := r.done[vcb.Seq]
	mGot, mDone := r.done[mcb.Seq]
	if !vDone || !mDone || vGot != 9 || mGot != 9 {
		t.Fatalf("sync results %v/%v %d/%d", vDone, mDone, vGot, mGot)
	}
	if r.bus.SyncRequests != 1 {
		t.Fatalf("SyncRequests=%d", r.bus.SyncRequests)
	}
}

func TestSnoopSyncCancel(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(25)
	stale := r.syncLoad()
	r.l1[0].SyncFill(b, 0, 1, stale)
	r.drain(t)
	r.bus.CancelSync(0, 2)
	r.l1[0].AbortMiss(b)
	vcb, mcb := r.syncLoad(), r.syncLoad()
	r.l1[0].SyncFill(b, 0, 2, vcb)
	r.l1[1].SyncFill(b, 0, 2, mcb)
	r.drain(t)
	_, called := r.done[stale.Seq]
	_, vDone := r.done[vcb.Seq]
	_, mDone := r.done[mcb.Seq]
	if called || !vDone || !mDone {
		t.Fatalf("cancel semantics: called=%v v=%v m=%v", called, vDone, mDone)
	}
}

// TestSnoopSyncStalePartnerDropped is the directory's stale-partner test
// on the bus: a token-2 pair arriving over a parked token-1 request, with
// no CancelSync, combines on one value and never answers the stale one.
func TestSnoopSyncStalePartnerDropped(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	staleBlock, b := blockN(26), blockN(27)
	r.mem.WriteWord(b, 7)
	stale := r.syncLoad()
	if !r.l1[0].SyncFill(staleBlock, 0, 1, stale) {
		t.Fatal("stale sync rejected")
	}
	r.drain(t)
	vcb, mcb := r.syncLoad(), r.syncLoad()
	r.l1[0].SyncFill(b, 0, 2, vcb)
	r.l1[1].SyncFill(b, 0, 2, mcb)
	r.drain(t)
	vGot, vDone := r.done[vcb.Seq]
	mGot, mDone := r.done[mcb.Seq]
	if !vDone || !mDone || vGot != 7 || mGot != 7 {
		t.Fatalf("token-2 pair: done %v/%v values %d/%d, want both 7", vDone, mDone, vGot, mGot)
	}
	if _, called := r.done[stale.Seq]; called {
		t.Fatal("stale token-1 sync completed")
	}
	if r.bus.SyncRequests != 1 {
		t.Fatalf("SyncRequests=%d", r.bus.SyncRequests)
	}
}

// TestSnoopVsSerialOracle: the bus preserves sequential memory semantics
// for serialized operations — same property as the directory.
func TestSnoopVsSerialOracle(t *testing.T) {
	r := newRig(t, testConfig(), 4, 0)
	oracle := make(map[uint64]uint64)
	f := func(ops []struct {
		Core  uint8
		Block uint8
		Val   uint64
		Store bool
	}) bool {
		for _, op := range ops {
			core := int(op.Core) % 4
			b := blockN(uint64(op.Block) % 48)
			if op.Store {
				r.store(t, core, b, op.Val)
				oracle[b] = op.Val
			} else if got := r.load(t, core, b); got != oracle[b] {
				t.Logf("core %d read %d from %#x want %d", core, got, b, oracle[b])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSnoopConcurrentConvergence mirrors the directory stress test:
// overlapping operations must converge to a single-writer state holding a
// value some store actually wrote.
func TestSnoopConcurrentConvergence(t *testing.T) {
	r := newRig(t, testConfig(), 4, 0)
	rnd := sim.NewRand(5)
	const blocks = 24
	written := make(map[uint64]map[uint64]bool)
	misses := 0
	for step := 0; step < 3000; step++ {
		core := rnd.Intn(4)
		b := blockN(uint64(rnd.Intn(blocks)))
		if rnd.Intn(2) == 0 {
			val := uint64(step)<<8 | uint64(core)
			st := r.l1[core].Store(b, 0, val, r.next(cache.CBStoreDone))
			if st != cache.Retry {
				if st == cache.Miss {
					misses++
				}
				if written[b] == nil {
					written[b] = map[uint64]bool{}
				}
				written[b][val] = true
			}
		} else {
			if st, _ := r.l1[core].Load(b, 0, r.next(cache.CBLoadDone)); st == cache.Miss {
				misses++
			}
		}
		for i := 0; i < rnd.Intn(4); i++ {
			r.eq.Advance(r.eq.Now() + 1)
			r.bus.Tick()
		}
	}
	r.drain(t)
	if outstanding := misses - len(r.done); outstanding != 0 {
		t.Fatalf("%d operations incomplete", outstanding)
	}
	for i := 0; i < blocks; i++ {
		b := blockN(uint64(i))
		if len(written[b]) == 0 {
			continue
		}
		got := r.bus.DebugRead(b)[0]
		if !written[b][got] {
			t.Fatalf("block %d converged to unwritten value %d", i, got)
		}
		exclusive := 0
		for c := 0; c < 4; c++ {
			if l := r.l1[c].Arr.Peek(b); l != nil && l.State != cache.Shared {
				exclusive++
			}
		}
		if exclusive > 1 {
			t.Fatalf("block %d: %d exclusive copies", i, exclusive)
		}
	}
}
