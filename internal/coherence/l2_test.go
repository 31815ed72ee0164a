package coherence

import (
	"fmt"
	"testing"
	"testing/quick"

	"reunion/internal/cache"
	"reunion/internal/mem"
	"reunion/internal/sim"
)

// rig assembles an L2 with n registered vocal L1s (and optional mute L1s)
// plus a drainable clock.
type rig struct {
	eq  *sim.EventQueue
	mem *mem.Memory
	l2  *L2
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
		CapacityBytes: 256 << 10, // small L2 so eviction paths are reachable
		Ways:          8,
		Banks:         4,
		HitLatency:    35,
		XBarLatency:   4,
		RecallLatency: 16,
		MemLatency:    240,
		MemBanks:      8,
		MemBankBusy:   24,
		MemMSHRs:      64,
		PortsPerBank:  1,
		Phantom:       PhantomGlobal,
	}
}

func newRig(t *testing.T, cfg Config, vocal int, mute int) *rig {
	t.Helper()
	r := &rig{eq: sim.NewEventQueue(), mem: mem.New(), done: recorder{}}
	r.l2 = NewL2(cfg, r.eq, r.mem, vocal+mute)
	for i := 0; i < vocal+mute; i++ {
		isVocal := i < vocal
		pair := i
		if !isVocal {
			pair = i - vocal // mute core i pairs with vocal core i-vocal
		}
		l1 := cache.NewL1("l1", i, pair, isVocal, 8<<10, 2, 8, r.l2, false)
		l1.Client = r.done
		r.l2.RegisterL1D(i, l1)
		r.l1 = append(r.l1, l1)
	}
	return r
}

// drain advances time until the memory system goes quiet.
func (r *rig) drain(t *testing.T) {
	t.Helper()
	for i := 0; i < 100_000; i++ {
		r.eq.Advance(r.eq.Now() + 1)
		r.l2.Tick()
		quiet := r.eq.Pending() == 0
		for _, b := range r.l2.banks {
			if b.Len() > 0 {
				quiet = false
			}
		}
		if quiet {
			return
		}
	}
	t.Fatal("memory system did not drain")
}

func blockN(n uint64) uint64 { return n * mem.BlockBytes }

func (r *rig) load(t *testing.T, core int, block uint64, word int) uint64 {
	t.Helper()
	cb := r.next(cache.CBLoadDone)
	st, v := r.l1[core].Load(block, word, cb)
	switch st {
	case cache.Hit:
		return v
	case cache.Miss:
		r.drain(t)
		got, gotSet := r.done[cb.Seq]
		if !gotSet {
			t.Fatal("load never completed")
		}
		return got
	default:
		t.Fatal("load retry in quiet system")
		return 0
	}
}

func (r *rig) store(t *testing.T, core int, block uint64, word int, val uint64) {
	t.Helper()
	for i := 0; i < 100; i++ {
		cb := r.next(cache.CBStoreDone)
		switch r.l1[core].Store(block, word, val, cb) {
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

func TestReadYourWrites(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(10)
	r.mem.WriteWord(b, 111)
	if got := r.load(t, 0, b, 0); got != 111 {
		t.Fatalf("initial load %d", got)
	}
	r.store(t, 0, b, 0, 222)
	if got := r.load(t, 0, b, 0); got != 222 {
		t.Fatalf("read-your-write %d", got)
	}
}

func TestCrossCoreVisibility(t *testing.T) {
	r := newRig(t, testConfig(), 4, 0)
	b := blockN(20)
	// Everyone reads (shared), then core 1 writes, then everyone re-reads.
	for c := 0; c < 4; c++ {
		if got := r.load(t, c, b, 3); got != 0 {
			t.Fatalf("core %d initial %d", c, got)
		}
	}
	r.store(t, 1, b, 3, 77)
	for c := 0; c < 4; c++ {
		if got := r.load(t, c, b, 3); got != 77 {
			t.Fatalf("core %d stale read %d after remote store", c, got)
		}
	}
}

func TestWriteWriteTransfer(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(30)
	r.store(t, 0, b, 0, 1)
	r.store(t, 1, b, 0, 2) // must recall core 0's dirty M line
	if got := r.load(t, 0, b, 0); got != 2 {
		t.Fatalf("core 0 read %d after write-write transfer", got)
	}
}

func TestExclusiveGrantOnSoloRead(t *testing.T) {
	r := newRig(t, testConfig(), 2, 0)
	b := blockN(40)
	r.load(t, 0, b, 0)
	l := r.l1[0].Arr.Peek(b)
	if l == nil || l.State != cache.Exclusive {
		t.Fatalf("solo reader should get E, has %v", l)
	}
	// A second reader forces a downgrade.
	r.load(t, 1, b, 0)
	if st := r.l1[0].Arr.Peek(b).State; st != cache.Shared {
		t.Fatalf("first reader still %v after second reader", st)
	}
}

func TestDirtyWritebackReachesMemoryOnL2Eviction(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 4 << 10 // 64 lines: tiny, forces L2 evictions
	cfg.Ways = 2
	r := newRig(t, cfg, 1, 0)
	b := blockN(1)
	r.store(t, 0, b, 0, 99)
	// Evict the dirty line from the L1 by filling its set, then stream
	// enough blocks through the L2 to evict it there too.
	for i := uint64(2); i < 300; i++ {
		r.load(t, 0, blockN(i*128+1), 0) // same L1 set pressure varies
	}
	r.drain(t)
	// Wherever the data ended up, the coherent view must still be 99.
	got := r.l2.DebugRead(b)
	if got[0] != 99 {
		t.Fatalf("coherent view lost the store: %d", got[0])
	}
}

func TestPhantomGlobalSeesOwnerData(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1) // core 0 vocal, core 1 mute
	b := blockN(50)
	r.store(t, 0, b, 0, 42) // vocal holds M
	if got := r.load(t, 1, b, 0); got != 42 {
		t.Fatalf("global phantom read %d, want owner's 42", got)
	}
	// The peek must not change the owner's state.
	if st := r.l1[0].Arr.Peek(b).State; st != cache.Modified {
		t.Fatalf("owner state changed to %v by phantom peek", st)
	}
	if r.l2.PhantomPeeks == 0 {
		t.Fatal("peek not counted")
	}
}

func TestPhantomRepliesGrantWritePermission(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(55)
	r.load(t, 1, b, 0)
	l := r.l1[1].Arr.Peek(b)
	if l == nil || l.State != cache.Exclusive {
		t.Fatalf("phantom reply state %v, want Exclusive (write permission)", l.State)
	}
	// Mute stores hit locally and never become visible to the system.
	r.store(t, 1, b, 0, 1234)
	if r.mem.ReadWord(b) == 1234 {
		t.Fatal("mute store leaked to memory")
	}
	if got := r.l2.DebugRead(b); got[0] == 1234 {
		t.Fatal("mute store visible in coherent view")
	}
}

func TestPhantomNullReturnsGarbage(t *testing.T) {
	cfg := testConfig()
	cfg.Phantom = PhantomNull
	r := newRig(t, cfg, 1, 1)
	b := blockN(60)
	r.mem.WriteWord(b, 7)
	r.load(t, 0, b, 0) // vocal caches it; L2 now has it
	if got := r.load(t, 1, b, 0); got == 7 {
		t.Fatal("null phantom returned coherent data")
	}
	if r.l2.PhantomGarbage == 0 {
		t.Fatal("garbage not counted")
	}
}

func TestPhantomSharedHitsL2MissesGarbage(t *testing.T) {
	cfg := testConfig()
	cfg.Phantom = PhantomShared
	r := newRig(t, cfg, 1, 1)
	inL2 := blockN(70)
	r.mem.WriteWord(inL2, 7)
	r.load(t, 0, inL2, 0) // brings into L2
	if got := r.load(t, 1, inL2, 0); got != 7 {
		t.Fatalf("shared phantom L2 hit returned %d", got)
	}
	missing := blockN(71)
	r.mem.WriteWord(missing, 8)
	if got := r.load(t, 1, missing, 0); got == 8 {
		t.Fatal("shared phantom L2 miss returned coherent data")
	}
}

func TestPhantomGlobalMemoryReadDoesNotInstall(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(80)
	r.mem.WriteWord(b, 5)
	before := r.l2.MissesL2
	if got := r.load(t, 1, b, 0); got != 5 {
		t.Fatalf("global phantom off-chip read %d", got)
	}
	if r.l2.arr.Peek(b) != nil {
		t.Fatal("phantom memory read installed in L2 (must not change memory-system state)")
	}
	if r.l2.MissesL2 == before {
		t.Fatal("miss not counted")
	}
	if r.l2.PhantomMemReads == 0 {
		t.Fatal("phantom memory read not counted")
	}
}

func TestSyncRequestCombinesPair(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(90)
	r.mem.WriteWord(b, 3)
	// Make the mute's copy stale: mute reads, then vocal writes.
	r.load(t, 1, b, 0)
	r.store(t, 0, b, 0, 9)

	vcb, mcb := r.syncLoad(), r.syncLoad()
	if !r.l1[0].SyncFill(b, 0, 1, vcb) {
		t.Fatal("vocal sync rejected")
	}
	r.drain(t)
	if _, vDone := r.done[vcb.Seq]; vDone {
		t.Fatal("sync completed with only one side arrived")
	}
	if !r.l1[1].SyncFill(b, 0, 1, mcb) {
		t.Fatal("mute sync rejected")
	}
	r.drain(t)
	vGot, vDone := r.done[vcb.Seq]
	mGot, mDone := r.done[mcb.Seq]
	if !vDone || !mDone {
		t.Fatal("sync did not complete after both sides arrived")
	}
	if vGot != 9 || mGot != 9 {
		t.Fatalf("sync values %d/%d want 9/9 (single coherent value)", vGot, mGot)
	}
	if r.l2.SyncRequests != 1 {
		t.Fatalf("SyncRequests=%d", r.l2.SyncRequests)
	}
}

func TestSyncCancelDropsStaleRequests(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	b := blockN(95)
	stale := r.syncLoad()
	r.l1[0].SyncFill(b, 0, 1, stale)
	r.drain(t) // parked at the controller
	r.l2.CancelSync(0, 2)
	r.l1[0].AbortMiss(b)
	// A fresh pair of sync requests with the new token must succeed.
	vcb, mcb := r.syncLoad(), r.syncLoad()
	r.l1[0].SyncFill(b, 0, 2, vcb)
	r.l1[1].SyncFill(b, 0, 2, mcb)
	r.drain(t)
	_, vDone := r.done[vcb.Seq]
	_, mDone := r.done[mcb.Seq]
	if _, called := r.done[stale.Seq]; called {
		t.Fatal("cancelled sync completed")
	}
	if !vDone || !mDone {
		t.Fatal("fresh sync after cancel did not complete")
	}
}

// TestSyncStalePartnerDropped parks a token-1 synchronizing request and,
// without CancelSync, sends a token-2 pair: the newer request displaces
// the stale one, the pair combines on one value, and the stale request is
// never answered. Recovery always cancels first, so only a test at the
// controller reaches this path.
func TestSyncStalePartnerDropped(t *testing.T) {
	r := newRig(t, testConfig(), 1, 1)
	staleBlock, b := blockN(96), blockN(97)
	r.mem.WriteWord(b, 7)
	stale := r.syncLoad()
	if !r.l1[0].SyncFill(staleBlock, 0, 1, stale) {
		t.Fatal("stale sync rejected")
	}
	r.drain(t) // parked at the controller
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
	if r.l2.SyncRequests != 1 {
		t.Fatalf("SyncRequests=%d", r.l2.SyncRequests)
	}
}

// TestCoherenceVsSerialOracle is the protocol's core safety property: for
// any interleaving of loads and stores issued one-at-a-time (each drained
// to completion), every vocal load observes exactly the value of the last
// completed store to that word — the sequential memory semantics the
// directory must preserve through recalls, invalidations, upgrades and
// evictions.
func TestCoherenceVsSerialOracle(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 16 << 10 // small: exercise inclusion evictions
	cfg.Ways = 2
	r := newRig(t, cfg, 4, 0)
	oracle := make(map[uint64]uint64)
	f := func(ops []struct {
		Core  uint8
		Block uint8
		Word  uint8
		Val   uint64
		Store bool
	}) bool {
		for _, op := range ops {
			core := int(op.Core) % 4
			b := blockN(uint64(op.Block) % 64)
			w := int(op.Word) % mem.BlockWords
			if op.Store {
				r.store(t, core, b, w, op.Val)
				oracle[b+uint64(w)*8] = op.Val
			} else if got := r.load(t, core, b, w); got != oracle[b+uint64(w)*8] {
				t.Logf("core %d loaded %d from %#x want %d", core, got, b, oracle[b+uint64(w)*8])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDebugHelpers(t *testing.T) {
	r := newRig(t, testConfig(), 1, 0)
	b := blockN(7)
	r.store(t, 0, b, 0, 5)
	if s := r.l2.DebugDir(b); s == "" {
		t.Fatal("DebugDir empty")
	}
	if got := r.l2.DebugRead(b); got[0] != 5 {
		t.Fatalf("DebugRead %d", got[0])
	}
	if r.l2.Capacity() != (256<<10)/mem.BlockBytes {
		t.Fatal("capacity")
	}
	arr, wait := r.l2.QueueStats()
	if arr <= 0 || wait < 0 {
		t.Fatalf("queue stats %d %d", arr, wait)
	}
}

func TestPrefill(t *testing.T) {
	r := newRig(t, testConfig(), 1, 0)
	b := blockN(33)
	r.mem.WriteWord(b, 4)
	if !r.l2.Prefill(b) {
		t.Fatal("prefill rejected")
	}
	if r.l2.Prefill(b) {
		t.Fatal("double prefill reported install")
	}
	if l := r.l2.arr.Peek(b); l == nil || l.Data[0] != 4 {
		t.Fatal("prefill contents wrong")
	}
}

func TestPhantomStrengthStrings(t *testing.T) {
	if PhantomGlobal.String() != "global" || PhantomShared.String() != "shared" || PhantomNull.String() != "null" {
		t.Fatal("strength names")
	}
	if PhantomGlobal != 0 {
		t.Fatal("PhantomGlobal must be the zero value (safe default)")
	}
}

// TestConcurrentConvergence issues overlapping loads and stores from four
// cores without draining between operations, then drains and checks
// convergence invariants: the coherent view of each word equals the last
// value some store wrote there (per-block stores use distinct per-core
// values so "some store" is checkable), at most one L1 holds a
// non-Shared copy of any block, and the directory's owner actually has
// the line.
func TestConcurrentConvergence(t *testing.T) {
	cfg := testConfig()
	cfg.CapacityBytes = 16 << 10
	cfg.Ways = 2
	r := newRig(t, cfg, 4, 0)
	rnd := sim.NewRand(99)

	const blocks = 32
	written := make(map[uint64]map[uint64]bool) // block -> set of values written
	var misses int
	for step := 0; step < 4000; step++ {
		core := rnd.Intn(4)
		b := blockN(uint64(rnd.Intn(blocks)))
		if rnd.Intn(2) == 0 {
			val := uint64(step)<<8 | uint64(core)
			st := r.l1[core].Store(b, 0, val, r.next(cache.CBStoreDone))
			switch st {
			case cache.Hit:
				if written[b] == nil {
					written[b] = map[uint64]bool{}
				}
				written[b][val] = true
			case cache.Miss:
				misses++
				if written[b] == nil {
					written[b] = map[uint64]bool{}
				}
				written[b][val] = true
			case cache.Retry:
			}
		} else {
			st, _ := r.l1[core].Load(b, 0, r.next(cache.CBLoadDone))
			if st == cache.Miss {
				misses++
			}
		}
		// Advance a little without draining: requests overlap.
		for i := 0; i < rnd.Intn(4); i++ {
			r.eq.Advance(r.eq.Now() + 1)
			r.l2.Tick()
		}
	}
	r.drain(t)
	if outstanding := misses - len(r.done); outstanding != 0 {
		t.Fatalf("%d operations never completed", outstanding)
	}
	for i := 0; i < blocks; i++ {
		b := blockN(uint64(i))
		vals := written[b]
		if len(vals) == 0 {
			continue
		}
		got := r.l2.DebugRead(b)[0]
		if !vals[got] {
			t.Fatalf("block %d converged to %d, which no store wrote", i, got)
		}
		// Single-writer invariant.
		exclusive := 0
		for c := 0; c < 4; c++ {
			if l := r.l1[c].Arr.Peek(b); l != nil && (l.State == cache.Modified || l.State == cache.Exclusive) {
				exclusive++
			}
		}
		if exclusive > 1 {
			t.Fatalf("block %d held exclusively by %d caches:\n%s", i, exclusive, r.l2.DebugDir(b))
		}
	}
}
