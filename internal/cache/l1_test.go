package cache

import (
	"fmt"
	"testing"

	"reunion/internal/mem"
)

// fakeBelow records requests and lets tests reply on demand.
type fakeBelow struct {
	reqs []*Req
}

func (f *fakeBelow) Request(r *Req) { f.reqs = append(f.reqs, r) }

func (f *fakeBelow) replyAll(val uint64, exclusive bool) {
	reqs := f.reqs
	f.reqs = nil
	for _, r := range reqs {
		if r.L1 == nil {
			continue
		}
		var d mem.Block
		for i := range d {
			d[i] = val
		}
		r.Deliver(Resp{Data: d, Exclusive: exclusive})
	}
}

// recorder is a Client that keeps each completed waiter's word, keyed by
// its descriptor's Seq. A second completion of one Seq panics.
type recorder map[int64]uint64

func (r recorder) Complete(cb *CB, v uint64) {
	if _, dup := r[cb.Seq]; dup {
		panic(fmt.Sprintf("waiter %d completed twice", cb.Seq))
	}
	r[cb.Seq] = v
}

// done returns the completions a test L1 has handed to its recorder.
func done(c *L1) recorder { return c.Client.(recorder) }

func newL1(name string, core int, vocal bool, capacityBytes int, b Below, instruction bool) *L1 {
	c := NewL1(name, core, 0, vocal, capacityBytes, 2, 4, b, instruction)
	c.Client = recorder{}
	return c
}

func newTestL1(b Below) *L1 { return newL1("l1", 0, true, 4<<10, b, false) }

// load, store and atomic build the descriptor of a test access; seq keys
// its completion in the recorder.
func load(seq int64) CB   { return CB{Kind: CBLoadDone, Seq: seq} }
func store(seq int64) CB  { return CB{Kind: CBStoreDone, Seq: seq} }
func atomic(seq int64) CB { return CB{Kind: CBAtomicBegin, Seq: seq} }

func TestLoadMissFillHit(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	st, _ := c.Load(blk(3), 2, load(1))
	if st != Miss || len(fb.reqs) != 1 || fb.reqs[0].Kind != GetS {
		t.Fatalf("st=%v reqs=%d", st, len(fb.reqs))
	}
	fb.replyAll(77, false)
	if got, ok := done(c)[1]; !ok || got != 77 {
		t.Fatalf("fill value %d (completed %v)", got, ok)
	}
	st, v := c.Load(blk(3), 2, load(2))
	if st != Hit || v != 77 {
		t.Fatalf("post-fill load st=%v v=%d", st, v)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestMissMerging(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	c.Load(blk(3), 0, load(1))
	st, _ := c.Load(blk(3), 1, load(2))
	if st != Miss || len(fb.reqs) != 1 {
		t.Fatalf("merge failed: %d requests", len(fb.reqs))
	}
	if c.MergedMisses != 1 {
		t.Fatalf("MergedMisses=%d", c.MergedMisses)
	}
	fb.replyAll(5, false)
	if a, b := done(c)[1], done(c)[2]; a != 5 || b != 5 || len(done(c)) != 2 {
		t.Fatalf("waiters got %d,%d", a, b)
	}
}

func TestMSHRExhaustionRetries(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb) // 4 MSHRs
	for i := 0; i < 4; i++ {
		c.Load(blk(uint64(i)), 0, load(int64(i)))
	}
	st, _ := c.Load(blk(9), 0, load(9))
	if st != Retry {
		t.Fatalf("5th miss st=%v want Retry", st)
	}
	if c.Retries != 1 {
		t.Fatalf("Retries=%d", c.Retries)
	}
}

func TestStoreHitStates(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	var d mem.Block
	c.Arr.Install(blk(1), &d, Exclusive)
	if st := c.Store(blk(1), 0, 42, store(1)); st != Hit {
		t.Fatalf("store on E: %v", st)
	}
	l := c.Arr.Peek(blk(1))
	if l.State != Modified || !l.Dirty || l.Data[0] != 42 {
		t.Fatal("store on E must silently upgrade to M")
	}
}

func TestStoreUpgradeFromShared(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	var d mem.Block
	c.Arr.Install(blk(1), &d, Shared)
	if st := c.Store(blk(1), 3, 9, store(1)); st != Miss {
		t.Fatalf("store on S must upgrade, got %v", st)
	}
	if len(fb.reqs) != 1 || fb.reqs[0].Kind != GetX {
		t.Fatal("upgrade must send GetX")
	}
	fb.replyAll(0, true)
	if _, ok := done(c)[1]; !ok {
		t.Fatal("store completion not signalled")
	}
	l := c.Arr.Peek(blk(1))
	if l.State != Modified || l.Data[3] != 9 {
		t.Fatal("upgraded store not applied")
	}
}

func TestStoreIntoPendingReadRetries(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	c.Load(blk(1), 0, load(1)) // GetS outstanding
	if st := c.Store(blk(1), 0, 1, store(2)); st != Retry {
		t.Fatalf("store into GetS-pending block: %v want Retry", st)
	}
}

func TestStoreMergesIntoPendingWrite(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	c.Store(blk(1), 0, 1, store(1)) // GetX outstanding
	if st := c.Store(blk(1), 1, 2, store(2)); st != Miss {
		t.Fatalf("store into GetX-pending block: %v want Miss (merge)", st)
	}
	fb.replyAll(0, true)
	l := c.Arr.Peek(blk(1))
	if l.Data[0] != 1 || l.Data[1] != 2 {
		t.Fatal("merged stores not both applied")
	}
}

func TestAtomicLifecycle(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	st, _ := c.AtomicBegin(blk(2), 0, atomic(1))
	if st != Miss || fb.reqs[0].Kind != GetX {
		t.Fatalf("atomic miss: %v", st)
	}
	fb.replyAll(7, true)
	if old := done(c)[1]; old != 7 {
		t.Fatalf("atomic old=%d", old)
	}
	l := c.Arr.Peek(blk(2))
	if !l.Locked || l.State != Modified {
		t.Fatal("atomic fill must lock the line in M")
	}
	// Probes against the locked line are deferred.
	if _, _, _, busy := c.ProbeInvalidate(blk(2)); !busy {
		t.Fatal("probe of locked line must be busy")
	}
	c.AtomicEnd(blk(2), 0, 9, true)
	l = c.Arr.Peek(blk(2))
	if l.Locked || l.Data[0] != 9 || !l.Dirty {
		t.Fatal("AtomicEnd write/unlock failed")
	}
	// Failed CAS: no write.
	st, v := c.AtomicBegin(blk(2), 0, atomic(2))
	if st != Hit || v != 9 {
		t.Fatalf("atomic hit st=%v v=%d", st, v)
	}
	c.AtomicEnd(blk(2), 0, 55, false)
	if c.Arr.Peek(blk(2)).Data[0] != 9 {
		t.Fatal("failed CAS must not write")
	}
}

func TestVocalDirtyEvictionWritesBack(t *testing.T) {
	fb := &fakeBelow{}
	c := newL1("l1", 0, true, 2*64, fb, false) // 1 set, 2 ways
	var d mem.Block
	l, _, _ := c.Arr.Install(blk(0), &d, Modified)
	l.Dirty = true
	l.Data[0] = 123
	c.Arr.Install(blk(1), &d, Shared)
	// Fill a third block into the full set via the miss path.
	c.Load(blk(2), 0, load(1))
	// Make block 1 MRU so the dirty block 0 is the victim.
	c.Arr.Lookup(blk(1))
	fb.reqs = fb.reqs[:0+1] // keep the GetS
	getS := fb.reqs[0]
	fb.reqs = nil
	var fill mem.Block
	getS.Deliver(Resp{Data: fill})
	if len(fb.reqs) != 1 || fb.reqs[0].Kind != Writeback {
		t.Fatalf("dirty eviction sent %d reqs", len(fb.reqs))
	}
	if fb.reqs[0].Data[0] != 123 {
		t.Fatal("writeback data wrong")
	}
	if c.WritebacksSent != 1 {
		t.Fatalf("WritebacksSent=%d", c.WritebacksSent)
	}
}

func TestMuteDirtyEvictionDropped(t *testing.T) {
	fb := &fakeBelow{}
	c := newL1("l1m", 1, false, 2*64, fb, false)
	var d mem.Block
	l, _, _ := c.Arr.Install(blk(0), &d, Modified)
	l.Dirty = true
	c.Arr.Install(blk(1), &d, Shared)
	c.Load(blk(2), 0, load(1))
	c.Arr.Lookup(blk(1))
	getS := fb.reqs[0]
	fb.reqs = nil
	getS.Deliver(Resp{})
	if len(fb.reqs) != 0 {
		t.Fatal("mute eviction must not reach the shared cache controller")
	}
	if c.MuteDropsWB != 1 {
		t.Fatalf("MuteDropsWB=%d", c.MuteDropsWB)
	}
}

func TestSyncFillAtomicAndAbort(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	// An atomic synchronizing fill wraps a CAS completion.
	syncCAS := CB{Kind: CBSyncWrap, Seq: 1, Inner: &CB{Kind: CBAtomicFin}}
	if !c.SyncFill(blk(4), 1, 7, syncCAS) {
		t.Fatal("SyncFill rejected")
	}
	if len(fb.reqs) != 1 || fb.reqs[0].Kind != Sync || fb.reqs[0].Token != 7 {
		t.Fatalf("sync request malformed: %+v", fb.reqs)
	}
	if c.SyncFill(blk(4), 1, 7, syncCAS) {
		t.Fatal("second SyncFill on pending block must be refused")
	}
	if !c.HasPendingFill(blk(4)) {
		t.Fatal("sync fill must be visible as pending")
	}
	fb.replyAll(11, true)
	if old := done(c)[1]; old != 11 {
		t.Fatalf("sync old=%d", old)
	}
	l := c.Arr.Peek(blk(4))
	if !l.Locked || l.State != Modified {
		t.Fatal("atomic sync fill must lock M")
	}
	c.AtomicEnd(blk(4), 1, 0, false)

	// Abort path: MSHR freed, no completion.
	c.SyncFill(blk(8), 0, 9, CB{Kind: CBSyncWrap, Seq: 2, Inner: &CB{Kind: CBLoadDone}})
	c.AbortMiss(blk(8))
	if c.HasPendingFill(blk(8)) {
		t.Fatal("aborted miss still pending")
	}
	if c.OutstandingMisses() != 0 {
		t.Fatalf("outstanding=%d", c.OutstandingMisses())
	}
	if _, called := done(c)[2]; called {
		t.Fatal("aborted waiter ran")
	}
}

func TestProbeDowngradeReturnsDirtyData(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	var d mem.Block
	l, _, _ := c.Arr.Install(blk(6), &d, Modified)
	l.Dirty = true
	l.Data[0] = 5
	data, dirty, had, busy := c.ProbeDowngrade(blk(6))
	if !had || busy || !dirty || data[0] != 5 {
		t.Fatalf("downgrade: had=%v busy=%v dirty=%v", had, busy, dirty)
	}
	if c.Arr.Peek(blk(6)).State != Shared {
		t.Fatal("line not downgraded")
	}
	if _, _, had, _ := c.ProbeInvalidate(blk(99)); had {
		t.Fatal("probe of absent block reported had")
	}
}

func TestUnlockAll(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	var d mem.Block
	l, _, _ := c.Arr.Install(blk(1), &d, Modified)
	l.Locked = true
	c.UnlockAll()
	if c.Arr.Peek(blk(1)).Locked {
		t.Fatal("UnlockAll left a lock")
	}
}

func TestIfetchUsesIfetchKind(t *testing.T) {
	fb := &fakeBelow{}
	ic := newL1("l1i", 0, true, 4<<10, fb, true)
	if st := ic.Ifetch(blk(1), CB{Kind: CBIfetchDone, Seq: 1}); st != Miss {
		t.Fatalf("ifetch st=%v", st)
	}
	if fb.reqs[0].Kind != Ifetch {
		t.Fatalf("kind=%v", fb.reqs[0].Kind)
	}
	fb.replyAll(0, false)
	if _, ok := done(ic)[1]; !ok {
		t.Fatal("ifetch completion not signalled")
	}
}
