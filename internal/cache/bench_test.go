package cache

import "testing"

// BenchmarkL1ProbeHit measures the L1 load hit path the issue stage
// leans on: Load against a resident line. This is the probe the tick
// path batches per issue window, so its cost (and allocation behavior)
// is directly on the kinstr/s critical path.
func BenchmarkL1ProbeHit(b *testing.B) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	// Warm 8 lines, batched to fit the test cache's 4 MSHRs.
	for batch := 0; batch < 2; batch++ {
		for i := batch * 4; i < batch*4+4; i++ {
			c.Load(blk(uint64(i)), 0, load(int64(i)))
		}
		fb.replyAll(42, false)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if st, _ := c.Load(blk(uint64(i&7)), i&3, load(0)); st != Hit {
			b.Fatal("warm line missed")
		}
	}
}

// BenchmarkL1StoreHit measures the store hit path (hit in Modified or
// Exclusive state, completing synchronously).
func BenchmarkL1StoreHit(b *testing.B) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	c.Store(blk(1), 0, 7, store(1))
	fb.replyAll(0, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c.Store(blk(1), i&3, uint64(i), store(0)) != Hit {
			b.Fatal("warm store missed")
		}
	}
}

// TestL1ProbeHitZeroAlloc pins the hit paths at zero allocations: a
// simulated L1 probe must never touch the Go heap, or a reunion-mode
// pair tick (dozens of probes) turns into allocator traffic.
func TestL1ProbeHitZeroAlloc(t *testing.T) {
	fb := &fakeBelow{}
	c := newTestL1(fb)
	c.Load(blk(1), 0, load(1))
	c.Store(blk(2), 0, 7, store(2))
	fb.replyAll(42, true)
	if a := testing.AllocsPerRun(1000, func() {
		c.Load(blk(1), 2, load(3))
		c.Store(blk(2), 3, 9, store(4))
	}); a != 0 {
		t.Fatalf("L1 hit probes allocate %v per run, want 0", a)
	}
}
