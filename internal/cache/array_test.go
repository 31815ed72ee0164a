package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"reunion/internal/bin"
	"reunion/internal/mem"
)

func blk(n uint64) uint64 { return n * mem.BlockBytes }

func TestArrayGeometry(t *testing.T) {
	a := NewArray(64<<10, 2) // 64KB 2-way: 512 sets
	if a.Sets() != 512 || a.Ways() != 2 {
		t.Fatalf("sets=%d ways=%d", a.Sets(), a.Ways())
	}
}

func TestArrayPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewArray(3*64, 1) // 3 sets: not a power of two
}

func TestLookupInstall(t *testing.T) {
	a := NewArray(1024, 2) // 8 sets
	var d mem.Block
	d[0] = 7
	if a.Lookup(blk(1)) != nil {
		t.Fatal("hit in empty cache")
	}
	line, _, evicted := a.Install(blk(1), &d, Shared)
	if evicted {
		t.Fatal("eviction from empty set")
	}
	if line.Data[0] != 7 || line.State != Shared {
		t.Fatal("install contents wrong")
	}
	got := a.Lookup(blk(1))
	if got == nil || got.Data[0] != 7 {
		t.Fatal("lookup after install failed")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	a := NewArray(2*64, 2) // 1 set, 2 ways
	var d mem.Block
	a.Install(blk(0), &d, Shared)
	a.Install(blk(1), &d, Shared)
	a.Lookup(blk(0)) // touch 0: 1 is now LRU
	_, victim, evicted := a.Install(blk(2), &d, Shared)
	if !evicted || victim.Block != blk(1) {
		t.Fatalf("victim=%#x evicted=%v, want block 1", victim.Block, evicted)
	}
	if a.Peek(blk(0)) == nil || a.Peek(blk(2)) == nil || a.Peek(blk(1)) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestLockedLinesNeverVictims(t *testing.T) {
	a := NewArray(2*64, 2)
	var d mem.Block
	l0, _, _ := a.Install(blk(0), &d, Modified)
	a.Install(blk(1), &d, Shared)
	l0.Locked = true
	a.Lookup(blk(1)) // make block 1 MRU; LRU is the locked line
	_, victim, evicted := a.Install(blk(2), &d, Shared)
	if !evicted || victim.Block != blk(1) {
		t.Fatalf("victimized %#x; must skip locked line", victim.Block)
	}
}

func TestVictimNilWhenAllLocked(t *testing.T) {
	a := NewArray(2*64, 2)
	var d mem.Block
	l0, _, _ := a.Install(blk(0), &d, Modified)
	l1, _, _ := a.Install(blk(1), &d, Modified)
	l0.Locked, l1.Locked = true, true
	if a.Victim(blk(2)) != nil {
		t.Fatal("victim from fully locked set")
	}
}

func TestInvalidateAndDowngrade(t *testing.T) {
	a := NewArray(1024, 2)
	var d mem.Block
	d[3] = 99
	line, _, _ := a.Install(blk(5), &d, Modified)
	line.Dirty = true

	prior, ok, busy := a.Downgrade(blk(5))
	if !ok || busy || prior.Data[3] != 99 || !prior.Dirty {
		t.Fatalf("downgrade: ok=%v busy=%v", ok, busy)
	}
	if got := a.Peek(blk(5)); got.State != Shared || got.Dirty {
		t.Fatal("downgrade left wrong state")
	}

	prior, ok, busy = a.Invalidate(blk(5))
	if !ok || busy || prior.State != Shared {
		t.Fatalf("invalidate: ok=%v busy=%v", ok, busy)
	}
	if a.Peek(blk(5)) != nil {
		t.Fatal("line survived invalidate")
	}

	_, ok, _ = a.Invalidate(blk(5))
	if ok {
		t.Fatal("invalidate of absent line reported ok")
	}
}

func TestLockedProbesReportBusy(t *testing.T) {
	a := NewArray(1024, 2)
	var d mem.Block
	line, _, _ := a.Install(blk(5), &d, Modified)
	line.Locked = true
	if _, ok, busy := a.Invalidate(blk(5)); ok || !busy {
		t.Fatal("locked invalidate must report busy")
	}
	if _, ok, busy := a.Downgrade(blk(5)); ok || !busy {
		t.Fatal("locked downgrade must report busy")
	}
	if a.Peek(blk(5)) == nil {
		t.Fatal("busy probe must not remove the line")
	}
}

func TestInstallRefreshesResidentLine(t *testing.T) {
	a := NewArray(1024, 2)
	var d1, d2 mem.Block
	d1[0], d2[0] = 1, 2
	a.Install(blk(7), &d1, Shared)
	line, _, evicted := a.Install(blk(7), &d2, Exclusive)
	if evicted {
		t.Fatal("refill of resident line must not evict")
	}
	if line.Data[0] != 2 || line.State != Exclusive {
		t.Fatal("refill did not update in place")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(9): "?"} {
		if s.String() != want {
			t.Errorf("%d -> %q want %q", s, s.String(), want)
		}
	}
}

// Property: against a map oracle, a single-master cache (install on miss,
// write through Lookup) always returns the data last written per block.
func TestArrayVsOracle(t *testing.T) {
	a := NewArray(4<<10, 4)
	oracle := make(map[uint64]uint64) // block -> word0 value
	backing := make(map[uint64]uint64)
	f := func(ops []struct {
		N     uint16
		Val   uint64
		Write bool
	}) bool {
		for _, op := range ops {
			b := blk(uint64(op.N % 256))
			line := a.Lookup(b)
			if line == nil {
				var d mem.Block
				d[0] = backing[b]
				var victim Line
				var ev bool
				line, victim, ev = a.Install(b, &d, Shared)
				if ev {
					backing[victim.Block] = victim.Data[0] // write back
				}
			}
			if op.Write {
				line.Data[0] = op.Val
				line.Dirty = true
				oracle[b] = op.Val
			} else if line.Data[0] != oracle[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachValid(t *testing.T) {
	a := NewArray(1024, 2)
	var d mem.Block
	a.Install(blk(1), &d, Shared)
	a.Install(blk(2), &d, Modified)
	n := 0
	a.ForEachValid(func(l *Line) { n++ })
	if n != 2 {
		t.Fatalf("visited %d lines, want 2", n)
	}
}

// image is a full copy of an array's observable contents: the LRU clock
// and every line, with invalid lines zeroed (an invalid way carries no
// state a lookup, victim choice or snapshot can observe).
type image struct {
	tick  int64
	lines []Line
}

func imageOf(a *Array) image {
	im := image{tick: a.tick}
	for _, set := range a.sets {
		for _, l := range set {
			if l.State == Invalid {
				l = Line{}
			}
			im.lines = append(im.lines, l)
		}
	}
	return im
}

// Property: under random sequences of every Array method, each Restore
// yields exactly the full-copy image taken with the snapshot. Restores
// alternate between the base state (only touched sets are rewritten) and
// older or decoded snapshots (every set is rewritten).
func TestArrayRestoreVsFullCopy(t *testing.T) {
	type snap struct {
		s  ArrayState
		im image
	}
	rng := rand.New(rand.NewPCG(3, 4))
	a := NewArray(128*4*mem.BlockBytes, 4) // 128 sets, 1024 blocks: frequent evictions
	block := func() uint64 { return blk(rng.Uint64N(1024)) }
	mutate := func(l *Line) {
		if l == nil {
			return
		}
		switch rng.IntN(4) {
		case 0:
			l.Dirty = !l.Dirty
		case 1:
			l.State = Modified
		case 2:
			l.Data[rng.IntN(mem.BlockWords)] = rng.Uint64()
		default:
			l.Locked = !l.Locked
		}
	}
	snaps := []snap{{a.Snapshot(), imageOf(a)}}
	for step := 0; step < 20000; step++ {
		switch op := rng.IntN(14); op {
		case 0, 1, 2:
			var d mem.Block
			d[0] = rng.Uint64()
			func() {
				defer func() { _ = recover() }() // every way locked
				a.Install(block(), &d, State(1+rng.IntN(3)))
			}()
		case 3:
			mutate(a.Lookup(block()))
		case 4:
			if l := a.Peek(block()); l != nil {
				a.Touch(l)
				mutate(l)
			}
		case 5:
			if l := a.Victim(block()); l != nil && l.State != Invalid {
				mutate(l)
			}
		case 6:
			a.Invalidate(block())
		case 7:
			a.Downgrade(block())
		case 8:
			a.ForEachValid(func(l *Line) {
				if rng.IntN(8) == 0 {
					l.Locked = false
				}
			})
		case 9:
			snaps = append(snaps, snap{a.Snapshot(), imageOf(a)})
		case 10:
			// A decoded copy of a snapshot is a different state with the
			// same contents; half its lines are written as memory's and
			// filled on bind.
			i := rng.IntN(len(snaps))
			m := mem.New()
			for k, l := range snaps[i].s.lines {
				if k%2 == 0 {
					m.WriteBlock(l.Block, &l.Data)
				}
			}
			img := m.Snapshot()
			w := bin.NewWriter(nil)
			snaps[i].s.Walk(w, img)
			var s ArrayState
			s.Walk(bin.NewReader(w.Bytes()), nil)
			if err := s.BindTo(a, img); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{s, snaps[i].im})
		default:
			i := len(snaps) - 1 // the base, unless a decode was appended
			if op == 13 {
				i = rng.IntN(len(snaps))
			}
			a.Restore(snaps[i].s)
			if got := imageOf(a); !reflect.DeepEqual(got, snaps[i].im) {
				t.Fatalf("step %d: restore of snapshot %d differs from its full copy", step, i)
			}
			snaps = append(snaps, snaps[i])
		}
	}
}

// TestArrayRestoreZeroAlloc pins the touched-set restore: after a run of
// probes, Restore of the base allocates nothing.
func TestArrayRestoreZeroAlloc(t *testing.T) {
	a := NewArray(64<<10, 2)
	var d mem.Block
	for i := uint64(0); i < 512; i++ {
		a.Install(blk(i), &d, Shared)
	}
	s := a.Snapshot()
	if n := testing.AllocsPerRun(100, func() {
		a.Lookup(blk(7))
		a.Peek(blk(300))
		a.Restore(s)
	}); n != 0 {
		t.Fatalf("Restore allocates %v per run, want 0", n)
	}
}

// TestArrayStateValidate rejects decoded snapshots that do not fit the
// live geometry: Restore walks line indices set by set and would
// otherwise drop or misplace such lines.
func TestArrayStateValidate(t *testing.T) {
	a := NewArray(1024, 2) // 8 sets
	var d mem.Block
	a.Install(blk(3), &d, Shared)
	good := a.Snapshot()
	if err := good.Validate(a); err != nil {
		t.Fatalf("own snapshot rejected: %v", err)
	}
	outOfRange := ArrayState{idx: []int32{16}, lines: []Line{{Block: blk(0), State: Shared}}}
	if err := outOfRange.Validate(a); err == nil {
		t.Fatal("line index past the array accepted")
	}
	wrongSet := ArrayState{idx: []int32{0}, lines: []Line{{Block: blk(3), State: Shared}}}
	if err := wrongSet.Validate(a); err == nil {
		t.Fatal("line in the wrong set accepted")
	}
}
