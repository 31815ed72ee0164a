package sim

import (
	"testing"
	"testing/quick"
)

// fn is an EventRunner that runs itself, for tests that only need an
// event to do something when it fires.
type fn func()

func (f fn) RunEvent(any) { f() }

func TestEventQueueOrdering(t *testing.T) {
	eq := NewEventQueue()
	var got []int
	eq.AtR(5, nil, fn(func() { got = append(got, 5) }))
	eq.AtR(3, nil, fn(func() { got = append(got, 3) }))
	eq.AtR(5, nil, fn(func() { got = append(got, 50) })) // same cycle: FIFO
	eq.AtR(1, nil, fn(func() { got = append(got, 1) }))
	eq.Advance(10)
	want := []int{1, 3, 5, 50}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if eq.Now() != 10 {
		t.Fatalf("Now=%d want 10", eq.Now())
	}
}

func TestEventQueuePartialAdvance(t *testing.T) {
	eq := NewEventQueue()
	fired := 0
	eq.AtR(5, nil, fn(func() { fired++ }))
	eq.AtR(15, nil, fn(func() { fired++ }))
	eq.Advance(10)
	if fired != 1 {
		t.Fatalf("fired=%d want 1", fired)
	}
	if eq.Pending() != 1 {
		t.Fatalf("pending=%d want 1", eq.Pending())
	}
	eq.Advance(20)
	if fired != 2 {
		t.Fatalf("fired=%d want 2", fired)
	}
}

func TestEventQueuePastSchedulingClamps(t *testing.T) {
	eq := NewEventQueue()
	eq.Advance(100)
	fired := false
	eq.AtR(5, nil, fn(func() { fired = true })) // in the past: clamps to now
	eq.Advance(100)
	if !fired {
		t.Fatal("past-scheduled event did not fire at current cycle")
	}
}

func TestEventQueueCascade(t *testing.T) {
	// An event scheduling another event at the same cycle must fire within
	// the same Advance.
	eq := NewEventQueue()
	var seq []string
	eq.AtR(5, nil, fn(func() {
		seq = append(seq, "a")
		eq.AfterR(0, nil, fn(func() { seq = append(seq, "b") }))
	}))
	eq.Advance(5)
	if len(seq) != 2 || seq[0] != "a" || seq[1] != "b" {
		t.Fatalf("cascade: %v", seq)
	}
}

func TestAfterUsesNow(t *testing.T) {
	eq := NewEventQueue()
	eq.Advance(7)
	var at int64
	eq.AfterR(3, nil, fn(func() { at = eq.Now() }))
	eq.Advance(100)
	if at != 10 {
		t.Fatalf("After(3) fired at %d, want 10", at)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13)=%d out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64=%v out of [0,1)", f)
		}
	}
}

func TestMix64(t *testing.T) {
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collision on adjacent inputs")
	}
	if Mix64(0x1234) != Mix64(0x1234) {
		t.Fatal("Mix64 not deterministic")
	}
	// Property: Mix64 is injective-ish on random inputs (no collisions in
	// a modest sample).
	seen := make(map[uint64]uint64)
	f := func(x uint64) bool {
		m := Mix64(x)
		if prev, ok := seen[m]; ok && prev != x {
			return false
		}
		seen[m] = x
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandBoolBias(t *testing.T) {
	r := NewRand(11)
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Fatalf("Bool(0.25) fired %d/10000", n)
	}
}

func TestEventQueueSnapshotRestore(t *testing.T) {
	eq := NewEventQueue()
	var fired []int
	eq.AtR(3, nil, fn(func() { fired = append(fired, 3) }))
	eq.AtR(7, nil, fn(func() { fired = append(fired, 7) }))
	eq.Advance(4)
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("pre-snapshot fires %v", fired)
	}

	snap := eq.Snapshot()
	if eq.Pending() != 1 || eq.Now() != 4 {
		t.Fatal("snapshot perturbed the queue")
	}

	// Diverge: fire the pending event, schedule and fire extra ones.
	eq.AtR(5, nil, fn(func() { fired = append(fired, 5) }))
	eq.Advance(10)
	if len(fired) != 3 {
		t.Fatalf("divergent fires %v", fired)
	}

	// Restore twice; each replay fires exactly the snapshotted event.
	for i := 0; i < 2; i++ {
		eq.Restore(snap)
		if eq.Now() != 4 || eq.Pending() != 1 {
			t.Fatalf("restore #%d: now=%d pending=%d", i, eq.Now(), eq.Pending())
		}
		fired = nil
		eq.Advance(10)
		if len(fired) != 1 || fired[0] != 7 {
			t.Fatalf("restore #%d fires %v", i, fired)
		}
	}
}

func TestEventQueueSnapshotPreservesSameCycleOrder(t *testing.T) {
	eq := NewEventQueue()
	var got []string
	for _, tag := range []string{"a", "b", "c"} {
		tag := tag
		eq.AtR(5, nil, fn(func() { got = append(got, tag) }))
	}
	snap := eq.Snapshot()
	eq.Advance(5)
	want := append([]string(nil), got...)

	eq.Restore(snap)
	got = nil
	eq.Advance(5)
	if len(want) != 3 || len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("same-cycle FIFO broke across restore: %v vs %v", got, want)
	}
}
