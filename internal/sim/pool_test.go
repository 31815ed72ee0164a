package sim

import (
	"fmt"
	"testing"
)

// fireLog is an EventRunner that records each firing as "desc@cycle".
type fireLog struct {
	q   *EventQueue
	log []string
}

func (f *fireLog) RunEvent(desc any) {
	f.log = append(f.log, fmt.Sprintf("%v@%d", desc, f.q.Now()))
}

// fireCount is an EventRunner with an allocation-free fire path.
type fireCount struct{ n int }

func (f *fireCount) RunEvent(any) { f.n++ }

// TestEventPoolSnapshotBitIdentity is the regression test for the event
// free list's snapshot contract. A snapshot shares *Event pointers with
// the live queue, so an event that fires after a snapshot captured it
// must NOT return to the pool: if it did, a later schedule would
// overwrite its fields in place and a restore would replay the wrong
// event. The scenario below is constructed so that exactly that
// corruption would occur without the generation guard.
func TestEventPoolSnapshotBitIdentity(t *testing.T) {
	q := NewEventQueue()
	f := &fireLog{q: q}

	// Prime the pool: schedule and fire one event so the pool holds a
	// recyclable Event struct.
	q.AtR(10, "prime", f)
	q.Advance(10)

	// This schedule reuses the pooled Event. The snapshot then captures a
	// pointer to it.
	q.AtR(20, "kept", f)
	snap := q.Snapshot()

	// Fire the snapshotted event. It predates the snapshot, so it must be
	// leaked to the GC, not recycled.
	q.Advance(20)
	// If it were recycled, this schedule would rewrite the snapshot's
	// event in place as ("clobber", 30).
	q.AtR(30, "clobber", f)
	q.Advance(30)

	want := []string{"prime@10", "kept@20", "clobber@30"}
	if fmt.Sprint(f.log) != fmt.Sprint(want) {
		t.Fatalf("live run fired %v, want %v", f.log, want)
	}

	// Restore twice: each replay must fire exactly the snapshotted event,
	// with its original descriptor and cycle.
	for i := 0; i < 2; i++ {
		q.Restore(snap)
		f.log = nil
		q.Advance(30)
		if len(f.log) != 1 || f.log[0] != "kept@20" {
			t.Fatalf("restore #%d replayed %v, want [kept@20]", i, f.log)
		}
		// Post-restore scheduling may recycle current-generation events,
		// but never the snapshot's.
		q.AtR(40, "post", f)
		q.Advance(40)
	}
}

// TestEventQueueScheduleZeroAlloc asserts the descriptor-scheduling fast
// path allocates nothing in steady state: fired events recycle through
// the pool, and AtR copies the runner interface without boxing.
func TestEventQueueScheduleZeroAlloc(t *testing.T) {
	q := NewEventQueue()
	f := &fireCount{}
	desc := any(&struct{ n int }{}) // pre-boxed descriptor

	// Warm the pool.
	q.AtR(q.Now()+1, desc, f)
	q.Advance(q.Now() + 1)

	allocs := testing.AllocsPerRun(1000, func() {
		q.AtR(q.Now()+1, desc, f)
		q.AtR(q.Now()+2, desc, f)
		q.Advance(q.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("schedule/fire cycle allocates %v per run, want 0", allocs)
	}
}

// BenchmarkEventQueueScheduleAdvance measures the kernel's hottest
// engine operation: scheduling an event and popping it (zero-alloc,
// pooled).
func BenchmarkEventQueueScheduleAdvance(b *testing.B) {
	b.Run("descriptor", func(b *testing.B) {
		q := NewEventQueue()
		f := &fireCount{}
		desc := any(&struct{ n int }{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.AtR(q.Now()+1, desc, f)
			q.Advance(q.Now() + 1)
		}
	})
	// Deep heap: schedule+pop with 64 events pending far in the future,
	// so every operation pays a realistic sift depth.
	b.Run("descriptor-deep", func(b *testing.B) {
		q := NewEventQueue()
		f := &fireCount{}
		desc := any(&struct{ n int }{})
		for i := int64(0); i < 64; i++ {
			q.AtR(1<<40+i, desc, f)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q.AtR(q.Now()+1, desc, f)
			q.Advance(q.Now() + 1)
		}
	})
}
