// Package sim provides the deterministic cycle-driven simulation engine
// shared by every timing model in this repository: a cycle clock, an event
// queue for scheduling future work (memory responses, bank service
// completions), and a seeded PRNG.
//
// Determinism is a hard requirement of the whole simulator: the Reunion
// execution model is validated by running a vocal and a mute core over the
// same program and detecting divergence, so the simulation itself must
// never be a source of nondeterminism. Everything here is single-threaded
// and ordered; given the same seed, a run is cycle-exact reproducible.
package sim

// Event is one piece of deferred work: a plain-data descriptor and the
// component that dispatches on it, scheduled to fire at a specific cycle.
// At fire time the queue calls Run.RunEvent(Desc). Deferred work has no
// other form, so a live machine and one bound from a checkpoint blob run
// the same code.
//
// An Event is immutable once scheduled: the queue moves *Event pointers
// between heap slots but never rewrites At, Order, Desc or Run.
// Checkpointing relies on this — EventQueue.Snapshot copies the heap
// slice and shares the Event pointers, so a runner must treat the
// descriptor as immutable too.
//
// Fired events are recycled through a per-queue free list, but only when
// no snapshot can possibly hold them: each Event carries the queue
// generation it was scheduled under, Snapshot bumps the generation, and
// Advance returns to the pool only events whose generation is current.
// An Event that predates the latest Snapshot is left for the garbage
// collector, preserving the shared-pointer contract above.
type Event struct {
	At    int64
	Order int64 // tie-break: schedule order, preserves FIFO among same-cycle events
	// Desc is the event's descriptor: a plain-data value the checkpoint
	// encoder writes and its owner dispatches on.
	Desc any
	// Run is the descriptor's owner. The checkpoint binder sets it on
	// decoded events; live events get it from AtR/AfterR.
	Run EventRunner
	gen uint64 // queue generation at scheduling time; guards pool reuse
}

// EventRunner is implemented by every component that schedules deferred
// work: it fires an event by dispatching on the event's descriptor. The
// runner is an interface pair (pointer + itab) copied into the pooled
// Event, so a scheduling site allocates at most its descriptor.
type EventRunner interface{ RunEvent(desc any) }

type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].Order < h[j].Order
}

// up and down are the container/heap sift algorithms specialized to
// eventHeap. The specialization matters twice over: it removes the
// interface dispatch on Less/Swap from the hottest loop in the kernel,
// and it reproduces container/heap's exact swap sequence so the heap
// slice layout — which checkpoint serialization preserves positionally —
// is identical to what the generic implementation produced.
func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// EventQueue schedules events at future cycles and fires them in
// deterministic order (cycle, then insertion order).
type EventQueue struct {
	h     eventHeap
	order int64
	now   int64
	gen   uint64   // bumped by Snapshot; see Event.gen
	free  []*Event // fired events safe to recycle (gen was current at fire time) //reunion:derived
}

// alloc returns a cleared Event, reusing a pooled one when available.
func (q *EventQueue) alloc() *Event {
	if n := len(q.free); n > 0 {
		ev := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		return ev
	}
	return &Event{}
}

// push schedules an assembled event (heap insert + sift up).
func (q *EventQueue) push(ev *Event) {
	q.h = append(q.h, ev)
	q.h.up(len(q.h) - 1)
}

// NewEventQueue returns an empty queue positioned at cycle 0.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Now returns the current cycle.
func (q *EventQueue) Now() int64 { return q.now }

// AtR schedules an event at an absolute cycle: at fire time the queue
// calls run.RunEvent(desc). Scheduling in the past (or present) fires on
// the next Advance to that cycle; the queue clamps to now so callers may
// schedule "immediately".
func (q *EventQueue) AtR(cycle int64, desc any, run EventRunner) {
	if cycle < q.now {
		cycle = q.now
	}
	q.order++
	ev := q.alloc()
	ev.At, ev.Order, ev.Desc, ev.Run, ev.gen = cycle, q.order, desc, run, q.gen
	q.push(ev)
}

// AfterR schedules an event delay cycles from now.
func (q *EventQueue) AfterR(delay int64, desc any, run EventRunner) { q.AtR(q.now+delay, desc, run) }

// Advance moves the clock to the given cycle and fires every event due at
// or before it, in order.
func (q *EventQueue) Advance(cycle int64) {
	for len(q.h) > 0 && q.h[0].At <= cycle {
		n := len(q.h) - 1
		ev := q.h[0]
		q.h[0], q.h[n] = q.h[n], nil
		q.h = q.h[:n]
		q.h.down(0, n)
		if ev.At > q.now {
			q.now = ev.At
		}
		ev.Run.RunEvent(ev.Desc)
		// Recycle only events no snapshot can hold. The generation is
		// re-checked after the runner returns: a runner that snapshots
		// the queue bumps gen and thereby retires every already-scheduled
		// event, including this one.
		if ev.gen == q.gen {
			ev.Desc, ev.Run = nil, nil
			q.free = append(q.free, ev)
		}
	}
	if cycle > q.now {
		q.now = cycle
	}
}

// Pending reports the number of scheduled events not yet fired.
func (q *EventQueue) Pending() int { return len(q.h) }

// EventQueueState is a checkpoint of the queue: the clock, the order
// counter, and the pending events. The Event structs are shared with the
// live queue (they are immutable once scheduled); the slice itself is a
// copy, so later pushes and pops leave the state untouched.
type EventQueueState struct {
	now    int64
	order  int64
	events []*Event
}

// Snapshot captures the queue state. Read-only with respect to
// observable queue state: the clock, order counter and pending events
// are not perturbed. It does bump the queue's pool generation, retiring
// every currently-scheduled event from recycling so the shared *Event
// pointers stay immutable for the lifetime of the snapshot.
func (q *EventQueue) Snapshot() EventQueueState {
	s := EventQueueState{
		now:    q.now,
		order:  q.order,
		events: append([]*Event(nil), q.h...),
	}
	q.gen++
	return s
}

// Restore rewinds the queue to a snapshot: the clock, order counter and
// pending-event set become exactly what Snapshot saw. Events scheduled
// after the snapshot are discarded; events that fired since will fire
// again. The state slice is copied out, so one snapshot restores any
// number of times. The heap invariant is positional, so a copy of a valid
// heap slice is itself a valid heap.
func (q *EventQueue) Restore(s EventQueueState) {
	q.now = s.now
	q.order = s.order
	// Events scheduled since the last Snapshot (current generation) are
	// about to become unreachable and, by construction, appear in no
	// snapshot — recycle them instead of leaking them to the GC.
	for _, ev := range q.h {
		if ev.gen == q.gen {
			ev.Desc, ev.Run = nil, nil
			q.free = append(q.free, ev)
		}
	}
	old := q.h
	q.h = append(q.h[:0], s.events...)
	for i := len(q.h); i < len(old); i++ {
		old[i] = nil
	}
	// The installed events are shared with the state object (which may be
	// restored again, or may be a decoded checkpoint whose generation
	// stamps mean nothing to this queue): retire them all from recycling.
	q.gen++
}

// Clock returns the snapshot's cycle and order counter (checkpoint
// serialization).
func (s EventQueueState) Clock() (now, order int64) { return s.now, s.order }

// Events returns the snapshot's pending events in heap-slice order. The
// slice is shared with the state; callers must not mutate it. The order is
// significant: the heap invariant is positional, so a decoder that
// preserves it byte-for-byte reproduces the exact pop order.
func (s EventQueueState) Events() []*Event { return s.events }

// NewEventQueueState assembles a queue snapshot from decoded parts
// (checkpoint deserialization). The events slice must be a valid heap in
// (At, Order) — which it is when it round-trips through Events in order.
func NewEventQueueState(now, order int64, events []*Event) EventQueueState {
	return EventQueueState{now: now, order: order, events: events}
}

// NextAt reports the cycle of the earliest pending event, if any. The
// quiescence-aware kernel uses it to pick a fast-forward target.
func (q *EventQueue) NextAt() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Rand is a SplitMix64 PRNG: tiny, fast, seedable, and fully deterministic.
// It backs workload generation and any randomized choice in the simulator.
type Rand struct{ state uint64 }

// NewRand returns a PRNG seeded with the given value.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64-bit pseudorandom value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudorandom value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative pseudorandom int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a pseudorandom value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Mix64 is a stateless 64-bit mixing function (the SplitMix64 finalizer).
// It generates the deterministic "arbitrary data" returned by null and
// shared phantom requests on misses: garbage that is reproducible for a
// given (address, salt) so simulations replay exactly.
func Mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
