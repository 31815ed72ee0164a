// Package interconnect models the on-chip transport between private L1
// caches and the shared L2: a crossbar with fixed traversal latency and
// per-bank request queues with a configurable service rate.
//
// The queue is where shared-cache contention — one of the two sources of
// Reunion's loose-coupling slack (paper §5.3) — comes from: when mute
// phantom requests and vocal coherent requests pile onto the same bank,
// effective memory latency rises. Bank service bandwidth scales with the
// number of cores, matching the paper's "on-chip cache bandwidth scales in
// proportion with the number of cores" assumption.
package interconnect

// Item is a queued unit of work.
type Item any

// BankQueue is a FIFO with a bounded per-cycle service rate. Arrivals
// during cycle t are eligible for service at t+1 at the earliest.
type BankQueue struct {
	q        []queued
	perCycle int
	lastSrv  int64
	served   int

	// Stats
	Arrivals  int64
	TotalWait int64 // cycles items spent queued before service
	MaxDepth  int
}

type queued struct {
	item    Item
	arrived int64
}

// NewBankQueue returns a queue serving at most perCycle items per cycle.
func NewBankQueue(perCycle int) *BankQueue {
	if perCycle < 1 {
		perCycle = 1
	}
	return &BankQueue{perCycle: perCycle}
}

// Push enqueues an item at the given cycle.
func (b *BankQueue) Push(now int64, it Item) {
	b.q = append(b.q, queued{item: it, arrived: now})
	b.Arrivals++
	if len(b.q) > b.MaxDepth {
		b.MaxDepth = len(b.q)
	}
}

// Pop dequeues the next serviceable item at the given cycle, honouring the
// service rate. It returns nil when the queue is empty or the bank has
// exhausted its bandwidth this cycle.
func (b *BankQueue) Pop(now int64) Item {
	if len(b.q) == 0 {
		return nil
	}
	if now != b.lastSrv {
		b.lastSrv = now
		b.served = 0
	}
	if b.served >= b.perCycle {
		return nil
	}
	head := b.q[0]
	if head.arrived >= now {
		return nil // arrived this cycle; serviceable next cycle
	}
	copy(b.q, b.q[1:])
	b.q = b.q[:len(b.q)-1]
	b.served++
	b.TotalWait += now - head.arrived
	return head.item
}

// Len returns the current queue depth.
func (b *BankQueue) Len() int { return len(b.q) }

// ResetStats zeroes the contention counters (measurement-window
// boundary).
func (b *BankQueue) ResetStats() { b.Arrivals, b.TotalWait, b.MaxDepth = 0, 0, 0 }

// BankQueueState is a checkpoint of the queue: contents (items shared —
// they are immutable requests), service bookkeeping, and counters.
type BankQueueState struct {
	q                 []queued
	lastSrv           int64
	served            int
	arrivals, totWait int64
	maxDepth          int
}

// Snapshot captures the queue state. Read-only.
func (b *BankQueue) Snapshot() BankQueueState {
	return BankQueueState{
		q:       append([]queued(nil), b.q...),
		lastSrv: b.lastSrv, served: b.served,
		arrivals: b.Arrivals, totWait: b.TotalWait, maxDepth: b.MaxDepth,
	}
}

// Restore rewrites the queue from a snapshot.
func (b *BankQueue) Restore(s BankQueueState) {
	b.q = append([]queued(nil), s.q...)
	b.lastSrv, b.served = s.lastSrv, s.served
	b.Arrivals, b.TotalWait, b.MaxDepth = s.arrivals, s.totWait, s.maxDepth
}
