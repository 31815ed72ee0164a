// Package core implements the paper's primary contribution: the Reunion
// execution model (§3) and its microarchitectural realization (§4), plus
// the two reference execution models the evaluation compares against —
// the non-redundant baseline and the Strict oracle model of strict input
// replication.
//
// The execution models plug into the processor pipeline through the
// cpu.Gate seam, which mediates the in-order check stage: when an
// instruction may architecturally retire, when the pair is single-stepping
// under the re-execution protocol, and when the next load must issue a
// synchronizing request.
package core

import (
	"reunion/internal/cache"
	"reunion/internal/cpu"
	"reunion/internal/sim"
)

func deviceValue(salt, addr uint64, n int64) int64 {
	return int64(sim.Mix64(addr ^ uint64(n)*0x9e3779b97f4a7c15 ^ salt))
}

// InterruptSink is implemented by every execution-model gate: an external
// interrupt is scheduled and handled at the same point in program
// execution on every core of a logical processor (paper §4.3 — fingerprint
// comparison provides the synchronization point for pairs).
type InterruptSink interface {
	// RaiseInterrupt requests interrupt service; the gate charges cost
	// cycles at the next comparison-interval boundary.
	RaiseInterrupt(cost int64)
	// InterruptsServiced reports how many interrupts have been charged.
	InterruptsServiced() int64
	// ResetInterruptStats zeroes the interrupts-serviced counter at a
	// measurement boundary. A pending-but-unserviced interrupt is live
	// state, not a statistic, and survives the reset.
	ResetInterruptStats()
}

// NonRedundantGate retires instructions as soon as they pass check entry:
// no output comparison, no redundancy. Software TLB handlers still cost
// their body (but no comparison exposure).
type NonRedundantGate struct {
	EQ      *sim.EventQueue //reunion:shared
	DevSalt uint64

	intRaised   bool  // an interrupt awaits service
	intPending  int64 // its handler cycles
	intServiced int64
}

// Offer implements cpu.Gate: a pending external interrupt is serviced at
// the next retirement boundary.
func (g *NonRedundantGate) Offer(_ *cpu.Core, e *cpu.Entry, send bool, _ uint16) {
	if send && g.intRaised {
		e.ExtraCheck += g.intPending
		g.intRaised, g.intPending = false, 0
		g.intServiced++
	}
}

// FlushInterval implements cpu.Gate.
func (*NonRedundantGate) FlushInterval(*cpu.Core, int64, uint16) {}

// RaiseInterrupt implements InterruptSink.
func (g *NonRedundantGate) RaiseInterrupt(cost int64) {
	g.intRaised, g.intPending = true, g.intPending+cost
}

// InterruptsServiced implements InterruptSink.
func (g *NonRedundantGate) InterruptsServiced() int64 { return g.intServiced }

// ResetInterruptStats implements InterruptSink.
func (g *NonRedundantGate) ResetInterruptStats() { g.intServiced = 0 }

// FinalizeReady implements cpu.Gate.
func (g *NonRedundantGate) FinalizeReady(_ *cpu.Core, e *cpu.Entry) bool {
	return g.EQ.Now() >= e.OfferedAt+e.ExtraCheck
}

// Stepping implements cpu.Gate.
func (*NonRedundantGate) Stepping(*cpu.Core) bool { return false }

// SyncArmed implements cpu.Gate.
func (*NonRedundantGate) SyncArmed(*cpu.Core) bool { return false }

// SyncIssue implements cpu.Gate.
func (*NonRedundantGate) SyncIssue(*cpu.Core, uint64, int, cache.CB) bool {
	panic("core: synchronizing request without redundancy")
}

// SyncDone implements cpu.Gate.
func (*NonRedundantGate) SyncDone(*cpu.Core, int64) {
	panic("core: synchronizing fill without redundancy")
}

// DeviceRead implements cpu.Gate.
func (g *NonRedundantGate) DeviceRead(c *cpu.Core, addr uint64, n int64) int64 {
	return deviceValue(g.DevSalt^uint64(c.Pair), addr, n)
}

// RetireWake implements cpu.Gate: the head retires exactly when its check
// exposure elapses.
func (g *NonRedundantGate) RetireWake(_ *cpu.Core, e *cpu.Entry) int64 {
	return e.OfferedAt + e.ExtraCheck
}

type decidedInterval struct {
	endSeq int64
	at     int64
}

// reclaim drops the consumed prefix q[:head] of a head-indexed FIFO
// before a push: at once when the FIFO is empty, and by moving the live
// region to the front when the array is full and at least half of it is
// consumed. A FIFO that never drains (matched decisions wait out the
// comparison latency while younger ones arrive) thus reuses its array
// instead of growing it; a move of k elements follows at least k pops,
// so a push stays amortized O(1).
func reclaim[T any](q []T, head int) ([]T, int) {
	switch {
	case head == len(q):
		return q[:0], 0
	case len(q) == cap(q) && 2*head >= len(q):
		return q[:copy(q, q[head:])], 0
	}
	return q, head
}

// decidedQueue is a FIFO of decided comparison intervals, oldest first,
// consumed from a head index rather than re-sliced, so its array is
// reused (a re-sliced head loses its capacity for good). The live
// decisions are q[head:]; a snapshot stores only those, with head 0.
type decidedQueue struct {
	q    []decidedInterval
	head int
}

// push appends d. With overtake set, d's cycle also caps every queued
// decision: an entry retires once any decision at or after its interval
// is due, so a younger interval decided earlier releases the older ones
// with it. The queue's cycles then never decrease, and the head is
// always the first decision due.
func (dq *decidedQueue) push(d decidedInterval, overtake bool) {
	dq.q, dq.head = reclaim(dq.q, dq.head)
	for i := len(dq.q) - 1; overtake && i >= dq.head && dq.q[i].at > d.at; i-- {
		dq.q[i].at = d.at
	}
	dq.q = append(dq.q, d)
}

// ready reports whether the entry seq may retire at cycle now: the
// first decision at or after its interval is due. Decisions for
// intervals older than seq are stale (squashed, or consumed by an
// overtaking decision) and are dropped; the entry that ends the head's
// interval consumes it.
func (dq *decidedQueue) ready(now, seq int64) bool {
	for dq.head < len(dq.q) && seq > dq.q[dq.head].endSeq {
		dq.head++
	}
	if dq.head == len(dq.q) || now < dq.q[dq.head].at {
		return false
	}
	if seq == dq.q[dq.head].endSeq {
		dq.head++
	}
	return true
}

// wake is the cycle at which the first decision at or after entry seq's
// interval is due, or 0 when no such decision is queued yet.
func (dq *decidedQueue) wake(seq int64) int64 {
	for _, d := range dq.q[dq.head:] {
		if seq <= d.endSeq {
			return d.at
		}
	}
	return 0
}

// len is the number of live decisions.
func (dq *decidedQueue) len() int { return len(dq.q) - dq.head }

// StrictGate is the oracle model of strict input replication (paper §5.1):
// fingerprint comparison with a given comparison latency, but zero input-
// replication cost and zero slack between the executions — as if an ideal
// LVQ fed a perfectly synchronized partner. Only one core is simulated;
// the partner's fingerprint send time equals the core's own.
//
// It models exactly the two costs the paper attributes to checking:
// instructions occupy their window entry for the comparison latency after
// entering check, and serializing instructions stall issue until their
// comparison completes (both emerge from the pipeline's gating rules).
type StrictGate struct {
	EQ         *sim.EventQueue //reunion:shared
	CompareLat int64
	DevSalt    uint64

	pendingExtra  int64
	pendingSerial int
	decided       decidedQueue

	intRaised   bool  // an interrupt awaits service
	intPending  int64 // its handler cycles
	intServiced int64
}

// RaiseInterrupt implements InterruptSink.
func (g *StrictGate) RaiseInterrupt(cost int64) { g.intRaised, g.intPending = true, g.intPending+cost }

// InterruptsServiced implements InterruptSink.
func (g *StrictGate) InterruptsServiced() int64 { return g.intServiced }

// ResetInterruptStats implements InterruptSink.
func (g *StrictGate) ResetInterruptStats() { g.intServiced = 0 }

// Offer implements cpu.Gate: an interval's comparison completes a full
// comparison latency after it is sent (plus any software-TLB-handler
// exposures accumulated by its instructions).
func (g *StrictGate) Offer(_ *cpu.Core, e *cpu.Entry, send bool, _ uint16) {
	g.pendingExtra += e.ExtraCheck
	g.pendingSerial += e.SerialCount
	if !send {
		return
	}
	if g.intRaised {
		g.pendingExtra += g.intPending
		g.intRaised, g.intPending = false, 0
		g.intServiced++
	}
	at := g.EQ.Now() + g.CompareLat + g.pendingExtra + int64(g.pendingSerial)*g.CompareLat
	g.decided.push(decidedInterval{endSeq: e.Seq, at: at}, false)
	g.pendingExtra, g.pendingSerial = 0, 0
}

// FlushInterval implements cpu.Gate: the early-ended interval compares
// like any other.
func (g *StrictGate) FlushInterval(_ *cpu.Core, endSeq int64, _ uint16) {
	at := g.EQ.Now() + g.CompareLat + g.pendingExtra + int64(g.pendingSerial)*g.CompareLat
	g.decided.push(decidedInterval{endSeq: endSeq, at: at}, false)
	g.pendingExtra, g.pendingSerial = 0, 0
}

// FinalizeReady implements cpu.Gate. Decisions are queued in send
// order without overtaking: an older interval's later decision holds
// back the younger ones, as one in-order comparison channel would.
func (g *StrictGate) FinalizeReady(_ *cpu.Core, e *cpu.Entry) bool {
	return g.decided.ready(g.EQ.Now(), e.Seq)
}

// Stepping implements cpu.Gate.
func (*StrictGate) Stepping(*cpu.Core) bool { return false }

// SyncArmed implements cpu.Gate.
func (*StrictGate) SyncArmed(*cpu.Core) bool { return false }

// SyncIssue implements cpu.Gate. Strict input replication never sees input
// incoherence, so the re-execution protocol is never invoked.
func (*StrictGate) SyncIssue(*cpu.Core, uint64, int, cache.CB) bool {
	panic("core: synchronizing request under strict input replication")
}

// SyncDone implements cpu.Gate.
func (*StrictGate) SyncDone(*cpu.Core, int64) {
	panic("core: synchronizing fill under strict input replication")
}

// DeviceRead implements cpu.Gate.
func (g *StrictGate) DeviceRead(c *cpu.Core, addr uint64, n int64) int64 {
	return deviceValue(g.DevSalt^uint64(c.Pair), addr, n)
}

// RetireWake implements cpu.Gate: the earliest non-stale pending decision
// completes at its scheduled cycle; with no pending decision the head
// waits for a younger instruction to close the interval (other pipeline
// activity, which ends any fast-forward by itself).
func (g *StrictGate) RetireWake(_ *cpu.Core, e *cpu.Entry) int64 {
	return g.decided.wake(e.Seq)
}
