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
	decided       []decidedInterval

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
	g.decided = append(g.decided, decidedInterval{endSeq: e.Seq, at: at})
	g.pendingExtra, g.pendingSerial = 0, 0
}

// FlushInterval implements cpu.Gate: the early-ended interval compares
// like any other.
func (g *StrictGate) FlushInterval(_ *cpu.Core, endSeq int64, _ uint16) {
	at := g.EQ.Now() + g.CompareLat + g.pendingExtra + int64(g.pendingSerial)*g.CompareLat
	g.decided = append(g.decided, decidedInterval{endSeq: endSeq, at: at})
	g.pendingExtra, g.pendingSerial = 0, 0
}

// FinalizeReady implements cpu.Gate.
func (g *StrictGate) FinalizeReady(_ *cpu.Core, e *cpu.Entry) bool {
	if len(g.decided) == 0 {
		return false
	}
	d := g.decided[0]
	if e.Seq > d.endSeq {
		// Stale decision from before a squash; discard and retry.
		g.decided = g.decided[1:]
		return g.FinalizeReady(nil, e)
	}
	if g.EQ.Now() < d.at {
		return false
	}
	if e.Seq == d.endSeq {
		g.decided = g.decided[1:]
	}
	return true
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
	for _, d := range g.decided {
		if e.Seq <= d.endSeq {
			return d.at
		}
	}
	return 0
}

// Reset clears gate state after a pipeline squash in tests.
func (g *StrictGate) Reset() {
	g.decided = g.decided[:0]
	g.pendingExtra, g.pendingSerial = 0, 0
}
