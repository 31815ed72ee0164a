package core

import (
	"fmt"

	"reunion/internal/cache"
	"reunion/internal/cpu"
	"reunion/internal/sim"
)

// SyncTarget is the shared cache controller surface the pair needs: it
// can cancel stale synchronizing requests during recovery escalation
// (the requests themselves travel through the cores' L1s, like misses).
type SyncTarget interface {
	CancelSync(pair int, minToken int64)
}

// PairStats counts Reunion execution-model events.
type PairStats struct {
	Recoveries        int64 // rollback recoveries (fingerprint mismatches)
	IncoherenceEvents int64 // recoveries attributed to input incoherence
	FaultEvents       int64 // recoveries attributed to injected soft errors
	Phase2            int64 // re-execution phase-2 escalations (ARF copy)
	Failures          int64 // unrecoverable (phase-2 mismatch)
	SyncRequests      int64 // synchronizing requests issued (per pair-op)
	AliasForced       int64 // comparisons force-matched by the alias hook
	Timeouts          int64 // divergence watchdog firings
	CompareWaitVocal  int64 // cycles the vocal's interval waited for the mute
	CompareWaitMute   int64
	Compares          int64
}

// A Mismatch is one fingerprint comparison whose two sides differ, as
// Pair.OnMismatch sees it in the cycle the pair matches the two sends.
type Mismatch struct {
	EndSeq          int64  // last sequence number of the vocal's interval
	VocalFP, MuteFP uint16 // the two fingerprints
	Stepping        bool   // the pair was already re-executing
}

// A Recovery is the start of one rollback recovery, as Pair.OnRecovery
// sees it once both cores are squashed to the vocal's commit point.
type Recovery struct {
	Phase   int   // 1: rollback; 2: rollback with the vocal's registers copied to the mute
	Seq, PC int64 // the restart point
}

type sentInterval struct {
	endSeq  int64
	fp      uint16
	at      int64
	extra   int64
	serial  int
	endsMem bool
}

// pairSide holds one core's comparison FIFOs: the fingerprint sends not
// yet matched, sent[sentHead:] (head-indexed like decidedQueue), and the
// matched intervals decided.
type pairSide struct {
	sent          []sentInterval
	sentHead      int
	decided       decidedQueue
	pendingExtra  int64
	pendingSerial int
}

// pushSent appends to the sent FIFO.
func (s *pairSide) pushSent(si sentInterval) {
	s.sent, s.sentHead = reclaim(s.sent, s.sentHead)
	s.sent = append(s.sent, si)
}

// Pair implements the Reunion execution model for one logical processor
// pair (Definitions 1-11): a vocal and a mute core compare fingerprints at
// every comparison-interval boundary, retire only on a match, and on a
// mismatch run rollback recovery followed by the two-phase re-execution
// protocol with a synchronizing request at the first memory operation.
type Pair struct {
	ID      int
	VocalC  *cpu.Core       //reunion:shared
	MuteC   *cpu.Core       //reunion:shared
	EQ      *sim.EventQueue //reunion:shared
	L2      SyncTarget      //reunion:shared
	Lat     int64           // one-way comparison latency between the cores
	Timeout int64           // divergence watchdog (cycles one side may run lonely)
	DevSalt uint64

	sides [2]pairSide
	gen   int64

	stepping  bool
	syncArmed bool
	phase     int

	syncBlockSet bool
	syncBlock    uint64
	syncIssued   [2]bool
	syncDone     int

	lonelySince int64

	// pendingFault is set when an injected fault fires on either core so
	// the next recovery is attributed to a soft error, not incoherence.
	pendingFault bool

	// OnFaultDetected, if set, observes every recovery attributed to an
	// injected fault, at the cycle the recovery starts (fault-injection
	// campaigns latch detection latency here).
	OnFaultDetected func() //reunion:shared observer hook: Restore puts back the snapshot's, unwinding a per-trial wrapper

	// OnMismatch and OnRecovery, if set, observe the chain a fault or an
	// input incoherence runs (§4.3): every comparison whose fingerprints
	// differ and every recovery that restarts the pair. A traced
	// measurement phase installs them (Options.TraceEvents). Each call
	// site checks for nil, so an untraced run builds no event.
	OnMismatch func(Mismatch) //reunion:shared observer hook: Restore puts back the snapshot's
	OnRecovery func(Recovery) //reunion:shared observer hook: Restore puts back the snapshot's

	// ForceAlias makes the next n mismatching comparisons pass, emulating
	// fingerprint aliasing (drives the phase-2 path in tests).
	ForceAlias int

	intRaised   bool  // an interrupt awaits service
	intPending  int64 // its handler cycles
	intServiced int64

	Stats PairStats
}

// RaiseInterrupt implements InterruptSink: the interrupt is replicated to
// both cores and serviced at the next comparison boundary — fingerprint
// comparison synchronizes the pair on a single instruction (paper §4.3).
func (p *Pair) RaiseInterrupt(cost int64) { p.intRaised, p.intPending = true, p.intPending+cost }

// InterruptsServiced implements InterruptSink.
func (p *Pair) InterruptsServiced() int64 { return p.intServiced }

// ResetInterruptStats implements InterruptSink.
func (p *Pair) ResetInterruptStats() { p.intServiced = 0 }

// NewPair wires a vocal and mute core into a logical processor pair.
// Call Bind afterwards (or let the system do it) to install the gate.
func NewPair(id int, eq *sim.EventQueue, l2 SyncTarget, lat, timeout int64, devSalt uint64) *Pair {
	return &Pair{
		ID: id, EQ: eq, L2: l2, Lat: lat, Timeout: timeout, DevSalt: devSalt,
		lonelySince: -1,
	}
}

// Bind attaches the two cores. The pair is their cpu.Gate.
func (p *Pair) Bind(vocal, mute *cpu.Core) {
	if !vocal.Vocal || mute.Vocal {
		panic("core: pair Bind roles reversed")
	}
	p.VocalC, p.MuteC = vocal, mute
	vocal.OnFaultFired = func() { p.pendingFault = true }
	mute.OnFaultFired = func() { p.pendingFault = true }
}

func (p *Pair) sideOf(c *cpu.Core) int {
	if c.Vocal {
		return 0
	}
	return 1
}

// Offer implements cpu.Gate: record the interval fingerprint send.
func (p *Pair) Offer(c *cpu.Core, e *cpu.Entry, send bool, fp uint16) {
	s := &p.sides[p.sideOf(c)]
	s.pendingExtra += e.ExtraCheck
	s.pendingSerial += e.SerialCount
	if !send {
		return
	}
	s.pushSent(sentInterval{
		endSeq:  e.Seq,
		fp:      fp,
		at:      p.EQ.Now(),
		extra:   s.pendingExtra,
		serial:  s.pendingSerial,
		endsMem: e.In.IsMem(),
	})
	s.pendingExtra, s.pendingSerial = 0, 0
}

// FlushInterval implements cpu.Gate: an early-ended interval is exchanged
// and compared like any other; both cores flush at the same committed
// position, so the FIFO matching stays aligned.
func (p *Pair) FlushInterval(c *cpu.Core, endSeq int64, fp uint16) {
	s := &p.sides[p.sideOf(c)]
	s.pushSent(sentInterval{
		endSeq: endSeq,
		fp:     fp,
		at:     p.EQ.Now(),
		extra:  s.pendingExtra,
		serial: s.pendingSerial,
	})
	s.pendingExtra, s.pendingSerial = 0, 0
}

// Tick matches fingerprint sends from the two sides and decides each
// comparison. Call once per cycle. A match is queued at once in both
// sides' decided FIFOs, due at its decision cycle (at least the next
// cycle, the first at which the cores can act on it), and marks both
// cores dirty so they re-read their retirement wake. A recovery empties
// both FIFOs, which voids a queued decision as the generation guard
// voids a scheduled one. Two decisions must also act at their decision
// cycle in event order, so they schedule an EvDecide as well: a
// mismatch, which starts recovery, and a match that ends re-execution,
// which clears stepping.
func (p *Pair) Tick() {
	v, m := &p.sides[0], &p.sides[1]
	for v.sentHead < len(v.sent) && m.sentHead < len(m.sent) {
		a, b := v.sent[v.sentHead], m.sent[m.sentHead]
		v.sentHead++
		m.sentHead++
		p.Stats.Compares++
		// Loose coupling: the comparison completes one comparison latency
		// after the *later* send (the cores swap fingerprints, §4.3).
		send := a.at
		if b.at > send {
			send = b.at
			p.Stats.CompareWaitVocal += b.at - a.at
		} else {
			p.Stats.CompareWaitMute += a.at - b.at
		}
		at := send + p.Lat + a.extra + int64(a.serial)*p.Lat
		if p.intRaised {
			// Service the replicated external interrupt at this boundary:
			// both cores retire the preceding instructions, then handle it.
			at += p.intPending
			p.intRaised, p.intPending = false, 0
			p.intServiced++
		}
		match := a.fp == b.fp
		if !match && p.ForceAlias > 0 {
			p.ForceAlias--
			p.Stats.AliasForced++
			match = true
		}
		if !match && p.OnMismatch != nil {
			p.OnMismatch(Mismatch{EndSeq: a.endSeq, VocalFP: a.fp, MuteFP: b.fp, Stepping: p.stepping})
		}
		if !match || p.stepping && a.endsMem {
			p.EQ.AtR(at, &EvDecide{PairID: p.ID, Gen: p.gen, Match: match}, p)
		}
		if match {
			if next := p.EQ.Now() + 1; at < next {
				at = next
			}
			v.decided.push(decidedInterval{endSeq: a.endSeq, at: at}, true)
			m.decided.push(decidedInterval{endSeq: b.endSeq, at: at}, true)
			p.VocalC.MarkDirty()
			p.MuteC.MarkDirty()
		}
	}
	// Divergence watchdog: if one side keeps sending while the other is
	// silent (e.g., the mute wandered off a garbage-value branch with a
	// comparison interval longer than one instruction), force recovery.
	lonely := (v.sentHead < len(v.sent)) != (m.sentHead < len(m.sent))
	switch {
	case !lonely:
		p.lonelySince = -1
	case p.lonelySince < 0:
		p.lonelySince = p.EQ.Now()
	case p.EQ.Now()-p.lonelySince > p.Timeout:
		p.Stats.Timeouts++
		p.recover()
	}
}

// fireDecide is the body of a scheduled comparison decision: under the
// generation guard (a recovery since the compare voids it), a mismatch
// starts recovery and a match ends re-execution. The matched interval
// itself was queued when Tick decided it.
func (p *Pair) fireDecide(gen int64, match bool) {
	if p.gen != gen {
		return
	}
	// Event-context mutation of the cores' retirement state: both
	// must leave their self-tick short-circuit.
	p.VocalC.MarkDirty()
	p.MuteC.MarkDirty()
	if !match {
		p.recover()
		return
	}
	// Re-execution protocol complete: the first memory operation after
	// rollback compared successfully; normal execution resumes
	// (Definition 11).
	p.stepping = false
	p.syncArmed = false
	p.phase = 0
}

// RunEvent implements sim.EventRunner: it fires a scheduled comparison
// decision from its EvDecide descriptor.
func (p *Pair) RunEvent(desc any) {
	d := desc.(*EvDecide)
	p.fireDecide(d.Gen, d.Match)
}

// QuiesceWake implements sim.Tickable. After a Tick the matching loop has
// drained at least one side, so the only remaining self-driven work is
// the divergence watchdog: with one side lonely and the stamp taken, the
// forced recovery fires at a known cycle. A fresh send since the last
// Tick (either side) means matching or stamping work remains next cycle.
func (p *Pair) QuiesceWake() (int64, bool) {
	v := p.sides[0].sentHead < len(p.sides[0].sent)
	m := p.sides[1].sentHead < len(p.sides[1].sent)
	switch {
	case v && m:
		return 0, false // unmatched sends on both sides: match next tick
	case v != m && p.lonelySince >= 0:
		return p.lonelySince + p.Timeout + 1, true
	case v != m:
		return 0, false // lonely but not yet stamped: tick to stamp
	}
	return 0, true
}

// AccountIdle implements sim.Tickable: the pair keeps no per-cycle
// counters.
func (p *Pair) AccountIdle(int64) {}

// recover performs rollback recovery (Definition 8) and arms the
// re-execution protocol (Definition 11). Called at fingerprint mismatch,
// sync-address divergence, or watchdog timeout.
func (p *Pair) recover() {
	if p.VocalC.Failed() {
		return
	}
	p.gen++
	if p.stepping {
		p.phase++
	} else {
		p.phase = 1
	}
	p.Stats.Recoveries++
	if p.pendingFault {
		p.Stats.FaultEvents++
		p.pendingFault = false
		if p.OnFaultDetected != nil {
			p.OnFaultDetected()
		}
	} else {
		p.Stats.IncoherenceEvents++
	}
	p.sides[0] = pairSide{}
	p.sides[1] = pairSide{}
	// Outstanding synchronizing requests from before this recovery will
	// never be answered (the controller drops stale tokens): abort their
	// L1-side MSHRs and invalidate them at the controller.
	p.L2.CancelSync(p.ID, p.gen)
	if p.syncIssued[0] {
		p.VocalC.L1D.AbortMiss(p.syncBlock)
	}
	if p.syncIssued[1] {
		p.MuteC.L1D.AbortMiss(p.syncBlock)
	}
	p.syncBlockSet = false
	p.syncIssued = [2]bool{}
	p.syncDone = 0
	p.lonelySince = -1

	if p.phase > 2 {
		// Phase 2 already copied the vocal's safe state and comparison
		// still fails: the error is in safe state (e.g., aliased past the
		// fingerprint). Signal a detected, unrecoverable error (§4.3).
		p.Stats.Failures++
		p.VocalC.MarkFailed()
		p.MuteC.MarkFailed()
		return
	}
	if p.phase == 2 {
		// Mute register initialization from the vocal (Definition 9).
		p.Stats.Phase2++
		p.MuteC.SetARF(p.VocalC.ARF())
		seq, pc := p.VocalC.CommitPoint()
		p.MuteC.SetCommitPoint(seq, pc)
	}
	p.VocalC.SquashAll()
	p.MuteC.SquashAll()
	p.stepping = true
	p.syncArmed = true
	if p.OnRecovery != nil {
		seq, pc := p.VocalC.CommitPoint()
		p.OnRecovery(Recovery{Phase: p.phase, Seq: seq, PC: pc})
	}
}

// DebugString dumps pair internals for wedge diagnosis. No simulator
// code calls it; it stays exported for the root package's liveness
// tests (TestDebugWedge, runToHalt), which print it when a run wedges.
func (p *Pair) DebugString() string {
	return fmt.Sprintf("%v gen=%d phase=%d stepping=%v armed=%v syncIssued=%v syncDone=%d sent=[%d,%d] decided=[%d,%d] stats=%+v",
		p, p.gen, p.phase, p.stepping, p.syncArmed, p.syncIssued, p.syncDone,
		len(p.sides[0].sent)-p.sides[0].sentHead, len(p.sides[1].sent)-p.sides[1].sentHead,
		p.sides[0].decided.len(), p.sides[1].decided.len(), p.Stats)
}

// FinalizeReady implements cpu.Gate.
func (p *Pair) FinalizeReady(c *cpu.Core, e *cpu.Entry) bool {
	return p.sides[p.sideOf(c)].decided.ready(p.EQ.Now(), e.Seq)
}

// RetireWake implements cpu.Gate: an offered head retires at the cycle
// its interval's queued decision (or an overtaking younger one) is due.
// With none queued yet the head waits for the pair to match its
// interval, and that Tick marks the core dirty.
func (p *Pair) RetireWake(c *cpu.Core, e *cpu.Entry) int64 {
	return p.sides[p.sideOf(c)].decided.wake(e.Seq)
}

// Stepping implements cpu.Gate.
func (p *Pair) Stepping(*cpu.Core) bool { return p.stepping }

// SyncArmed implements cpu.Gate.
func (p *Pair) SyncArmed(*cpu.Core) bool { return p.syncArmed }

// SyncIssue implements cpu.Gate: route this side's synchronizing request
// through its L1 to the shared cache controller, which combines the
// pair's two requests into one coherent transaction and replies to both
// atomically (Definition 10).
func (p *Pair) SyncIssue(c *cpu.Core, block uint64, word int, cb cache.CB) bool {
	side := p.sideOf(c)
	if p.syncIssued[side] {
		return false
	}
	if p.syncBlockSet && p.syncBlock != block {
		// The two sides disagree on the first memory address after
		// rollback: architectural state diverged (possible only past a
		// fingerprint alias). Escalate instead of deadlocking.
		p.recover()
		return false
	}
	inner := cb // heap-allocated here, past the early refusals
	wcb := cache.CB{Kind: cache.CBSyncWrap, Pair: p.ID, Gen: p.gen, Inner: &inner}
	if !c.L1D.SyncFill(block, word, p.gen, wcb) {
		return false
	}
	p.syncBlock, p.syncBlockSet = block, true
	p.syncIssued[side] = true
	if c.Vocal {
		p.Stats.SyncRequests++
	}
	return true
}

// SyncDone implements cpu.Gate: under the generation guard it counts the
// pair's completed synchronizing fills; both done resets the sync
// bookkeeping. The core then completes its own wrapped descriptor.
func (p *Pair) SyncDone(_ *cpu.Core, gen int64) {
	if p.gen != gen {
		return
	}
	p.syncDone++
	if p.syncDone == 2 {
		p.syncBlockSet = false
		p.syncIssued = [2]bool{}
		p.syncDone = 0
	}
}

// DeviceRead implements cpu.Gate: device values are replicated to both
// members of the pair (the vocal issues the real uncached access; the mute
// observes the same value after output comparison of the address).
func (p *Pair) DeviceRead(c *cpu.Core, addr uint64, n int64) int64 {
	return deviceValue(p.DevSalt^uint64(p.ID), addr, n)
}

// String identifies the pair.
func (p *Pair) String() string { return fmt.Sprintf("pair%d", p.ID) }
