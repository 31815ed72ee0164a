// Package fault provides soft-error injection against the Reunion
// execution model, in two forms.
//
// The paper's fault model (§2.1) targets transient bit flips in the
// unprotected processor datapath between fetch and retirement. Campaign
// arms Poisson-ish streams of single-bit flips on randomly chosen cores
// at randomly chosen cycles — the long-running soak used by the
// faultinjection example — while Injection arms exactly one flip at an
// exact cycle on an exact core and bit, which is what a Monte-Carlo
// classification campaign (internal/campaign) needs: every trial's fault
// is a pure function of the trial's draw, so outcomes are reproducible
// and attributable.
//
// Every injected fault must either be detected by output comparison (and
// recovered by rollback + re-execution) or be architecturally masked (the
// flipped result was never consumed — e.g., the instruction was squashed,
// or the fault was still armed when the core halted). The paper does not
// inject faults in its evaluation; this package provides the machinery
// that evaluation assumes.
package fault

import (
	"reunion/internal/cpu"
	"reunion/internal/sim"
)

// Campaign drives continuous fault injection into a set of cores.
type Campaign struct {
	rng   *sim.Rand
	cores []*cpu.Core

	// MeanInterval is the mean number of cycles between injections,
	// clamped to at least 2 so the inter-injection gap is always positive
	// (a non-positive or unit mean would degenerate to zero-gap
	// re-injection, or panic in the RNG).
	MeanInterval int64

	nextAt int64

	Injected int64
	Fired    int64
	// MaskedArmed counts faults that were armed but can never fire because
	// their core halted first: the flip never reached the datapath, so they
	// are architecturally masked by definition.
	MaskedArmed int64
}

// NewCampaign builds an injector over the given cores. meanInterval is
// clamped to a minimum of 2 cycles.
func NewCampaign(seed uint64, meanInterval int64, cores []*cpu.Core) *Campaign {
	if meanInterval < 2 {
		meanInterval = 2
	}
	c := &Campaign{rng: sim.NewRand(seed), cores: cores, MeanInterval: meanInterval}
	for _, core := range cores {
		prev := core.OnFaultFired
		core.OnFaultFired = func() {
			c.Fired++
			if prev != nil {
				prev()
			}
		}
	}
	c.schedule(0)
	return c
}

func (c *Campaign) schedule(now int64) {
	// Geometric-ish spacing around the mean, deterministic from the seed.
	// The gap is at least one cycle: re-injecting in the same cycle would
	// arm the same core twice with only one observable flip.
	gap := c.MeanInterval/2 + int64(c.rng.Intn(int(c.MeanInterval)))
	if gap < 1 {
		gap = 1
	}
	c.nextAt = now + gap
}

// Tick arms a fault when the next injection time arrives, and retires
// armed-but-unfireable faults (core halted) into MaskedArmed. Call once
// per cycle alongside the system tick.
func (c *Campaign) Tick(now int64) {
	if c.Pending() > 0 {
		for _, core := range c.cores {
			if core.Halted() && core.DisarmFault() {
				c.MaskedArmed++
			}
		}
	}
	if now < c.nextAt {
		return
	}
	core := c.cores[c.rng.Intn(len(c.cores))]
	if !core.Halted() && !core.FaultPending() {
		core.ArmFault(uint(c.rng.Intn(64)))
		c.Injected++
	}
	c.schedule(now)
}

// Pending reports how many armed faults have neither fired nor been
// retired as masked.
func (c *Campaign) Pending() int64 { return c.Injected - c.Fired - c.MaskedArmed }

// Injection specifies one precise single-shot fault: flip bit Bit of the
// result of the next register-writing instruction entering the check
// stage on core Core, arming at absolute cycle Cycle.
type Injection struct {
	Core  int   // index into the system's core slice
	Cycle int64 // absolute arm cycle (callers add their measurement offset)
	Bit   uint  // result bit to flip (mod 64)
}

// Shot observes the fate of one armed Injection. It is also the runner
// of the arm event.
type Shot struct {
	Injection Injection

	// Armed reports that the arm event fired (the target had not halted).
	Armed bool
	// Fired reports that the flip was consumed by an instruction entering
	// check. FiredAt is the absolute cycle of consumption (-1 until then).
	Fired   bool
	FiredAt int64

	eq     *sim.EventQueue
	target *cpu.Core
	onFire func(now int64)
}

// evArm is the arm event's descriptor. It carries nothing, since the Shot
// that runs it holds the injection, and it has no wire form, so the
// checkpoint encoder refuses a machine with an armed shot still pending.
type evArm struct{}

// Arm schedules the injection on the event queue: at Cycle the target is
// armed (unless it has halted, or already carries an armed fault), and the
// first consumption is recorded. onFire, if non-nil, observes the flip the
// cycle it happens — before any detection machinery reacts — so callers
// can latch progress counters for detection-latency measurement. The
// target's pre-existing OnFaultFired hook (e.g. the pair's fault
// attribution) keeps running.
func (i Injection) Arm(eq *sim.EventQueue, target *cpu.Core, onFire func(now int64)) *Shot {
	s := &Shot{Injection: i, FiredAt: -1, eq: eq, target: target, onFire: onFire}
	eq.AtR(i.Cycle, evArm{}, s)
	return s
}

// RunEvent implements sim.EventRunner: the arm event.
func (s *Shot) RunEvent(any) {
	target := s.target
	if target.Halted() || target.FaultPending() {
		return
	}
	prev := target.OnFaultFired
	target.OnFaultFired = func() {
		if !s.Fired {
			s.Fired = true
			s.FiredAt = s.eq.Now()
			if s.onFire != nil {
				s.onFire(s.FiredAt)
			}
		}
		if prev != nil {
			prev()
		}
	}
	target.ArmFault(s.Injection.Bit)
	s.Armed = true
}

// Unfired reports whether the shot never flipped a consumed result: the
// arm event found the core halted, or the armed fault was never consumed
// before the trial ended. Such faults are architecturally masked.
func (s *Shot) Unfired() bool { return !s.Fired }
