package reunion

import (
	"context"
	"fmt"

	"reunion/internal/campaign"
	"reunion/internal/fault"
	"reunion/internal/sweep"
)

// ValidateTrial is Validate for a fault-injection cell, which also needs
// the commit target its trials are classified at.
func (o Options) ValidateTrial() error {
	if o.CommitTarget < 1 {
		return fmt.Errorf("reunion: commit target %d is below 1 (a trial is classified at its commit-target boundary)", o.CommitTarget)
	}
	return o.Validate()
}

// trialKey fingerprints every option a golden (fault-free) trial run
// depends on — the warm key plus the trial's measurement phase — so one
// golden reference serves all trials of a cell. Like the sweep's
// baseline cache, distinct cells never share an entry and concurrent
// trials of one cell singleflight onto the same run.
func trialKey(o Options) string {
	return fmt.Sprintf("%s|%d|%d", warmKey(o), o.CommitTarget, o.TrialDeadline)
}

// TrialRunner returns the campaign trial-execution function over Run: it
// resolves each trial's draw against the cell's core count, arms the
// single-shot fault, and reports the observation the classifier needs,
// comparing against a memoized golden run of the same cell. The returned
// function is safe for concurrent use across trials; golden runs are
// computed once per cell behind a singleflight.
//
// Warm state is checkpointed per cell in warm and shared campaign-wide:
// the golden run warms the cell's system once and snapshots it at the
// measurement boundary, and every injected trial of that cell restores
// the snapshot instead of re-warming from cycle 0 — bit-identical
// classification, several times less host time. The cache is lazy, which
// is what makes sharded campaigns warm-local: under the dist layer's
// contiguous plans a shard's trials land on the fewest possible cells,
// so each worker process warms exactly the checkpoints its own cells
// need (asserted via WarmCache.Len in the shard byte-identity tests).
// One cache can serve several engines of the same campaign, e.g. a
// resumed shard's second Engine run.
//
// A cell that fails ValidateTrial is an error observation. When the
// cell's TraceEvents is positive, each injected run records its last
// TraceEvents recovery/mismatch events and the formatted dump reaches
// the Observation's Diag field — where the inject CLI's -trace-dump flag
// prints it for SDC and DUE trials. Only reunion cells record events
// (they come from the pairs' hooks). Golden runs stay untraced. Tracing is a
// pure observer (Options.TraceEvents is excluded from every cache key),
// so traced and untraced campaigns produce byte-identical result streams.
func TrialRunner(model campaign.FaultModel, warm *WarmCache) func(ctx context.Context, cell sweep.Point[Options], t campaign.Trial) campaign.Observation {
	golden := newMemo[Result]()
	return func(_ context.Context, cell sweep.Point[Options], t campaign.Trial) campaign.Observation {
		o := cell.Config
		if err := o.ValidateTrial(); err != nil {
			return campaign.Observation{Err: err}
		}
		traceEvents := o.TraceEvents
		o.Inject, o.Warm, o.TraceEvents = nil, warm, 0
		g, err := golden.do(trialKey(o), func() (Result, error) {
			r, err := Run(o)
			if err == nil && !r.DigestOK {
				err = fmt.Errorf("reunion: golden run hit the trial deadline before commit target %d (unrecoverable=%v)",
					o.CommitTarget, r.Unrecoverable)
			}
			return r, err
		})
		if err != nil {
			return campaign.Observation{Err: fmt.Errorf("golden: %w", err)}
		}
		// Faults target mutes too: one must be detected like a vocal.
		n := o.Config.LogicalProcessors
		if o.Mode == ModeReunion {
			n *= 2
		}
		if model.Cores > 0 && model.Cores < n {
			n = model.Cores
		}
		inj := fault.Injection{Core: t.Core(n), Cycle: t.Cycle, Bit: t.Bit}
		o.Inject = &inj
		o.TraceEvents = traceEvents
		res, err := Run(o)
		if err != nil {
			return campaign.Observation{Err: err}
		}
		return campaign.Observation{
			Diag:          res.TraceDump,
			Unrecoverable: res.Unrecoverable,
			Completed:     res.TrialComplete,
			Armed:         res.FaultArmed,
			Fired:         res.FaultFired,
			FireCycle:     res.FaultFireCycle,
			Detected:      res.FaultDetected,
			LatencyCycles: res.DetectLatency,
			LatencyInstrs: res.DetectLatencyInstr,
			Digest:        res.CommitDigest,
			GoldenDigest:  g.CommitDigest,
			DigestOK:      res.DigestOK && g.DigestOK,
			Core:          inj.Core,
			Retired:       res.FaultRetired,
			Squashed:      res.FaultSquashed,
		}
	}
}
