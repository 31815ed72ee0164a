package reunion

import (
	"fmt"
	"strings"

	"reunion/internal/core"
	"reunion/internal/fault"
	"reunion/internal/stats"
	"reunion/internal/workload"
)

// Options configures one measured simulation run: which program, under
// which execution model, on which machine (Config), and over which
// window. Start from DefaultOptions: every field runs as given, zero
// included.
type Options struct {
	// Mode selects the execution model (DefaultOptions: non-redundant).
	Mode Mode
	// Workload is the program profile to run (see internal/workload.Suite).
	Workload workload.Params
	// Seed drives workload generation; matched-pair comparisons run the
	// same seed under different modes.
	Seed uint64
	// WarmCycles and MeasureCycles size the sampling window
	// (DefaultOptions: 100k/50k, the paper's §5 methodology).
	WarmCycles    int64
	MeasureCycles int64
	// Config is the machine (DefaultOptions: DefaultConfig, the paper's
	// Table 1). Config.LogicalProcessors is the workload's thread count;
	// the evaluation's axes (comparison latency, phantom strength, TLB
	// discipline, consistency, fingerprint interval, ROB window, topology)
	// and the kernel are Config fields, and the whole Config is part of
	// the warm key.
	Config Config

	// Inject arms one precise single-shot fault (fault-injection campaign
	// trials): bit Inject.Bit of the next register-writing result entering
	// check on core Inject.Core is flipped, arming Inject.Cycle cycles
	// after the measurement window starts.
	Inject *fault.Injection
	// CommitTarget, when positive, switches the measurement phase from a
	// fixed cycle window to "run until every vocal core has committed this
	// many instructions", latching each core's commit digest exactly at
	// that boundary (DefaultOptions: 0, the fixed window). Fault trials
	// are classified on this digest: a recovered run loses cycles, not
	// instructions, so only an instruction-precise boundary compares
	// corruption rather than timing.
	CommitTarget int64
	// TrialDeadline bounds the measurement phase in cycles when
	// CommitTarget is set (DefaultOptions: 200k). A trial past its
	// deadline is a terminal DUE outcome, never a retry.
	TrialDeadline int64

	// TraceEvents, when positive, records the last TraceEvents pair
	// events (comparison mismatches and recoveries) of the measurement
	// phase and returns them formatted in Result.TraceDump
	// (DefaultOptions: 0, none). Diagnostics only: it is
	// deliberately excluded from the warm, golden, and checkpoint keys —
	// a traced run shares warm state with untraced runs and produces
	// bit-identical results.
	TraceEvents int

	// Warm, when set, reuses checkpointed warm state across runs: the
	// first run for a given warm key (every option that shapes the system
	// from construction through the warmup window) builds, prefills and
	// warms a system, snapshots it at the measurement boundary, and every
	// later run with the same key restores that snapshot instead of
	// re-warming. Results are bit-identical to fresh runs — only host
	// time changes. Share one cache across a sweep matrix or a
	// fault-injection campaign; it is safe for concurrent use (runs that
	// share warm state take turns on it, distinct keys run in parallel;
	// a campaign gives concurrent workers different cells, so its trials
	// take turns only once no other cell has work left).
	Warm *WarmCache
}

// DefaultOptions returns the paper's evaluation setup: the Table 1
// machine (DefaultConfig: 4 logical processors, 10-cycle comparison
// latency, a fingerprint compared every instruction), the §5 sampling
// window and seed 0x5eed. With DefaultConfig it is the one place a
// default is written: a zero in Options is never replaced by one.
func DefaultOptions() Options {
	return Options{
		Seed:          0x5eed,
		WarmCycles:    100_000,
		MeasureCycles: 50_000,
		Config:        DefaultConfig(),
		TrialDeadline: 200_000,
	}
}

// Validate is the one range check of Options, which Run, TrialRunner and
// the CLIs' matrix builders reach. A value that can run (seed 0, a
// zero-cycle latency) runs as given; one that cannot is an error.
func (o Options) Validate() error {
	if !o.Config.L2.Phantom.Valid() {
		return fmt.Errorf("reunion: phantom strength %d is not null, shared or global", o.Config.L2.Phantom)
	}
	for _, c := range []struct {
		name   string
		v, min int64
	}{
		{"logical processors", int64(o.Config.LogicalProcessors), 1},
		{"comparison latency", o.Config.CompareLatency, 0},
		{"fingerprint interval", int64(o.Config.Core.FPInterval), 1},
		{"interrupt interval", o.Config.InterruptEvery, 0},
		{"interrupt cost", o.Config.InterruptCost, 0},
		{"warm cycles", o.WarmCycles, 1},
		{"measure cycles", o.MeasureCycles, 1},
		{"commit target", o.CommitTarget, 0},
		{"trial deadline", o.TrialDeadline, 1},
		{"trace events", int64(o.TraceEvents), 0},
	} {
		if c.v < c.min {
			return fmt.Errorf("reunion: %s %d is below %d", c.name, c.v, c.min)
		}
	}
	return nil
}

// Result reports the measured statistics of one run.
type Result struct {
	Mode                            Mode
	Workload                        string
	Cycles                          int64
	Committed                       int64   // user instructions retired (vocal cores)
	UserIPC                         float64 // aggregate user instructions per cycle (the paper's metric)
	CommittedLoads, CommittedStores int64

	// Redundancy events (ModeReunion).
	Recoveries        int64
	IncoherenceEvents int64
	FaultEvents       int64
	SyncRequests      int64
	Phase2            int64
	Failures          int64
	Compares          int64
	Timeouts          int64

	// Memory system.
	TLBMisses      int64 // I+D, vocal cores
	L1DMisses      int64
	L1DHits        int64
	L2Misses       int64
	L2Hits         int64
	PhantomGarbage int64
	MemAccesses    int64

	// Per-million rates (relative to Committed).
	IncoherencePerM float64
	TLBMissPerM     float64

	Serializing int64
	Mispredicts int64

	// Overhead attribution (vocal cores, per-cycle averages / totals).
	AvgROBOccupancy   float64 // mean occupied RUU entries per cycle
	AvgCheckOccupancy float64 // mean offered-but-unretired entries per cycle
	SerIssueStalls    int64   // issue-slot stalls behind serializing fences
	CompareWaitVocal  int64   // cycles the vocal's fingerprints waited for the mute
	CompareWaitMute   int64   // cycles the mute's fingerprints waited for the vocal

	// Fault-injection observability (populated by trial runs: Options with
	// Inject and/or CommitTarget set).
	FaultArmed         bool  // the arm event found a live core
	FaultFired         bool  // the flip was consumed by an instruction entering check
	FaultFireCycle     int64 // measurement-relative consumption cycle (-1 if unfired)
	FaultFireInstr     int64 // target pair's vocal committed count at consumption
	FaultDetected      bool  // a recovery was attributed to the injected fault
	DetectLatency      int64 // cycles from consumption to that recovery (-1 if undetected)
	DetectLatencyInstr int64 // committed instructions over the same span
	FaultRetired       int64 // flipped results that reached architectural state
	FaultSquashed      int64 // flipped results discarded by rollback or squash
	Unrecoverable      bool  // a pair signalled a detected, unrecoverable error
	TrialComplete      bool  // every vocal core reached the commit target
	TrialCycles        int64 // cycles the measurement phase actually ran
	CommitDigest       uint64
	DigestOK           bool
	ArchDigest         uint64 // point-in-time state hash; golden (uninjected) trial runs only

	// TraceDump holds the last pair events of the measurement phase, one
	// line each, oldest first, when Options.TraceEvents was set (diagnostics;
	// empty otherwise). It never participates in serialized records or
	// digests.
	TraceDump string
}

// Run executes one measured simulation: build, prefill, warm, measure.
// With Options.Warm set, the build/prefill/warm phase is served from the
// checkpointed warm-state cache (bit-identical results, less host time).
func Run(o Options) (Result, error) {
	if err := o.Validate(); err != nil {
		return Result{}, err
	}
	if o.Warm != nil {
		return o.Warm.run(o)
	}
	return measure(warmSystem(o), o)
}

// buildSystem assembles a cold system for the options, without prefill or
// warmup. The checkpoint-store fetch path uses it directly: a fetched
// checkpoint binds and restores onto a freshly built machine, which must
// be constructed exactly as the warmed original was.
func buildSystem(o Options) *System {
	return NewSystem(o.Config, o.Mode, o.Workload.Build(o.Seed, o.Config.LogicalProcessors), o.Seed)
}

// warmSystem builds a system for the options and runs it through the
// warmup window (the phase a WarmCache checkpoints and reuses).
func warmSystem(o Options) *System {
	sys := buildSystem(o)
	sys.Prefill()
	sys.Run(o.WarmCycles)
	return sys
}

// measure runs the measurement phase on a warmed system: statistics reset
// at the boundary, then either the plain fixed-window path or the
// fault-injection trial path. With Options.TraceEvents set, an eventLog
// observes the phase through the pair hooks and its lines land in
// Result.TraceDump. The hooks stay on the system until its next Restore,
// which puts back the snapshot's (a warm cache restores before every
// run), so tracing one run never leaks into the next. Observing changes
// no simulated state.
func measure(sys *System, o Options) (Result, error) {
	var events *eventLog
	if o.TraceEvents > 0 {
		events = observePairs(sys, o.TraceEvents)
	}
	sys.ResetStats()
	res, err := func() (Result, error) {
		if o.Inject != nil || o.CommitTarget > 0 {
			return runTrial(sys, o)
		}
		sys.Run(o.MeasureCycles)
		if sys.Failed() {
			return Result{}, fmt.Errorf("reunion: unrecoverable failure in %s under %v", sys.W.Name, o.Mode)
		}
		return Collect(sys, o.MeasureCycles), nil
	}()
	if events != nil && err == nil {
		res.TraceDump = events.String()
	}
	return res, err
}

// eventLog keeps the last cap(lines) pair events, one formatted line
// each: "[cycle] coreN category message".
type eventLog struct {
	lines []string // a ring once full: lines[next] is the oldest
	next  int
}

// observePairs installs the mismatch and recovery hooks of every pair of
// sys, feeding one eventLog of the given capacity.
func observePairs(sys *System, capacity int) *eventLog {
	l := &eventLog{lines: make([]string, 0, capacity)}
	for _, p := range sys.Pairs {
		p.OnMismatch = func(m core.Mismatch) {
			l.add(sys.EQ.Now(), p.VocalC.ID, "compare", fmt.Sprintf("mismatch endSeq=%d fp=%04x/%04x stepping=%v",
				m.EndSeq, m.VocalFP, m.MuteFP, m.Stepping))
		}
		p.OnRecovery = func(r core.Recovery) {
			l.add(sys.EQ.Now(), p.VocalC.ID, "recovery", fmt.Sprintf("phase=%d restart seq=%d pc=%d", r.Phase, r.Seq, r.PC))
		}
	}
	return l
}

func (l *eventLog) add(cycle int64, coreID int, category, msg string) {
	line := fmt.Sprintf("[%10d] core%-2d %-8s %s\n", cycle, coreID, category, msg)
	if len(l.lines) < cap(l.lines) {
		l.lines = append(l.lines, line)
		return
	}
	l.lines[l.next] = line
	l.next = (l.next + 1) % len(l.lines)
}

// String returns the held lines, newest last.
func (l *eventLog) String() string {
	return strings.Join(l.lines[l.next:], "") + strings.Join(l.lines[:l.next], "")
}

// runTrial runs the measurement phase of a fault-injection trial (or of
// its fault-free golden reference): the fault is armed at its
// measurement-relative cycle, detection is observed through the pair
// hooks, and the run ends at the commit-target boundary, an unrecoverable
// failure, or the trial deadline — always a terminal outcome. Unlike the
// plain path, an unrecoverable failure is reported in the Result
// (classification needs it), not as an error.
func runTrial(sys *System, o Options) (Result, error) {
	measStart := sys.EQ.Now()
	var shot *fault.Shot
	var fireInstr int64
	var detected bool
	var detectCycle, detectInstr int64
	if o.Inject != nil {
		inj := *o.Inject
		if inj.Core < 0 || inj.Core >= len(sys.Cores) {
			return Result{}, fmt.Errorf("reunion: inject core %d out of range [0,%d)", inj.Core, len(sys.Cores))
		}
		target := sys.Cores[inj.Core]
		arch := target
		if !arch.Vocal {
			arch = sys.Pairs[target.Pair].VocalC
		}
		inj.Cycle += measStart
		shot = inj.Arm(sys.EQ, target, func(int64) { fireInstr = arch.Stats.Committed })
		for _, p := range sys.Pairs {
			p := p
			p.OnFaultDetected = func() {
				if detected {
					return
				}
				detected = true
				detectCycle = sys.EQ.Now()
				detectInstr = p.VocalC.Stats.Committed
			}
		}
	}

	var ran int64
	if o.CommitTarget > 0 {
		sys.ArmCommitDigests(o.CommitTarget)
		ran, _ = sys.RunUntilDone(o.TrialDeadline, func() bool {
			return sys.DigestsDone() || sys.Failed()
		})
	} else {
		sys.Run(o.MeasureCycles)
		ran = o.MeasureCycles
	}

	r := Collect(sys, ran)
	r.TrialCycles = ran
	r.Unrecoverable = sys.Failed()
	r.CommitDigest, r.DigestOK = sys.CommitDigest()
	r.TrialComplete = o.CommitTarget > 0 && sys.DigestsDone() && !r.Unrecoverable
	if o.Inject == nil {
		// The full architectural-state walk (register files + dirty lines)
		// is a per-cell diagnostic, not a per-trial classifier: compute it
		// for golden references only, off the campaign's trial hot path.
		r.ArchDigest = sys.ArchDigest()
	}
	r.FaultFireCycle, r.DetectLatency = -1, -1
	if shot != nil {
		r.FaultArmed, r.FaultFired = shot.Armed, shot.Fired
		if shot.Fired {
			r.FaultFireCycle = shot.FiredAt - measStart
			r.FaultFireInstr = fireInstr
		}
		if detected {
			r.FaultDetected = true
			r.DetectLatency = detectCycle - shot.FiredAt
			r.DetectLatencyInstr = detectInstr - fireInstr
		}
		for _, c := range sys.Cores {
			r.FaultRetired += c.FaultRetired
			r.FaultSquashed += c.FaultSquashed
		}
	}
	return r, nil
}

// Collect gathers a Result from a system after a measurement window.
func Collect(sys *System, cycles int64) Result {
	r := Result{Mode: sys.Mode, Workload: sys.W.Name, Cycles: cycles}
	var occ, checkOcc, coreCycles int64
	for _, c := range sys.VocalCores() {
		r.Committed += c.Stats.Committed
		r.CommittedLoads += c.Stats.CommittedLoads
		r.CommittedStores += c.Stats.CommittedStores
		r.TLBMisses += c.Stats.ITLBMisses + c.Stats.DTLBMisses
		r.Serializing += c.Stats.Serializing
		r.Mispredicts += c.Stats.Mispredicts
		r.L1DMisses += c.L1D.Misses
		r.L1DHits += c.L1D.Hits
		r.SerIssueStalls += c.Stats.IssueStallSer
		occ += c.Stats.ROBOccupancy
		checkOcc += c.Stats.CheckOccupancy
		coreCycles += c.Stats.Cycles
	}
	if coreCycles > 0 {
		r.AvgROBOccupancy = float64(occ) / float64(coreCycles)
		r.AvgCheckOccupancy = float64(checkOcc) / float64(coreCycles)
	}
	for _, p := range sys.Pairs {
		r.Recoveries += p.Stats.Recoveries
		r.IncoherenceEvents += p.Stats.IncoherenceEvents
		r.FaultEvents += p.Stats.FaultEvents
		r.SyncRequests += p.Stats.SyncRequests
		r.Phase2 += p.Stats.Phase2
		r.Failures += p.Stats.Failures
		r.Compares += p.Stats.Compares
		r.Timeouts += p.Stats.Timeouts
		r.CompareWaitVocal += p.Stats.CompareWaitVocal
		r.CompareWaitMute += p.Stats.CompareWaitMute
	}
	if sys.L2 != nil {
		r.L2Hits = sys.L2.HitsL2
		r.L2Misses = sys.L2.MissesL2
		r.PhantomGarbage = sys.L2.PhantomGarbage
		r.MemAccesses = sys.L2.MemAccesses
	} else if sys.Bus != nil {
		r.PhantomGarbage = sys.Bus.PhantomGarbage
		r.MemAccesses = sys.Bus.MemAccesses
	}
	if cycles > 0 {
		r.UserIPC = float64(r.Committed) / float64(cycles)
	}
	r.IncoherencePerM = stats.PerMillion(r.IncoherenceEvents, r.Committed)
	r.TLBMissPerM = stats.PerMillion(r.TLBMisses, r.Committed)
	return r
}

// Metrics flattens the result into named scalar metrics, the form the
// sweep sinks (JSON Lines, CSV) serialize. Keys are stable across runs,
// so a results file is diffable and trackable over time.
func (r Result) Metrics() map[string]float64 {
	return map[string]float64{
		"cycles":              float64(r.Cycles),
		"committed":           float64(r.Committed),
		"user_ipc":            r.UserIPC,
		"committed_loads":     float64(r.CommittedLoads),
		"committed_stores":    float64(r.CommittedStores),
		"recoveries":          float64(r.Recoveries),
		"incoherence_events":  float64(r.IncoherenceEvents),
		"fault_events":        float64(r.FaultEvents),
		"sync_requests":       float64(r.SyncRequests),
		"phase2":              float64(r.Phase2),
		"failures":            float64(r.Failures),
		"compares":            float64(r.Compares),
		"timeouts":            float64(r.Timeouts),
		"tlb_misses":          float64(r.TLBMisses),
		"l1d_misses":          float64(r.L1DMisses),
		"l1d_hits":            float64(r.L1DHits),
		"l2_misses":           float64(r.L2Misses),
		"l2_hits":             float64(r.L2Hits),
		"phantom_garbage":     float64(r.PhantomGarbage),
		"mem_accesses":        float64(r.MemAccesses),
		"incoherence_per_m":   r.IncoherencePerM,
		"tlb_miss_per_m":      r.TLBMissPerM,
		"serializing":         float64(r.Serializing),
		"mispredicts":         float64(r.Mispredicts),
		"avg_rob_occupancy":   r.AvgROBOccupancy,
		"avg_check_occupancy": r.AvgCheckOccupancy,
		"ser_issue_stalls":    float64(r.SerIssueStalls),
		"compare_wait_vocal":  float64(r.CompareWaitVocal),
		"compare_wait_mute":   float64(r.CompareWaitMute),
	}
}

// Comparison is the outcome of a matched-pair normalized-performance
// measurement: the test mode's IPC relative to a baseline across seeds.
type Comparison struct {
	Workload   string
	Normalized float64 // mean test/baseline IPC ratio
	CI         float64 // 95% confidence half-width
	Base, Test []Result
}

// Compare measures test-vs-baseline normalized IPC over the given seeds
// using matched pairs (same seed, same workload in both runs), the
// paper's methodology.
func Compare(base, test Options, seeds []uint64) (Comparison, error) {
	return compare(base, test, seeds, Run)
}

// compare is Compare with the baseline runs served by runBase (an
// experiment campaign's memo).
func compare(base, test Options, seeds []uint64, runBase func(Options) (Result, error)) (Comparison, error) {
	var mp stats.MatchedPair
	cmp := Comparison{Workload: base.Workload.Name}
	for _, seed := range seeds {
		b := base
		b.Seed = seed
		t := test
		t.Seed = seed
		br, err := runBase(b)
		if err != nil {
			return cmp, err
		}
		tr, err := Run(t)
		if err != nil {
			return cmp, err
		}
		mp.Add(br.UserIPC, tr.UserIPC)
		cmp.Base = append(cmp.Base, br)
		cmp.Test = append(cmp.Test, tr)
	}
	cmp.Normalized = mp.Mean()
	cmp.CI = mp.CI()
	return cmp, nil
}

// DefaultSeeds returns n distinct measurement seeds.
func DefaultSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = 0x1234_5678_9abc_def0 + uint64(i)*0x1111
	}
	return s
}
