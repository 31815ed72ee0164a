// Package campaign is the Monte-Carlo fault-injection campaign engine:
// it turns the repository from an IPC reproducer into a dependability-
// measurement system by injecting one precise single-bit fault per trial
// and classifying every outcome.
//
// A Spec declares the fault model (flip-bit range, injection-cycle window,
// cores under test), the trial count per cell, and the cell matrix —
// workload/mode/seed axes expressed as an internal/sweep cross product.
// The engine flattens cells × trials into one sweep matrix and runs it on
// sweep's worker pool, so trial streams inherit the sweep engine's
// guarantees: deterministic enumeration, panic isolation, and in-order
// emission that makes the JSONL results file byte-identical at any
// parallelism.
//
// Every trial's injection is a pure function of the campaign seed and the
// trial's cell coordinates (minus the axes named in StreamExclude), never
// of scheduling. Excluding an axis — typically the execution mode — makes
// cells that differ only on that axis face the *same fault stream*, which
// is what turns "Reunion has zero SDCs, non-redundant does not" from an
// anecdote into a controlled comparison.
//
// Each trial is classified against a fault-free golden run of the same
// seed into exactly one outcome:
//
//   - Masked: the fault never reached architectural state — it was never
//     consumed, or its flipped value died before influencing the committed
//     stream (commit digest matches golden).
//   - Detected: the fingerprint comparison caught the flip and rollback
//     recovery restored correct execution; the trial records its detection
//     latency in cycles and committed instructions.
//   - SDC: silent data corruption — the trial completed but its committed
//     stream diverged from golden with no detection.
//   - DUE: detected-unrecoverable or lost — an unrecoverable pair failure,
//     a run error, or the trial deadline. Terminal, never retried (the
//     kilroy postmortem's lesson for campaign runners).
package campaign

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"reunion/internal/obs"
	"reunion/internal/sim"
	"reunion/internal/sweep"
)

// FaultModel bounds the Monte-Carlo draws of the single-fault trials.
type FaultModel struct {
	// BitLo/BitHi is the inclusive flip-bit range: 0..63 draws from the
	// whole 64-bit result, and the zero value flips bit 0 only.
	BitLo, BitHi uint
	// WindowLo/WindowHi is the injection-cycle window, measured from the
	// start of the measurement phase: each trial arms its fault at a cycle
	// in [WindowLo, WindowHi). An empty window (WindowHi <= WindowLo)
	// fails Spec.Validate.
	WindowLo, WindowHi int64
	// Cores caps the cores under test: trials target a core index in
	// [0, Cores). Zero means every core of the cell's system — the trial
	// runner maps the draw onto the cell's actual core count (which
	// differs by mode: a Reunion cell has a vocal and a mute per logical
	// processor).
	Cores int
}

// Trial is one Monte-Carlo draw: which bit to flip, when to arm it, and a
// raw core draw the runner maps onto the cell's core count.
type Trial struct {
	Cell  int // cell index in the matrix
	Index int // trial index within the cell
	Bit   uint
	Cycle int64 // measurement-relative arm cycle

	coreDraw uint64
}

// Core maps the trial's core draw onto a system with n cores.
func (t Trial) Core(n int) int {
	if n <= 0 {
		return 0
	}
	return int(t.coreDraw % uint64(n))
}

// Outcome is the terminal classification of one trial.
type Outcome uint8

// Trial outcomes. Every trial lands in exactly one.
const (
	Masked Outcome = iota
	Detected
	SDC
	DUE
	numOutcomes
)

// String names the outcome as the results-file label.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Detected:
		return "detected"
	case SDC:
		return "sdc"
	case DUE:
		return "due"
	}
	return "?"
}

// Observation is what the trial runner reports back for classification.
type Observation struct {
	// Err is any run failure (build error, panic, golden-run failure);
	// classified DUE.
	Err error
	// Unrecoverable reports a detected, unrecoverable error (phase-2
	// comparison mismatch); classified DUE.
	Unrecoverable bool
	// Completed reports that every vocal core reached the commit target
	// within the trial deadline; a false value is classified DUE.
	Completed bool
	// Armed/Fired track the injection's fate: armed at its cycle, and
	// consumed by a register-writing instruction entering check. An
	// unfired fault is architecturally masked.
	Armed, Fired bool
	FireCycle    int64
	// Detected reports a recovery attributed to the injected fault, with
	// its latency from consumption in cycles and committed instructions.
	Detected                     bool
	LatencyCycles, LatencyInstrs int64
	// Digest is the trial's commit digest; GoldenDigest the fault-free
	// reference for the same cell. DigestOK confirms both latched.
	Digest, GoldenDigest uint64
	DigestOK             bool
	// Core is the resolved target core index (observability only).
	Core int
	// Retired/Squashed count flipped results that reached architectural
	// state vs. were discarded by rollback or a pipeline flush.
	Retired, Squashed int64
	// Diag carries free-form diagnostic text (e.g. a pair event dump)
	// for live reporting of anomalous trials. It never enters the
	// sink record — diagnostics must not perturb the byte-stable results
	// stream.
	Diag string
}

// Classify maps an observation to its terminal outcome. Priority order:
// lost trials are DUE regardless of what else happened; a fault-attributed
// recovery on a completed trial is Detected; an unconsumed fault is Masked;
// otherwise the commit digest against golden separates Masked from SDC.
//
// A Detected claim does not override retired corruption: if the flipped
// result reached architectural state (Retired > 0 — it aliased past the
// fingerprint, so rollback could not undo it) and the digest diverged,
// the trial is SDC no matter what a later (misattributed) recovery
// claimed. Digest divergence with the flip squashed is NOT corruption —
// a recovered run re-executes with perturbed timing, and racy shared
// memory may legitimately commit different (valid) values than golden.
func Classify(o Observation) Outcome {
	switch {
	case o.Err != nil || o.Unrecoverable || !o.Completed || !o.DigestOK:
		return DUE
	case o.Detected && (o.Digest == o.GoldenDigest || o.Retired == 0):
		return Detected
	case o.Detected:
		return SDC
	case !o.Fired:
		return Masked
	case o.Digest == o.GoldenDigest:
		return Masked
	default:
		return SDC
	}
}

// Spec declares a campaign: the cell matrix, the fault model, and the
// Monte-Carlo parameters.
type Spec[C any] struct {
	// Matrix is the cell cross product (workload × mode × seed × …); its
	// Name names the campaign.
	Matrix sweep.Spec[C]
	Model  FaultModel
	// Trials is the number of injected trials per cell (at least 1).
	Trials int
	// Seed drives the per-trial injection draws.
	Seed uint64
	// StreamExclude names matrix axes whose value must NOT influence a
	// trial's injection draw, so cells differing only on those axes face
	// an identical fault stream (typically the execution-model axis).
	StreamExclude []string
}

// draw computes the point's injection deterministically from the campaign
// seed and the point's coordinates minus the excluded axes. The trial
// label participates (distinct trials draw distinct faults); scheduling
// never does.
func (s Spec[C]) draw(pt sweep.Point[C]) Trial {
	h := sim.Mix64(s.Seed ^ 0xfa017ca3)
	for _, l := range pt.Labels {
		if s.streamExcluded(l.Axis) {
			continue
		}
		h = sim.Mix64(h ^ hashString(l.Axis))
		h = sim.Mix64(h ^ hashString(l.Value))
	}
	r := sim.NewRand(h)
	m := s.Model
	t := Trial{
		Cell:     pt.Index / s.Trials,
		Index:    pt.Index % s.Trials,
		Bit:      m.BitLo + uint(r.Uint64()%uint64(m.BitHi-m.BitLo+1)),
		Cycle:    m.WindowLo + int64(r.Uint64()%uint64(m.WindowHi-m.WindowLo)),
		coreDraw: r.Uint64(),
	}
	if m.Cores > 0 {
		t.coreDraw %= uint64(m.Cores)
	}
	return t
}

func (s Spec[C]) streamExcluded(axis string) bool {
	for _, a := range s.StreamExclude {
		if a == axis {
			return true
		}
	}
	return false
}

// hashString is FNV-1a 64.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// trialAxis appends the Monte-Carlo dimension to the cell matrix. Its
// values mutate nothing: the trial index reaches the runner through the
// point's coordinates.
func trialAxis[C any](trials int) sweep.Axis[C] {
	ax := sweep.Axis[C]{Name: "trial"}
	for i := 0; i < trials; i++ {
		ax.Values = append(ax.Values, sweep.Value[C]{Name: strconv.Itoa(i)})
	}
	return ax
}

// Engine executes a campaign Spec on the sweep worker pool.
type Engine[C any] struct {
	Spec Spec[C]
	// RunTrial executes one injected trial for the given cell. It is
	// called from multiple goroutines and must be safe for concurrent use
	// across distinct trials (the reunion trial runner is: one simulation
	// per call, golden runs memoized behind a singleflight).
	RunTrial func(ctx context.Context, cell sweep.Point[C], t Trial) Observation
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS. Workers
	// run trials of different cells side by side while untaken cells
	// remain; only then do two workers share a cell (and, in the reunion
	// trial runner, take turns on its warm system). Completed trials of
	// later cells wait for the earlier ones before reaching Sink: about
	// Parallelism-1 cells of records when cells cost alike.
	Parallelism int
	// Sink, if set, receives one record per trial in matrix order —
	// byte-identical output at any parallelism. The engine does not close
	// the sink.
	Sink sweep.Sink
	// Indices, if non-nil, restricts the run to these global indices of
	// the flattened cells×trials matrix (a shard's slice, in the order
	// given — ascending for a distribution plan). Draws, classification,
	// and record bytes are unchanged: a trial's fault stream depends only
	// on its coordinates, so the same index yields the same record
	// whether the whole matrix or one shard runs it. The report covers
	// only the executed trials.
	Indices []int
	// Progress, if set, observes completed trials in completion order
	// (live reporting only).
	Progress func(done, total int, cell sweep.Point[C], t Trial, o Observation, out Outcome)
	// Trace, if set, receives a campaign/trial span per trial carrying its
	// cell, trial index, point and outcome, plus latency_cycles when the
	// outcome is detected. Pure observer — the report, the sink stream,
	// and Progress are unaffected.
	Trace *obs.Tracer
}

// trialRun is the engine-internal result of one trial.
type trialRun struct {
	trial Trial
	obs   Observation
	out   Outcome
}

// Run executes every trial and returns the aggregated coverage report.
// Individual trial failures (including panics in RunTrial) become DUE
// outcomes, not campaign failures; the campaign itself fails only on a
// spec that fails Validate, context cancellation or a sink write error.
func (e *Engine[C]) Run(ctx context.Context) (*Report, error) {
	if err := e.Spec.Validate(); err != nil {
		return nil, err
	}
	spec := e.Spec
	cells := spec.Matrix.Points()
	combined := sweep.Spec[C]{
		Name: spec.Matrix.Name,
		Base: spec.Matrix.Base,
		Axes: append(append([]sweep.Axis[C]{}, spec.Matrix.Axes...), trialAxis[C](spec.Trials)),
	}

	rep := newReport(spec.Matrix.Name, spec.Trials, cells)

	runner := sweep.Runner[C, trialRun]{
		Parallelism: e.Parallelism,
		// A cell's trials share its golden run and warm system, so
		// workers run trials of different cells side by side instead of
		// queueing on one.
		Group: func(pt sweep.Point[C]) int { return pt.Index / spec.Trials },
		// No Trace: the sweep runner's generic per-run span would
		// duplicate the richer trial span below.
		Run: func(ctx context.Context, pt sweep.Point[C]) (trialRun, error) {
			t := spec.draw(pt)
			sp := e.Trace.StartSpan("campaign", "trial",
				obs.Arg{Key: "cell", Val: t.Cell}, obs.Arg{Key: "trial", Val: t.Index},
				obs.Arg{Key: "point", Val: pt.Name()})
			o := e.RunTrial(ctx, pt, t)
			out := Classify(o)
			if out == Detected {
				sp.End(obs.Arg{Key: "outcome", Val: out.String()}, obs.Arg{Key: "latency_cycles", Val: o.LatencyCycles})
			} else {
				sp.End(obs.Arg{Key: "outcome", Val: out.String()})
			}
			return trialRun{trial: t, obs: o, out: out}, nil
		},
		Progress: func(done, total int, r sweep.Result[C, trialRun]) {
			if e.Progress != nil {
				e.Progress(done, total, r.Point, r.Out.trial, r.Out.obs, outcomeOf(r))
			}
		},
		Emit: func(r sweep.Result[C, trialRun]) error {
			tr := r.Out
			if r.Err != nil {
				if errors.Is(r.Err, sweep.ErrSkipped) {
					// A cancelled, never-executed trial must not enter the
					// stream: it is not a lost trial (nothing ran), and a
					// resumable journal would otherwise persist it as a
					// bogus DUE record that resume skips forever. Stop
					// emission at the last executed trial instead.
					return r.Err
				}
				// A panic in RunTrial is a lost trial: terminal DUE,
				// preserved in the stream.
				tr = trialRun{trial: spec.draw(r.Point), obs: Observation{Err: r.Err}, out: DUE}
			}
			rep.add(tr)
			if e.Sink == nil {
				return nil
			}
			return e.Sink.Write(record(spec.Matrix.Name, r.Point, tr))
		},
	}

	var err error
	if e.Indices != nil {
		_, err = runner.SweepIndices(ctx, combined, e.Indices)
	} else {
		_, err = runner.Sweep(ctx, combined)
	}
	return rep, err
}

func outcomeOf[C any](r sweep.Result[C, trialRun]) Outcome {
	if r.Err != nil {
		return DUE
	}
	return r.Out.out
}

// record flattens one trial into a sink record: the point's coordinates
// plus the outcome as labels, the numeric observability as metrics.
func record[C any](name string, pt sweep.Point[C], tr trialRun) sweep.Record {
	labels := pt.LabelMap()
	labels["outcome"] = tr.out.String()
	var metrics map[string]float64
	if tr.obs.Err == nil {
		metrics = map[string]float64{
			"bit":                   float64(tr.trial.Bit),
			"inject_cycle":          float64(tr.trial.Cycle),
			"core":                  float64(tr.obs.Core),
			"armed":                 b2f(tr.obs.Armed),
			"fired":                 b2f(tr.obs.Fired),
			"fire_cycle":            float64(tr.obs.FireCycle),
			"detected":              b2f(tr.obs.Detected),
			"detect_latency_cycles": float64(tr.obs.LatencyCycles),
			"detect_latency_instrs": float64(tr.obs.LatencyInstrs),
			"digest_match":          b2f(tr.obs.DigestOK && tr.obs.Digest == tr.obs.GoldenDigest),
			"fault_retired":         float64(tr.obs.Retired),
			"fault_squashed":        float64(tr.obs.Squashed),
		}
	}
	return sweep.NewRecord(name, pt.Index, labels, metrics, tr.obs.Err)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Validate sanity-checks a spec before a long campaign: a non-empty
// matrix, at least one trial per cell and a drawable fault model (a bit
// range within the result word, a non-empty injection window).
func (s Spec[C]) Validate() error {
	if s.Matrix.Size() == 0 {
		return fmt.Errorf("campaign: empty cell matrix (every axis needs at least one value)")
	}
	if s.Trials < 1 {
		return fmt.Errorf("campaign: %d trials per cell; need at least 1", s.Trials)
	}
	if s.Model.BitHi < s.Model.BitLo {
		return fmt.Errorf("campaign: bit range [%d,%d] is empty", s.Model.BitLo, s.Model.BitHi)
	}
	if s.Model.BitHi > 63 {
		// ArmFault flips bit%64: accepting >63 would silently alias the
		// draws onto low bits while the results file reports the raw ones.
		return fmt.Errorf("campaign: bit range [%d,%d] exceeds the 63-bit result width", s.Model.BitLo, s.Model.BitHi)
	}
	if s.Model.WindowHi <= s.Model.WindowLo {
		return fmt.Errorf("campaign: injection window [%d,%d) is empty", s.Model.WindowLo, s.Model.WindowHi)
	}
	for _, ax := range s.Matrix.Axes {
		if ax.Name == "trial" || ax.Name == "outcome" {
			return fmt.Errorf("campaign: axis name %q is reserved", ax.Name)
		}
	}
	return nil
}
