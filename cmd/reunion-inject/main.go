// Command reunion-inject runs a Monte-Carlo fault-injection campaign:
// single-bit transient flips in the unprotected datapath, one per trial,
// each classified against a fault-free golden run of the same seed as
// masked, detected (with detection latency), SDC (silent data
// corruption), or DUE (detected-unrecoverable or lost to the trial
// deadline).
//
//	reunion-inject -trials 200 -mode reunion
//	reunion-inject -trials 500 -mode reunion,non-redundant -workloads apache,ocean
//	reunion-inject -trials 100 -phantoms global,null -out coverage.jsonl
//
// The campaign matrix is mode × phantom × seed × workload; -trials is the
// total trial budget, split evenly across cells. The fault stream —
// which bit, which cycle, which core — is drawn per (workload, seed,
// trial) and deliberately excludes the mode and phantom axes, so cells
// differing only in execution model face identical fault streams: the
// Reunion/non-redundant comparison is controlled, not anecdotal.
//
// Trial records stream to -out as JSON Lines (or CSV), one per trial in
// matrix order — byte-identical at any -parallel value. The coverage
// summary table (outcome counts, detection coverage with 95% Wilson
// intervals, latency quantiles) prints to stdout at the end; live
// progress goes to stderr (-quiet silences it).
//
// Long campaigns distribute and resume: -shard i/n runs only the static
// range [total·i/n, total·(i+1)/n) of the flattened cells×trials space
// (each worker warms only its own cells' checkpoints), -journal records
// the range resumably (JSONL + checksummed footer), -resume continues a
// killed shard from its last complete trial record, and reunion-merge
// reassembles the journals into a stream byte-identical to the
// single-process campaign:
//
//	reunion-inject -trials 3000 -shard 0/3 -journal shard-0.jsonl
//	reunion-merge -out inject.jsonl shard-*.jsonl
//
// With -ckpt-store on a directory the shards share (local or a network
// mount), a cell warmed by one shard is restored, not re-warmed, by the
// others.
//
// A sharded run's coverage table covers only that range's trials — and
// a resumed run's, only the trials executed in that invocation (a
// stderr note says so); the journal always holds the full range, and
// the merged file is the campaign's source of truth.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"reunion"
	"reunion/internal/campaign"
	"reunion/internal/cliconf"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// warnOut receives axis-flag warnings (tests capture it).
var warnOut io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit code. Every
// exit returns through it, so the deferred CPU-profile stop flushes the
// profile on failed runs too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reunion-inject", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := cliconf.AtLeast(fs, "trials", 200, 1, strconv.Atoi, "total trial `budget`, split evenly across cells (min 1 per cell)")
	modes := fs.String("mode", "reunion,non-redundant", "execution models (csv: reunion,strict,non-redundant)")
	workloads := fs.String("workloads", "all", "workloads (csv of names, or 'all')")
	phantoms := fs.String("phantoms", "global", "phantom strengths (csv: global,shared,null)")
	seeds := fs.String("seeds", "1", "workload seeds (csv of uint64)")
	bits := fs.String("bits", "0-63", "inclusive flip-bit range lo-hi")
	window := fs.String("window", "", "injection cycle window lo-hi, hi exclusive, measured from measurement start (default 0-target); an empty window, such as a single value N (N-N), exits 2")
	warm := fs.Int64("warm", 10_000, "warmup cycles per run")
	target := fs.Int64("target", 2_000, "committed instructions per logical processor per trial (classification boundary)")
	deadline := fs.Int64("deadline", 150_000, "trial deadline in cycles (past it a trial is a terminal DUE)")
	campSeed := fs.Uint64("campaign-seed", 0xfa017, "seed for the Monte-Carlo fault draws")
	rf := cliconf.RegisterRange(fs, "inject", "trial", "inject.jsonl", true)
	ckpt := cliconf.RegisterCkpt(fs)
	obsFlags := cliconf.RegisterObs(fs).WithHeartbeat(fs)
	traceDump := fs.Int("trace-dump", 0, "record the last N compare mismatches and recoveries of each injected run and print them to stderr for SDC and DUE trials; only reunion cells record events, so a non-redundant SDC prints none (0 = off; prints even under -quiet)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	list := fs.Bool("list", false, "list workloads and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *list {
		for _, p := range workload.Suite() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Class)
		}
		return 0
	}

	stopProfile, err := cliconf.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(stderr, "inject: cpuprofile: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "inject: cpuprofile: %v\n", err)
		}
	}()

	spec, err := buildSpec(*modes, *workloads, *phantoms, *seeds, *bits, *window,
		*warm, *target, *deadline, *trials, *traceDump, *campSeed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Telemetry is a pure observer: with or without these flags the trial
	// stream and journal bytes are byte-identical (asserted in tests and
	// CI). The per-trial pair event dump behind -trace-dump is too —
	// Options.TraceEvents is excluded from every cache and checkpoint key.
	tr := obsFlags.Tracer()

	// A worker warms only its own cells' checkpoints; with a shared store
	// it also skips the ones a fleet-mate (or a previous, killed
	// incarnation resuming via -journal) already warmed.
	// Restores are bit-identical to local warmup, so trial records are
	// unchanged.
	warmCache := reunion.NewWarmCache()
	warmCache.Observe(tr)
	store, err := ckpt.Open()
	if err != nil {
		fmt.Fprintf(stderr, "inject: %v\n", err)
		return 2
	}
	if store != nil {
		warmCache.UseStore(store)
	}
	runTrial := reunion.TrialRunner(spec.Model, warmCache)

	plan, err := rf.Plan(spec.Matrix.Name, spec.Matrix.Size()*spec.Trials, planParts(spec)...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rng, err := rf.Open(plan, obsFlags, tr, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if rng.Complete() {
		// Lost trials are DUE records, not failures (exactly as the
		// single-process stream carries them): a sealed range is done.
		return 0
	}

	trialsRun := len(rng.Indices())
	fmt.Fprintf(stderr, "inject: %s: %d trials (%d per cell × %d cells, %d workers)\n",
		plan, trialsRun, spec.Trials, spec.Matrix.Size(), *rf.Parallel)
	start := time.Now()
	progress := func(done, total int, cell sweep.Point[reunion.Options], t campaign.Trial, o campaign.Observation, out campaign.Outcome) {
		rng.Tick()
		if !*rf.Quiet {
			status := out.String()
			if o.Err != nil {
				status = o.Err.Error()
			}
			fmt.Fprintf(stderr, "[%*d/%d] %s bit=%d cycle=%d: %s\n",
				len(strconv.Itoa(total)), done, total, cell.Name(), t.Bit, t.Cycle, status)
		}
		// The diagnostic dump prints even under -quiet: SDC and DUE are
		// exactly the trials one runs a campaign to find, and the last
		// kernel events before the verdict are the first clue to why.
		if *traceDump > 0 && o.Diag != "" && (out == campaign.SDC || out == campaign.DUE) {
			fmt.Fprintf(stderr, "inject: %s trial: %s bit=%d cycle=%d — last kernel events:\n%s",
				out, cell.Name(), t.Bit, t.Cycle, o.Diag)
		}
	}
	var rep *campaign.Report
	err = rng.Run(func(ctx context.Context, indices []int, sink sweep.Sink) error {
		eng := campaign.Engine[reunion.Options]{
			Spec:        spec,
			RunTrial:    runTrial,
			Parallelism: *rf.Parallel,
			Sink:        sink,
			Indices:     indices,
			Progress:    progress,
			Trace:       tr,
		}
		var err error
		rep, err = eng.Run(ctx)
		return err
	})
	if err != nil {
		fmt.Fprintf(stderr, "inject: %v\n", err)
		return 1
	}

	if trialsRun < plan.Count() {
		fmt.Fprintf(stderr, "inject: resumed run: the table covers only the %d trials executed in this invocation; all %d range records are in the journal (merge for whole-campaign statistics)\n",
			trialsRun, plan.Count())
	}
	rep.WriteTable(stdout)
	fmt.Fprintf(stderr, "inject: %d trials in %s\n",
		rep.Total.Trials(), time.Since(start).Round(time.Millisecond))
	if rep.Total.Count(campaign.DUE) > 0 {
		fmt.Fprintf(stderr, "inject: %d DUE trials (deadline/unrecoverable) — inspect the results file\n",
			rep.Total.Count(campaign.DUE))
	}
	return 0
}

// planParts pin the journal to this campaign's configuration, so a
// resume or merge under other flags fails loudly: the matrix, the window
// flags (cliconf.JournalBase), trial budget, fault model and draw seed.
// -trace-dump only observes.
func planParts(spec campaign.Spec[reunion.Options]) []string {
	b := spec.Matrix.Base
	return append(spec.Matrix.FingerprintParts(),
		cliconf.JournalBase(b.WarmCycles, 0, b.CommitTarget, b.TrialDeadline),
		fmt.Sprintf("trials:%d", spec.Trials),
		fmt.Sprintf("campaign-seed:%d", spec.Seed),
		fmt.Sprintf("model:%+v", spec.Model),
		fmt.Sprintf("exclude:%v", spec.StreamExclude))
}

// buildSpec assembles the campaign from the flags (parsing and
// dedupe-warning rules live in cliconf, shared with the other CLIs, and
// every cell passes Options.ValidateTrial). Axis order fixes the
// enumeration (and results-file) order: mode, phantom, seed, workload,
// trial.
func buildSpec(modes, workloads, phantoms, seeds, bits, window string,
	warm, target, deadline int64, totalTrials, traceDump int, campSeed uint64) (campaign.Spec[reunion.Options], error) {
	spec := campaign.Spec[reunion.Options]{
		Seed: campSeed,
		// Cells differing only in execution model or phantom strength face
		// the same fault stream.
		StreamExclude: []string{"mode", "phantom"},
	}

	spec.Matrix = sweep.Spec[reunion.Options]{Name: "inject", Base: reunion.DefaultOptions()}
	b := &spec.Matrix.Base
	b.WarmCycles, b.CommitTarget, b.TrialDeadline, b.TraceEvents = warm, target, deadline, traceDump

	ms, err := cliconf.Modes(warnOut, "inject", modes, false)
	if err != nil {
		return spec, err
	}
	phs, err := cliconf.Phantoms(warnOut, "inject", phantoms)
	if err != nil {
		return spec, err
	}
	sds, err := cliconf.Seeds(warnOut, "inject", seeds)
	if err != nil {
		return spec, fmt.Errorf("seeds: %w", err)
	}
	ps, err := cliconf.Workloads(warnOut, "inject", workloads)
	if err != nil {
		return spec, err
	}
	spec.Matrix.Axes = []sweep.Axis[reunion.Options]{
		reunion.ModeAxis(ms), reunion.PhantomAxis(phs), reunion.SeedAxis(sds), reunion.WorkloadAxis(ps),
	}

	if err := cliconf.ValidatePoints(spec.Matrix, reunion.Options.ValidateTrial); err != nil {
		return spec, err
	}

	bitLo, bitHi, err := cliconf.ParseRange(bits, 0, 63)
	if err != nil {
		return spec, fmt.Errorf("bits: %w", err)
	}
	winLo, winHi, err := cliconf.ParseRange(window, 0, target)
	if err != nil {
		return spec, fmt.Errorf("window: %w", err)
	}
	spec.Model = campaign.FaultModel{
		BitLo: uint(bitLo), BitHi: uint(bitHi),
		WindowLo: winLo, WindowHi: winHi,
	}

	if n := spec.Matrix.Size(); n > 0 { // an empty matrix fails Validate
		spec.Trials = max(totalTrials/n, 1)
	}
	return spec, spec.Validate()
}
