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
	"os/signal"
	"runtime"
	"strconv"
	"time"

	"reunion"
	"reunion/internal/campaign"
	"reunion/internal/cliconf"
	"reunion/internal/dist"
	"reunion/internal/obs"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// warnOut receives axis-flag warnings (tests capture it).
var warnOut io.Writer = os.Stderr

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command behind main, returning its exit code. Every
// exit returns through it, so the deferred CPU-profile stop flushes the
// profile on failed runs too.
func run(args []string) int {
	fs := flag.NewFlagSet("reunion-inject", flag.ContinueOnError)
	trials := fs.Int("trials", 200, "total trial budget, split evenly across cells (min 1 per cell)")
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
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size")
	out := fs.String("out", "inject.jsonl", "per-trial results file ('-' = stdout, '' = none)")
	format := fs.String("format", "jsonl", "results format: jsonl | csv")
	shardStr := fs.String("shard", "", "run only static range i/n of the flattened trial matrix (e.g. 0/3; default: all trials)")
	journal := fs.String("journal", "", "write the range as a resumable journal (JSONL + checksummed footer; replaces -out, excludes -format csv)")
	resume := fs.Bool("resume", false, "resume an interrupted -journal from its last complete trial record")
	quiet := fs.Bool("quiet", false, "suppress per-trial progress on stderr")
	ckpt := cliconf.RegisterCkpt(fs)
	obsFlags := cliconf.RegisterObs(fs).WithHeartbeat(fs)
	traceDump := fs.Int("trace-dump", 0, "record the last N compare mismatches and recoveries of each injected run and print them to stderr for SDC and DUE trials (0 = off; prints even under -quiet)")
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
			fmt.Printf("%-12s %s\n", p.Name, p.Class)
		}
		return 0
	}

	stopProfile, err := cliconf.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "inject: cpuprofile: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "inject: cpuprofile: %v\n", err)
		}
	}()

	spec, err := buildSpec(*modes, *workloads, *phantoms, *seeds, *bits, *window,
		*warm, *target, *deadline, *trials, *campSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Telemetry is a pure observer: with or without these flags the trial
	// stream and journal bytes are byte-identical (asserted in tests and
	// CI). The per-trial kernel-event ring behind -trace-dump is too —
	// Options.TraceEvents is excluded from every cache and checkpoint key.
	tr := obsFlags.Tracer()

	total := spec.Matrix.Size() * spec.Trials
	// Pin the journal to this exact campaign configuration — matrix
	// axes, base options (warm/target/deadline), trial budget, fault
	// model, and draw seed — so resuming or merging under different
	// flags that happen to yield the same name and trial count fails
	// loudly instead of interleaving two campaigns.
	fingerprint := dist.Fingerprint(append(spec.Matrix.FingerprintParts(),
		fmt.Sprintf("base:%+v", spec.Matrix.Base),
		fmt.Sprintf("trials:%d", spec.Trials),
		fmt.Sprintf("campaign-seed:%d", spec.Seed),
		fmt.Sprintf("model:%+v", spec.Model),
		fmt.Sprintf("exclude:%v", spec.StreamExclude))...)

	// A worker warms only its own cells' checkpoints; with a shared store
	// it also skips the ones a fleet-mate (or a previous, killed
	// incarnation resuming via -journal) already warmed.
	// Restores are bit-identical to local warmup, so trial records are
	// unchanged.
	warmCache := reunion.NewWarmCache()
	warmCache.Observe(tr)
	store, err := ckpt.Open()
	if err != nil {
		fmt.Fprintf(os.Stderr, "inject: %v\n", err)
		return 2
	}
	if store != nil {
		warmCache.UseStore(store)
	}
	runTrial := reunion.TrialRunner(spec.Model, warmCache, *traceDump)

	plan := dist.Plan{Spec: spec.Name, Fingerprint: fingerprint, Total: total}
	if err := cliconf.CheckJournalFlags("inject", *journal, *format, *resume, cliconf.FlagWasSet(fs, "out")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	shard, nshards, err := dist.ParseShard(*shardStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	plan.Lo, plan.Hi = dist.ShardRange(total, shard, nshards)

	var sink sweep.Sink
	var outFile *os.File
	var jnl *dist.Journal
	lo := plan.Lo
	switch {
	case *journal != "":
		jnl, err = dist.OpenOrCreate(*journal, plan, *resume, tr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if jnl.Complete() {
			fmt.Fprintf(os.Stderr, "inject: %s already complete (%d trials) — nothing to do\n", plan, jnl.Done())
			jnl.Close()
			return 0
		}
		if jnl.Done() > 0 {
			fmt.Fprintf(os.Stderr, "inject: resuming %s at trial record %d\n", plan, jnl.Done())
		}
		lo += jnl.Done()
		sink = jnl
	case *out == "":
	default:
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			outFile = f
			w = f
		}
		if *format == "csv" {
			sink = sweep.NewCSV(w)
		} else {
			sink = sweep.NewJSONL(w)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(os.Stderr, "inject: %s: %d trials (%d per cell × %d cells, %d workers)\n",
		plan, plan.Hi-lo, spec.Trials, spec.Matrix.Size(), *parallel)
	hb := obsFlags.Heartbeat("inject "+plan.String(), int64(plan.Hi-lo))
	stopHeartbeat := hb.Start()

	start := time.Now()
	progress := func(done, total int, cell sweep.Point[reunion.Options], t campaign.Trial, o campaign.Observation, out campaign.Outcome) {
		hb.Tick()
		if !*quiet {
			status := out.String()
			if o.Err != nil {
				status = o.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%*d/%d] %s,trial=%d bit=%d cycle=%d: %s\n",
				len(strconv.Itoa(total)), done, total, cell.Name(), t.Index, t.Bit, t.Cycle, status)
		}
		// The diagnostic dump prints even under -quiet: SDC and DUE are
		// exactly the trials one runs a campaign to find, and the last
		// kernel events before the verdict are the first clue to why.
		if *traceDump > 0 && o.Diag != "" && (out == campaign.SDC || out == campaign.DUE) {
			fmt.Fprintf(os.Stderr, "inject: %s trial: %s,trial=%d bit=%d cycle=%d — last kernel events:\n%s",
				out, cell.Name(), t.Index, t.Bit, t.Cycle, o.Diag)
		}
	}
	rep, err := runRange(ctx, spec, runTrial, lo, plan.Hi, *parallel, tr, sink, progress)
	stopHeartbeat()
	if jnl != nil {
		// Seal the journal once every range record is on disk (lost trials
		// journal deterministic DUE records, exactly as the single-process
		// stream carries them). An interrupted or write-failed range stays
		// footerless — resumable with -resume.
		err = dist.SealOrClose(jnl, err)
	} else if sink != nil {
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
	}
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	// Telemetry flushes even when the campaign failed — that is when the
	// trace is most wanted — but a flush error must not mask a run error.
	if werr := obsFlags.WriteTrace(tr); werr != nil {
		fmt.Fprintf(os.Stderr, "inject: telemetry: %v\n", werr)
		if err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "inject: %v\n", err)
		return 1
	}

	if lo > plan.Lo {
		fmt.Fprintf(os.Stderr, "inject: resumed run: the table covers only the %d trials executed in this invocation; all %d range records are in the journal (merge for whole-campaign statistics)\n",
			plan.Hi-lo, plan.Count())
	}
	rep.WriteTable(os.Stdout)
	fmt.Fprintf(os.Stderr, "inject: %d trials in %s\n",
		rep.Total.Trials(), time.Since(start).Round(time.Millisecond))
	if rep.Total.Count(campaign.DUE) > 0 {
		fmt.Fprintf(os.Stderr, "inject: %d DUE trials (deadline/unrecoverable) — inspect the results file\n",
			rep.Total.Count(campaign.DUE))
	}
	return 0
}

// runRange runs trial indices [lo, hi) of the flattened cells×trials
// space and writes their records to sink (nil = none) in index order —
// byte-identical to the same records of a single-process campaign at any
// parallelism, for a whole run, a -shard range and a -resume tail
// alike. Trial failures become deterministic DUE records rather than
// failing the range, exactly as the single-process stream carries them;
// the report covers only the executed trials.
func runRange(ctx context.Context, spec campaign.Spec[reunion.Options],
	runTrial func(ctx context.Context, cell sweep.Point[reunion.Options], t campaign.Trial) campaign.Observation,
	lo, hi, parallel int, tr *obs.Tracer, sink sweep.Sink,
	progress func(done, total int, cell sweep.Point[reunion.Options], t campaign.Trial, o campaign.Observation, out campaign.Outcome)) (*campaign.Report, error) {
	indices := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		indices = append(indices, i)
	}
	eng := campaign.Engine[reunion.Options]{
		Spec:        spec,
		RunTrial:    runTrial,
		Parallelism: parallel,
		Sink:        sink,
		Indices:     indices,
		Progress:    progress,
		Trace:       tr,
	}
	return eng.Run(ctx)
}

// buildSpec assembles the campaign from the flags (validation and
// dedupe-warning rules live in cliconf, shared with the other CLIs).
// Axis order fixes the enumeration (and results-file) order: mode,
// phantom, seed, workload, trial.
func buildSpec(modes, workloads, phantoms, seeds, bits, window string,
	warm, target, deadline int64, totalTrials int, campSeed uint64) (campaign.Spec[reunion.Options], error) {
	spec := campaign.Spec[reunion.Options]{
		Name: "inject",
		Seed: campSeed,
		// Cells differing only in execution model or phantom strength face
		// the same fault stream.
		StreamExclude: []string{"mode", "phantom"},
	}

	bitLo, bitHi, err := cliconf.ParseRange(bits, 0, 63)
	if err != nil {
		return spec, fmt.Errorf("bits: %w", err)
	}
	if window == "" {
		window = fmt.Sprintf("0-%d", target)
	}
	winLo, winHi, err := cliconf.ParseRange(window, 0, target)
	if err != nil {
		return spec, fmt.Errorf("window: %w", err)
	}
	spec.Model = campaign.FaultModel{
		BitLo: uint(bitLo), BitHi: uint(bitHi),
		WindowLo: winLo, WindowHi: winHi,
	}

	matrix := sweep.Spec[reunion.Options]{
		Name: "inject",
		Base: reunion.Options{
			WarmCycles:    warm,
			CommitTarget:  target,
			TrialDeadline: deadline,
		},
	}

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
	matrix.Axes = []sweep.Axis[reunion.Options]{
		reunion.ModeAxis(ms), reunion.PhantomAxis(phs), reunion.SeedAxis(sds), reunion.WorkloadAxis(ps),
	}

	spec.Matrix = matrix
	cells := matrix.Size()
	if cells == 0 {
		return spec, fmt.Errorf("empty matrix: every axis needs at least one value")
	}
	spec.Trials = totalTrials / cells
	if spec.Trials < 1 {
		spec.Trials = 1
	}
	return spec, spec.Validate()
}
