// Command reunion-sweep runs the paper's experiments. It has two forms.
//
// With -experiment it prints one table or figure of the paper's
// evaluation (§5), or the §4.1, §4.3, §5.2 and §5.5 ablations, by name,
// followed by the paper's claims about it, one "claim" line each with
// the measured value, its bound, the margin and whether it holds:
//
//	reunion-sweep -experiment fig6
//	reunion-sweep -experiment all        # every table, in paper order
//	reunion-sweep -experiment all -full  # paper-scale sampling (slower)
//
// The names are config, workloads, fig5, fig6, table3, fig7a, fig7b, sc,
// interval, rob and topology (reunion.Experiments). The default scale is
// the one TestExperimentShapes checks. Tables and claims go to stdout
// and each experiment's run time to stderr, so stdout is byte-identical
// at any -parallel. An experiment fixes its own matrix and output, so
// the axis flags, -warm, -measure, -out, -format, -shard, -journal,
// -resume and -ckpt-store are usage errors with it.
//
// Without -experiment it runs the raw matrix — the cross product of
// every axis flag — on a worker pool and writes one record per run:
//
//	reunion-sweep -modes reunion,strict -parallel 4
//	reunion-sweep -workloads apache,ocean -latencies 0,10,40 -out lat.jsonl
//	reunion-sweep -modes reunion -phantoms global,shared,null -format csv -out table3.csv
//
// Results stream to the output file as JSON Lines (default) or CSV, one
// record per run, in matrix order: for a fixed seed the output is
// byte-identical at -parallel 1 and -parallel N, so results files are
// diffable across runs and machines. Live progress goes to stderr; pass
// -quiet to silence it. A summary with the matched-pair IPC aggregate is
// printed at the end.
//
// The matrix distributes across processes and machines: -shard i/n runs
// only the static range [size·i/n, size·(i+1)/n) of the matrix, -journal
// writes the range as a resumable journal (JSONL framed by a header and
// a checksummed footer), and -resume continues an interrupted journal
// from its last complete record. reunion-merge reassembles the journals
// into a stream byte-identical to the single-process run:
//
//	reunion-sweep -shard 0/3 -journal shard-0.jsonl   # one per worker
//	reunion-merge -out sweep.jsonl shard-*.jsonl
//
// Shards that share a -ckpt-store directory (local or a network mount)
// hand each other warm checkpoints instead of each warming its own.
//
// -parallel, -kernel, -trace-out, -heartbeat and -cpuprofile apply to
// both forms. Run with -list to enumerate workloads, and see
// EXPERIMENTS.md for the command behind each paper table and figure.
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
	"reunion/internal/cliconf"
	"reunion/internal/stats"
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
	fs := flag.NewFlagSet("reunion-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := reunion.DefaultOptions()
	modes := fs.String("modes", "non-redundant,strict,reunion", "execution models to sweep (csv)")
	workloads := fs.String("workloads", "all", "workloads to sweep (csv of names, or 'all')")
	latencies := fs.String("latencies", strconv.FormatInt(def.Config.CompareLatency, 10), "comparison latencies in cycles (csv; 0 = zero-cycle)")
	phantoms := fs.String("phantoms", "global", "phantom strengths (csv: global,shared,null)")
	tlbs := fs.String("tlbs", "hardware", "TLB disciplines (csv: hardware,software)")
	consistencies := fs.String("consistencies", "tso", "memory consistency models (csv: tso,sc)")
	intervals := fs.String("intervals", strconv.Itoa(def.Config.Core.FPInterval), "fingerprint comparison intervals (csv)")
	seeds := fs.String("seeds", "1", "workload seeds (csv of uint64)")
	warm := fs.Int64("warm", def.WarmCycles, "warmup cycles per run")
	measure := fs.Int64("measure", def.MeasureCycles, "measurement cycles per run")
	kernelName := fs.String("kernel", "fastforward", "simulation kernel: fastforward | naive (results are bit-identical)")
	rf := cliconf.RegisterRange(fs, "sweep", "run", "sweep.jsonl", false)
	ckpt := cliconf.RegisterCkpt(fs)
	obsFlags := cliconf.RegisterObs(fs).WithHeartbeat(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	list := fs.Bool("list", false, "list workloads and exit")
	expName := fs.String("experiment", "", "print one paper table or figure by name, or 'all', instead of running the matrix (see EXPERIMENTS.md)")
	full := fs.Bool("full", false, "with -experiment: paper-scale sampling (3 seeds, longer windows; slower)")
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
	selected, err := selectExperiments(fs, *expName, *full)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	stopProfile, err := cliconf.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: cpuprofile: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(stderr, "sweep: cpuprofile: %v\n", err)
		}
	}()

	kern, err := cliconf.Kernel(*kernelName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if selected != nil {
		cfg := reunion.QuickExp(stdout)
		if *full {
			cfg = reunion.FullExp(stdout)
		}
		cfg.Parallelism = *rf.Parallel
		cfg.Kernel = kern
		return runExperiments(selected, cfg, obsFlags, stdout, stderr)
	}
	spec, err := buildSpec(*modes, *workloads, *latencies, *phantoms, *tlbs,
		*consistencies, *intervals, *seeds, *warm, *measure, kern)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Telemetry is a pure observer: with or without these flags the
	// results stream and journal bytes are byte-identical (asserted in
	// tests and CI).
	tr := obsFlags.Tracer()
	store, err := ckpt.Open()
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}
	if store != nil {
		// Every point starts from a copy of Base, so one store-backed
		// cache serves the whole matrix: each cell fetches its own warm
		// checkpoint if a fleet-mate already paid for it, and uploads it
		// otherwise. Restores are bit-identical to local warmup, so the
		// results stream is unchanged.
		wc := reunion.NewWarmCache()
		wc.UseStore(store)
		wc.Observe(tr)
		spec.Base.Warm = wc
	}

	plan, err := rf.Plan(spec.Name, spec.Size(), planParts(spec)...)
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
		// A sealed range with failed runs exits 1, as the run that
		// produced them did.
		return min(rng.Failed(), 1)
	}

	var ipc stats.Online
	start := time.Now()
	progress := func(done, total int, r sweep.Result[reunion.Options, reunion.Result]) {
		rng.Tick()
		if r.Err == nil {
			ipc.Add(r.Out.UserIPC)
		}
		if *rf.Quiet {
			return
		}
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Fprintf(stderr, "[%*d/%d] %s: %s\n",
			len(strconv.Itoa(total)), done, total, r.Point.Name(), status)
	}

	runs := len(rng.Indices())
	fmt.Fprintf(stderr, "sweep: %s: %d runs (%d workers)\n", plan, runs, *rf.Parallel)
	err = rng.Run(func(ctx context.Context, indices []int, sink sweep.Sink) error {
		return reunion.SweepRecords(ctx, spec, indices, sink, *rf.Parallel, tr, progress)
	})
	if err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	// Failed runs are records too (deterministic error records, exactly
	// as the single-process file carries them), so the range completes;
	// the exit code still reports them, over the whole journaled range.
	fmt.Fprintf(stderr, "sweep: %d runs in %s, user IPC %s, %d failed\n",
		runs, time.Since(start).Round(time.Millisecond), ipc.String(), rng.Failed())
	return min(rng.Failed(), 1)
}

// planParts pin the journal to this run's configuration: the matrix
// vocabulary and the window flags (cliconf.JournalBase). The kernel
// (bit-identical by contract) and the checkpoint store (a cache) are not
// configuration.
func planParts(spec sweep.Spec[reunion.Options]) []string {
	return append(spec.FingerprintParts(), cliconf.JournalBase(spec.Base.WarmCycles, spec.Base.MeasureCycles, 0, 0))
}

// buildSpec assembles the matrix from the axis flags (parsing and
// dedupe-warning rules live in cliconf, shared with the other CLIs, and
// every point passes Options.Validate). Axis order fixes the enumeration
// (and output) order: workload, mode, latency, phantom, tlb, consistency,
// interval, seed.
func buildSpec(modes, workloads, latencies, phantoms, tlbs, consistencies, intervals, seeds string, warm, measure int64, kern reunion.Kernel) (sweep.Spec[reunion.Options], error) {
	// No reunion.WarmCache here: every axis of this matrix shapes the
	// warmup itself, so no two cells could share a warm checkpoint —
	// caching would only pin warmed machines in memory. The caches live
	// where reuse is real: reunion-inject's per-cell trials and the
	// -experiment campaigns (ExpConfig).
	spec := sweep.Spec[reunion.Options]{Name: "paper-matrix", Base: reunion.DefaultOptions()}
	spec.Base.WarmCycles, spec.Base.MeasureCycles, spec.Base.Config.Kernel = warm, measure, kern

	ps, err := cliconf.Workloads(warnOut, "sweep", workloads)
	if err != nil {
		return spec, err
	}
	ms, err := cliconf.Modes(warnOut, "sweep", modes, true)
	if err != nil {
		return spec, err
	}
	lats, err := cliconf.Latencies(warnOut, "sweep", latencies)
	if err != nil {
		return spec, err
	}
	phs, err := cliconf.Phantoms(warnOut, "sweep", phantoms)
	if err != nil {
		return spec, err
	}
	ts, err := cliconf.TLBs(warnOut, "sweep", tlbs)
	if err != nil {
		return spec, err
	}
	cs, err := cliconf.Consistencies(warnOut, "sweep", consistencies)
	if err != nil {
		return spec, err
	}
	ivs, err := cliconf.Intervals(warnOut, "sweep", intervals)
	if err != nil {
		return spec, err
	}
	sds, err := cliconf.Seeds(warnOut, "sweep", seeds)
	if err != nil {
		return spec, err
	}
	spec.Axes = []sweep.Axis[reunion.Options]{
		reunion.WorkloadAxis(ps), reunion.ModeAxis(ms), reunion.LatencyAxis(lats),
		reunion.PhantomAxis(phs), reunion.TLBAxis(ts), reunion.ConsistencyAxis(cs),
		reunion.IntervalAxis(ivs), reunion.SeedAxis(sds),
	}

	if spec.Size() == 0 {
		return spec, fmt.Errorf("empty matrix: every axis needs at least one value")
	}
	return spec, cliconf.ValidatePoints(spec, reunion.Options.Validate)
}
