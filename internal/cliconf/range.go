package cliconf

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"

	"reunion/internal/dist"
	"reunion/internal/obs"
	"reunion/internal/sweep"
)

// RangeFlags is the flag family of the CLIs that run a static range of a
// flattened index space — reunion-sweep's matrix, reunion-inject's
// cells × trials — into a results file or a resumable journal:
// -parallel, -out, -format, -shard, -journal, -resume and -quiet.
type RangeFlags struct {
	Parallel *int
	Quiet    *bool

	fs                          *flag.FlagSet
	tool, noun                  string
	optionalOut                 bool
	out, format, shard, journal *string
	resume                      *bool
}

// RegisterRange registers the range flags on fs. tool prefixes the
// messages ("sweep"), noun names what one record holds ("run") and out
// is -out's default. With optionalOut an empty -out means no results
// file; otherwise it is a file name like any other.
func RegisterRange(fs *flag.FlagSet, tool, noun, out string, optionalOut bool) *RangeFlags {
	outHelp := "per-" + noun + " results file ('-' = stdout)"
	if optionalOut {
		outHelp = "per-" + noun + " results file ('-' = stdout, '' = none)"
	}
	return &RangeFlags{
		Parallel:    AtLeast(fs, "parallel", runtime.GOMAXPROCS(0), 1, strconv.Atoi, "worker pool `size`"),
		Quiet:       fs.Bool("quiet", false, "suppress per-"+noun+" progress on stderr"),
		out:         fs.String("out", out, outHelp),
		format:      fs.String("format", "jsonl", "results format: jsonl | csv"),
		shard:       fs.String("shard", "", "run only static range i/n of the "+noun+"s (e.g. 0/3; default: all of them)"),
		journal:     fs.String("journal", "", "write the range as a resumable journal (JSONL + checksummed footer; replaces -out, excludes -format csv)"),
		resume:      fs.Bool("resume", false, "resume an interrupted -journal from its last complete "+noun+" record"),
		fs:          fs,
		tool:        tool,
		noun:        noun,
		optionalOut: optionalOut,
	}
}

// JournalBase renders a run's window (warm and measure cycles, commit
// target, trial deadline) as the configuration part journals have
// always carried: the sparse reunion.Options literal, every other field
// zero. The text is pinned, not rendered from today's Options, so a
// field added to or deleted from Options or workload.Params changes no
// journal's fingerprint: an interrupted journal still resumes, and its
// shards still merge with older ones.
func JournalBase(warm, measure, target, deadline int64) string {
	return fmt.Sprintf("base:{Mode:non-redundant Workload:{Name: Class: PrivateBytes:0 HotBytes:0 ColdEvery:0 "+
		"SharedCtrs:0 Locks:0 LoadsPerIter:0 StoresPerIter:0 ALUPerIter:0 PointerChase:false ScanBytes:0 "+
		"ScanPerIter:0 ScanStride:0 RemoteSixteenths:0 CritEvery:0 CritLen:0 SharedReadEvery:0 TrapEvery:0 "+
		"BarEvery:0 UnrollCode:0} Threads:0 Seed:0 CompareLatency:0 Phantom:global TLB:hardware "+
		"Consistency:TSO FPInterval:0 WarmCycles:%d MeasureCycles:%d NoPrefill:false Config:<nil> "+
		"Kernel:fastforward Inject:<nil> CommitTarget:%d TrialDeadline:%d TraceEvents:0 Warm:<nil>}",
		warm, measure, target, deadline)
}

// Plan checks the range flags and returns the range -shard selects of a
// run of total indices, pinned to the run's spec name and to the
// dist.Fingerprint of its configuration parts. Every error it returns is
// a usage error (exit 2).
func (f *RangeFlags) Plan(spec string, total int, parts ...string) (dist.Plan, error) {
	if err := CheckJournalFlags(f.tool, *f.journal, *f.format, *f.resume, FlagWasSet(f.fs, "out")); err != nil {
		return dist.Plan{}, err
	}
	shard, nshards, err := dist.ParseShard(*f.shard)
	if err != nil {
		return dist.Plan{}, err
	}
	lo, hi := dist.ShardRange(total, shard, nshards)
	return dist.Plan{Spec: spec, Fingerprint: dist.Fingerprint(parts...), Total: total, Lo: lo, Hi: hi}, nil
}

// Open opens the output of plan's range: the -journal (created, or
// replayed to its last complete record under -resume), or else the -out
// results file in -format ('-' is stdout). A resumed journal that is
// already complete is closed again and reported by Complete. Every
// error it returns is an I/O error (exit 1). Run drives o's heartbeat
// and flushes tr to o's trace file.
func (f *RangeFlags) Open(plan dist.Plan, o *ObsFlags, tr *obs.Tracer, stdout, stderr io.Writer) (*Range, error) {
	r := &Range{f: f, plan: plan, obs: o, tr: tr, stderr: stderr, indices: plan.Indices()}
	switch {
	case *f.journal != "":
		jnl, err := dist.OpenOrCreate(*f.journal, plan, *f.resume, tr)
		if err != nil {
			return nil, err
		}
		r.jnl, r.out, r.failed, r.indices = jnl, jnl, jnl.Failed(), jnl.Remaining()
		if jnl.Complete() {
			fmt.Fprintf(stderr, "%s: %s already complete (%d %ss, %d failed) — nothing to run\n",
				f.tool, plan, jnl.Done(), f.noun, jnl.Failed())
			jnl.Close()
		} else if jnl.Done() > 0 {
			fmt.Fprintf(stderr, "%s: resuming %s at %s record %d\n", f.tool, plan, f.noun, jnl.Done())
		}
	case *f.out == "" && f.optionalOut:
	default:
		w := stdout
		if *f.out != "-" {
			file, err := os.Create(*f.out)
			if err != nil {
				return nil, err
			}
			r.file, w = file, file
		}
		r.out = sweep.NewJSONL(w)
		if *f.format == "csv" {
			r.out = sweep.NewCSV(w)
		}
	}
	return r, nil
}

// Range is one open range of a run: the indices still to run and the
// output their records go to.
type Range struct {
	f       *RangeFlags
	plan    dist.Plan
	obs     *ObsFlags
	tr      *obs.Tracer
	stderr  io.Writer
	indices []int
	jnl     *dist.Journal  // nil without -journal
	file    *os.File       // the -out file; nil for stdout or none
	out     sweep.Sink     // the journal or results sink; nil for none
	hb      *obs.Heartbeat // running during Run
	failed  int
}

// Complete reports whether a resumed journal was already complete.
func (r *Range) Complete() bool { return r.jnl != nil && r.jnl.Complete() }

// Indices returns the global indices Run runs, ascending: a resumed
// journal's tail, or else the whole range.
func (r *Range) Indices() []int { return r.indices }

// Failed counts the error records of the range's output, a resumed
// journal's earlier ones included, as the uninterrupted run counts them.
func (r *Range) Failed() int { return r.failed }

// Tick counts one finished index on the -heartbeat.
func (r *Range) Tick() { r.hb.Tick() }

// Run calls body with the indices to run and the sink for their records
// under a context an interrupt cancels, with the -heartbeat running.
// Then it seals a journal if body succeeded (else it stays resumable) or
// closes the results file, and flushes the -trace-out trace even after a
// failure. It returns body's error, or else the first later one.
func (r *Range) Run(body func(ctx context.Context, indices []int, sink sweep.Sink) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r.hb = r.obs.Heartbeat(r.f.tool+" "+r.plan.String(), int64(len(r.indices)))
	stopHeartbeat := r.hb.Start()
	err := body(ctx, r.indices, r)
	stopHeartbeat()
	if r.jnl != nil {
		err = dist.SealOrClose(r.jnl, err)
	} else if r.out != nil {
		if cerr := r.out.Close(); err == nil {
			err = cerr
		}
	}
	// A file close error can carry a deferred write failure.
	if r.file != nil {
		if cerr := r.file.Close(); err == nil {
			err = cerr
		}
	}
	if werr := r.obs.WriteTrace(r.tr); werr != nil {
		fmt.Fprintf(r.stderr, "%s: telemetry: %v\n", r.f.tool, werr)
		if err == nil {
			err = werr
		}
	}
	return err
}

// Write writes one record to the range's output, counting the error
// records: a Range is the sink Run hands its body.
func (r *Range) Write(rec sweep.Record) error {
	if r.out != nil {
		if err := r.out.Write(rec); err != nil {
			return err
		}
	}
	if rec.Err != "" {
		r.failed++
	}
	return nil
}

// Close does nothing: Run, not the body, puts the output down.
func (r *Range) Close() error { return nil }
