package cliconf

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"reunion/internal/coord"
	"reunion/internal/dist"
	"reunion/internal/obs"
	"reunion/internal/sweep"
)

// RunWorker is the -coordinator mode the sharded CLIs share: the process
// becomes a lease-pulling worker of the reunion-coordinator at url for
// the run plan names (its Spec, Total and Fingerprint). Each leased
// range [lo, hi) runs through run into a JSONL sink — exactly the bytes
// the single-process stream carries for those indices — and is streamed
// back; the coordinator verifies and merges, so the worker writes no
// results file of its own. It returns the process exit code:
// dist.ExitCode of the terminal outcome, or 1 when the worker could not
// see the run through.
func RunWorker(tool, url string, plan dist.Plan, quiet bool, sc obs.Scope, o *ObsFlags,
	run func(ctx context.Context, lo, hi int, sink sweep.Sink) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	if quiet {
		logf = func(string, ...any) {}
	}
	name := coord.WorkerName(tool)
	w := &coord.Worker{
		Client: &coord.Client{Base: url, Worker: name},
		Produce: func(ctx context.Context, lo, hi int) ([]byte, error) {
			var buf bytes.Buffer
			err := run(ctx, lo, hi, sweep.NewJSONL(&buf))
			return buf.Bytes(), err
		},
		Obs:  sc,
		Logf: logf,
	}

	fmt.Fprintf(os.Stderr, "%s: worker %s pulling leases from %s (%d records total)\n", tool, name, url, plan.Total)
	start := time.Now() //reunion:nondeterm-ok host wall-clock for the progress summary
	outcome, err := w.Run(ctx, plan.Spec, plan.Total, plan.Fingerprint)
	if werr := o.WriteFiles(sc); werr != nil {
		fmt.Fprintf(os.Stderr, "%s: telemetry: %v\n", tool, werr)
		if err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: coordinated run: %v\n", tool, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: coordinated run terminal after %s: %s (merged results live with the coordinator's output file)\n",
		tool, time.Since(start).Round(time.Millisecond), outcome) //reunion:nondeterm-ok host wall-clock
	return dist.ExitCode(outcome)
}
