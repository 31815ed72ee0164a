// reunion-coordinator dispatches one experiment campaign across a fleet
// of lease-pulling workers. Start it with the merged-output destination,
// point any number of reunion-sweep or reunion-inject workers at it with
// -coordinator, and let them pull: each worker leases a small index
// range of the flattened run, streams the completed range's record lines
// back, and takes the next. A worker that dies mid-range simply stops
// heartbeating; its lease expires and the range goes to someone else.
// The merged output is byte-identical to the single-process run — every
// range payload is written through a dist journal before it counts, and
// the terminal merge (dist.Merge, the same one reunion-merge runs)
// re-verifies the set.
//
//	reunion-coordinator -addr :9344 -state coord-state -out sweep.jsonl &
//	reunion-sweep -coordinator http://host:9344 &   # any number, any machines
//
// The coordinator always reaches a terminal outcome: success (all ranges
// verified and merged), partial (verified subset merged, manifest
// accounting for the holes), or failed. Per-range retry budgets
// distinguish lease expiries (dead workers — retried generously) from
// reported failures and verification-rejected payloads (systematic —
// retried stingily). With -once the process exits at the terminal
// outcome with the merge exit-code convention (0 success, 3 partial,
// 1 failed), lingering one lease TTL first so polling workers learn the
// outcome instead of finding a dead socket.
//
// Besides the worker protocol under /v1/, the daemon serves the shared
// operational surface of internal/serve:
//
//	/metrics       Prometheus text exposition (lease/range state,
//	               request counts and latency by handler)
//	/healthz       liveness: 200 "ok" while the state dir is writable
//	/debug/pprof/  the standard net/http/pprof profiling endpoints
//
// Restarts are cheap: sealed range journals in -state are re-verified
// and credited at adoption, so a restarted coordinator resumes the
// campaign instead of re-running it.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"time"

	"reunion/internal/coord"
	"reunion/internal/dist"
	"reunion/internal/obs"
	"reunion/internal/serve"
)

func main() {
	addr := flag.String("addr", ":9344", "listen address")
	state := flag.String("state", "coord-state", "directory for per-range journals (restart state)")
	out := flag.String("out", "coord.jsonl", "merged results file written at the terminal outcome")
	manifest := flag.String("manifest", "", "write the terminal manifest (success or partial) to this file")
	rangeSize := flag.Int("range-size", 16, "lease granularity in indices")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat")
	timeoutBudget := flag.Int("timeout-budget", 3, "lease expiries a range tolerates before it is declared failed")
	failBudget := flag.Int("fail-budget", 2, "reported/verification failures a range tolerates before it is declared failed")
	stallTimeout := flag.Duration("stall-timeout", 0, "force a terminal outcome after this long without worker activity (default 10× lease-ttl)")
	once := flag.Bool("once", false, "exit at the terminal outcome: 0 success, 3 partial, 1 failed")
	flag.Parse()

	reg := obs.NewRegistry()
	c, err := coord.New(coord.Config{
		RangeSize:     *rangeSize,
		LeaseTTL:      *leaseTTL,
		TimeoutBudget: *timeoutBudget,
		FailBudget:    *failBudget,
		StallTimeout:  *stallTimeout,
		Dir:           *state,
		Out:           *out,
		Manifest:      *manifest,
		Obs:           obs.Scope{Metrics: reg},
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := serve.SignalContext()
	defer stop()
	srvCtx, srvCancel := context.WithCancel(ctx)
	defer srvCancel()
	go c.Watch(srvCtx)

	log.Printf("reunion-coordinator: state %s, merged output %s", *state, *out)
	errc := make(chan error, 1)
	go func() {
		errc <- serve.ListenAndServe(srvCtx, *addr, newHandler(c, *state, reg), log.Printf)
	}()

	if *once {
		select {
		case <-c.Done():
			// Linger one lease TTL so workers polling for leases get a
			// terminal answer instead of a connection error.
			outcome, _, _ := c.Outcome()
			log.Printf("reunion-coordinator: terminal outcome %q — draining for %s", outcome, *leaseTTL)
			select {
			case <-time.After(*leaseTTL):
			case <-ctx.Done():
			}
			srvCancel()
		case <-ctx.Done():
		}
	}
	if err := <-errc; err != nil {
		log.Fatal(err)
	}
	outcome, _, ferr := c.Outcome()
	if ferr != nil {
		log.Printf("reunion-coordinator: %v", ferr)
	}
	// "" = interrupted before terminal; the signal is the exit reason,
	// not a campaign verdict.
	if outcome != "" {
		os.Exit(dist.ExitCode(outcome))
	}
}

// newHandler assembles the daemon's mux on the serve scaffold: the
// instrumented worker protocol plus the scaffold's /metrics, /healthz,
// and /debug/pprof. Split from main so tests drive exactly what the
// daemon serves.
func newHandler(c *coord.Coordinator, state string, reg *obs.Registry) http.Handler {
	return serve.NewMux(reg, serve.DirHealth(state),
		serve.Route{Pattern: "/v1/", Name: "coord", Handler: c.Handler()})
}
