package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"reunion/internal/obs"
)

// WorkerName identifies a worker process of the named tool in leases and
// coordinator logs.
func WorkerName(tool string) string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s-%s-%d", tool, host, os.Getpid())
}

// RunRange produces the record lines of index range [lo, hi) of the
// run — exactly the bytes the single-process stream carries for those
// indices, one newline-terminated JSONL record per index, in order.
// The simulation itself is deterministic, so the same range always
// yields the same bytes no matter which worker runs it.
type RunRange func(ctx context.Context, lo, hi int) ([]byte, error)

// Worker is the lease-pulling loop around a Produce function. It registers the
// run with the coordinator, then leases ranges until the run is
// terminal: each lease gets a heartbeat goroutine renewing at TTL/3,
// the produced lines are uploaded with Complete, and the coordinator's
// verdicts steer the loop — a lost lease (410) is discarded silently
// because the range belongs to someone else now, a rejected payload
// (422) moves on because the coordinator already charged the budget,
// and a local run error is reported with Fail.
type Worker struct {
	Client  *Client
	Produce RunRange
	Obs     obs.Scope
	Logf    func(format string, args ...any)
}

// Run drives the worker until the coordinated run reaches a terminal
// outcome (returned), ctx is cancelled, or the coordinator becomes
// unreachable for good.
func (w *Worker) Run(ctx context.Context, spec string, total int, fingerprint uint64) (string, error) {
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var mLeases, mDone, mLost, mFailed *obs.Counter
	if m := w.Obs.Metrics; m != nil {
		mLeases = m.Counter("worker_leases_total", "Leases accepted from the coordinator.")
		mDone = m.Counter("worker_ranges_completed_total", "Ranges completed and accepted.")
		mLost = m.Counter("worker_leases_lost_total", "Leases lost to expiry before the result was accepted.")
		mFailed = m.Counter("worker_ranges_failed_total", "Ranges this worker failed to produce or upload.")
	}

	// The coordinator may not be up yet, or may be briefly unreachable;
	// registration retries with backoff before giving up.
	if err := w.retry(ctx, "register", func() error {
		return w.Client.Register(spec, total, fingerprint)
	}); err != nil {
		return "", err
	}

	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		var res LeaseResult
		if err := w.retry(ctx, "lease", func() (lerr error) {
			res, lerr = w.Client.Lease()
			return lerr
		}); err != nil {
			return "", err
		}
		switch {
		case res.Outcome != "":
			return res.Outcome, nil
		case res.Lease == nil:
			select {
			case <-ctx.Done():
				return "", ctx.Err()
			case <-time.After(res.Wait):
			}
			continue
		}

		lease := res.Lease
		mLeases.Inc()
		logf("worker %s: leased [%d,%d)", w.Client.Worker, lease.Lo, lease.Hi)

		// The heartbeat goroutine renews the lease while the range runs;
		// if a renewal comes back ErrLeaseLost the coordinator has given
		// the range away, so the run is cancelled — its result would be
		// discarded anyway.
		runCtx, cancelRun := context.WithCancel(ctx)
		lost := make(chan struct{})
		hbDone := make(chan struct{})
		go func() {
			defer close(hbDone)
			interval := lease.TTL / 3
			if interval <= 0 {
				interval = time.Second
			}
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-t.C:
					if err := w.Client.Heartbeat(lease.ID); errors.Is(err, ErrLeaseLost) {
						close(lost)
						cancelRun()
						return
					}
					// Transient heartbeat errors are ignored: the lease
					// survives until its TTL, and the next tick retries.
				}
			}
		}()

		sp := w.Obs.Trace.StartSpan("worker", "run_range",
			obs.Arg{Key: "lo", Val: lease.Lo}, obs.Arg{Key: "hi", Val: lease.Hi})
		body, runErr := w.Produce(runCtx, lease.Lo, lease.Hi)
		sp.End(obs.Arg{Key: "err", Val: runErr != nil})
		cancelRun()
		<-hbDone

		select {
		case <-lost:
			mLost.Inc()
			logf("worker %s: lease on [%d,%d) lost mid-run — discarding", w.Client.Worker, lease.Lo, lease.Hi)
			continue
		default:
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}

		if runErr != nil {
			mFailed.Inc()
			logf("worker %s: range [%d,%d) failed: %v", w.Client.Worker, lease.Lo, lease.Hi, runErr)
			if err := w.Client.Fail(lease.ID, runErr.Error()); err != nil && !errors.Is(err, ErrLeaseLost) {
				logf("worker %s: fail report: %v", w.Client.Worker, err)
			}
			continue
		}

		err := w.retry(ctx, "complete", func() error {
			cerr := w.Client.Complete(lease.ID, body)
			if errors.Is(cerr, ErrLeaseLost) || errors.Is(cerr, ErrBadPayload) {
				// Terminal verdicts must not be retried.
				return &noRetry{cerr}
			}
			return cerr
		})
		switch {
		case err == nil:
			mDone.Inc()
			logf("worker %s: range [%d,%d) accepted", w.Client.Worker, lease.Lo, lease.Hi)
		case errors.Is(err, ErrLeaseLost):
			mLost.Inc()
			logf("worker %s: lease on [%d,%d) lost at upload — discarding", w.Client.Worker, lease.Lo, lease.Hi)
		case errors.Is(err, ErrBadPayload):
			mFailed.Inc()
			logf("worker %s: range [%d,%d) rejected: %v", w.Client.Worker, lease.Lo, lease.Hi, err)
		default:
			return "", fmt.Errorf("coord: uploading range [%d,%d): %w", lease.Lo, lease.Hi, err)
		}
	}
}

// retry runs op with exponential backoff until it succeeds, returns a
// noRetry verdict, ctx ends, or ~30s of attempts are spent — a worker
// that cannot reach its coordinator for that long is better off dead
// (the lease machinery was built for exactly that).
func (w *Worker) retry(ctx context.Context, what string, op func() error) error {
	delay := 100 * time.Millisecond
	var err error
	for attempt := 0; attempt < 9; attempt++ {
		if err = op(); err == nil {
			return nil
		}
		if nr, ok := err.(*noRetry); ok {
			return nr
		}
		if w.Logf != nil {
			w.Logf("worker %s: %s: %v (retrying in %s)", w.Client.Worker, what, err, delay)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
	return fmt.Errorf("coord: %s: giving up: %w", what, err)
}

// noRetry wraps an error the retry loop must surface immediately.
type noRetry struct{ err error }

func (n *noRetry) Error() string { return n.err.Error() }
func (n *noRetry) Unwrap() error { return n.err }
