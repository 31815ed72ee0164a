// Package coord is the campaign coordinator: lease-based dynamic
// dispatch of one experiment run across a fleet of workers.
//
// The static alternative already exists — -shard i/n slices the
// flattened cell×trial space into n fixed contiguous pieces — but fixed
// slicing couples the campaign to the fleet: a slow machine stretches
// the whole run to its pace, and a dead one leaves a hole no other
// worker will fill. The coordinator decouples them. It holds the run's
// index space as a grid of small ranges; identical workers pull a
// leased range each, stream the completed range's record lines back,
// and pull the next. A lease carries a TTL renewed by heartbeats; a
// worker that dies simply stops renewing, and its range goes back to
// the grid for someone else. Dispatch order is dynamic, but the result
// is not: every completed range is written through a dist journal
// (index order, checksummed footer, fingerprint-pinned header), and the
// terminal merge is byte-identical to the single-process run.
//
// The coordinator always reaches a terminal outcome. Each range has two
// bounded budgets that distinguish the transient from the systematic:
// a lease expiry (worker died, network hiccup) charges the timeout
// budget, while a reported failure or a payload that fails verification
// charges the failure budget — a range that keeps crashing its workers
// is declared failed rather than retried forever. When no range is
// pending or leased, the run finalizes through dist.Merge: all done →
// "success"; some done → "partial" (verified subset merged, manifest
// accounting for the holes); none → "failed". A stall watchdog bounds
// the no-progress case so an abandoned coordinator terminates too.
package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reunion/internal/dist"
	"reunion/internal/obs"
)

// Outcome values of a coordinated run: the dist merge outcomes.
const (
	OutcomeSuccess = dist.OutcomeSuccess
	OutcomePartial = dist.OutcomePartial
	OutcomeFailed  = dist.OutcomeFailed
)

// ErrLeaseLost reports that the presented lease no longer exists: it
// expired and the range was re-leased, completed by another worker, or
// the whole run went terminal. The worker discards its result silently
// — someone else owns those indices now.
var ErrLeaseLost = errors.New("coord: lease lost")

// ErrBadPayload reports that a completed range's payload failed journal
// verification (malformed line, index out of order, wrong count). The
// failure is charged against the range's failure budget.
var ErrBadPayload = errors.New("coord: range payload failed verification")

// errMismatch reports a worker registering a different run than the one
// the coordinator adopted.
var errMismatch = errors.New("coord: run mismatch")

// Config parameterizes a Coordinator. The zero value of every field has
// a usable default except Dir and Out, which are required.
type Config struct {
	// RangeSize is the lease granularity in indices (default 16).
	// Smaller ranges lose less work per dead worker but cost more
	// round-trips.
	RangeSize int
	// LeaseTTL is how long a lease lives without a heartbeat
	// (default 10s). Workers renew at TTL/3.
	LeaseTTL time.Duration
	// TimeoutBudget is how many lease expiries a single range tolerates
	// before it is declared failed (default 3). Expiries are the
	// transient failure mode — a dead worker, a partitioned network —
	// so the budget is looser than FailBudget.
	TimeoutBudget int
	// FailBudget is how many reported failures or verification-failed
	// payloads a single range tolerates before it is declared failed
	// (default 2). A range that crashes every worker it meets is
	// systematic; retrying it forever would deny the run a terminal
	// outcome.
	FailBudget int
	// StallTimeout forces a terminal outcome after this long without
	// any worker activity (default 10×LeaseTTL). It bounds the case
	// where every worker is gone and no lease is left to expire.
	StallTimeout time.Duration
	// Dir holds the per-range journals (required). Sealed range
	// journals found here at adoption are re-verified and credited, so
	// a restarted coordinator resumes instead of re-running.
	Dir string
	// Out is the merged results file written at the terminal outcome
	// (required).
	Out string
	// Manifest, when non-empty, is where the terminal manifest is
	// written (success and partial runs both get one; see dist.Manifest).
	Manifest string

	Obs  obs.Scope
	Logf func(format string, args ...any)
	// Now overrides the wall clock (tests).
	Now func() time.Time
}

// Range states.
const (
	statePending = iota
	stateLeased
	stateDone
	stateFailed
)

// rng is one leaseable range of the index grid.
type rng struct {
	lo, hi    int
	state     int
	worker    string
	leaseID   string
	expiry    time.Time
	timeouts  int // lease expiries charged so far
	failures  int // reported/verification failures charged so far
	path      string
	failedErr string // last failure reason, for the manifest
}

// Lease is a granted range lease.
type Lease struct {
	ID     string
	Lo, Hi int
	TTL    time.Duration
}

// LeaseResult is the outcome of a lease request: exactly one of Lease
// (work granted), Wait (all ranges busy; retry after the duration), or
// Terminal (the run is over; Outcome says how it ended) is meaningful.
type LeaseResult struct {
	Lease   *Lease
	Wait    time.Duration
	Outcome string
}

// Status is a point-in-time snapshot of the run.
type Status struct {
	Adopted     bool   `json:"adopted"`
	Spec        string `json:"spec,omitempty"`
	Total       int    `json:"total,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Ranges      int    `json:"ranges"`
	Pending     int    `json:"pending"`
	Leased      int    `json:"leased"`
	Done        int    `json:"done"`
	Failed      int    `json:"failed"`
	Outcome     string `json:"outcome,omitempty"`
}

// Coordinator is the lease state machine. All exported methods are
// safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	adopted  bool
	spec     string
	total    int
	fp       uint64
	ranges   []*rng // ordered by lo; never reordered
	leaseSeq int
	outcome  string // "" until terminal
	manifest *dist.Manifest
	finalErr error
	lastAct  time.Time
	done     chan struct{}

	mGranted, mExpired, mCompleted, mFailed, mHeartbeats, mRejected *obs.Counter
	gPending, gLeased, gDone, gFailed                               *obs.Gauge
}

// New builds a Coordinator, applying defaults. Dir and Out are
// required.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Dir == "" || cfg.Out == "" {
		return nil, errors.New("coord: Config.Dir and Config.Out are required")
	}
	if cfg.RangeSize <= 0 {
		cfg.RangeSize = 16
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.TimeoutBudget <= 0 {
		cfg.TimeoutBudget = 3
	}
	if cfg.FailBudget <= 0 {
		cfg.FailBudget = 2
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 10 * cfg.LeaseTTL
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, done: make(chan struct{})}
	if m := cfg.Obs.Metrics; m != nil {
		c.mGranted = m.Counter("coord_leases_granted_total", "Range leases granted to workers.")
		c.mExpired = m.Counter("coord_leases_expired_total", "Leases that died without a heartbeat and were reclaimed.")
		c.mCompleted = m.Counter("coord_ranges_completed_total", "Ranges completed and verified.")
		c.mFailed = m.Counter("coord_ranges_failed_total", "Ranges declared failed after exhausting a retry budget.")
		c.mHeartbeats = m.Counter("coord_heartbeats_total", "Lease renewals received.")
		c.mRejected = m.Counter("coord_payloads_rejected_total", "Completed payloads that failed journal verification.")
		c.gPending = m.Gauge("coord_ranges_pending", "Ranges awaiting a lease.")
		c.gLeased = m.Gauge("coord_ranges_leased", "Ranges currently leased.")
		c.gDone = m.Gauge("coord_ranges_done", "Ranges completed and verified.")
		c.gFailed = m.Gauge("coord_ranges_failed", "Ranges declared failed.")
	}
	c.lastAct = c.clock()
	return c, nil
}

//reunion:nondeterm-ok coordinator wall clock drives lease expiry and stall detection, never result bytes
func (c *Coordinator) clock() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// Done is closed when the run reaches its terminal outcome.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Outcome returns the terminal outcome, its manifest (nil until
// terminal; also nil for a failed run that never adopted a campaign),
// and the finalization error if the terminal merge itself failed.
func (c *Coordinator) Outcome() (string, *dist.Manifest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcome, c.manifest, c.finalErr
}

// Status snapshots the run.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{Adopted: c.adopted, Spec: c.spec, Total: c.total, Ranges: len(c.ranges), Outcome: c.outcome}
	if c.adopted {
		st.Fingerprint = fmt.Sprintf("%016x", c.fp)
	}
	for _, r := range c.ranges {
		switch r.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		case stateFailed:
			st.Failed++
		}
	}
	return st
}

// Register adopts the run on first call and verifies every later call
// against it: spec, total, and fingerprint must match exactly, for the
// same reason a journal header must — two workers with subtly different
// flags would interleave two experiments. Adoption also rescans Dir and
// credits any sealed range journal from a previous coordinator
// incarnation.
func (c *Coordinator) Register(worker, spec string, total int, fp uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch()
	if !c.adopted {
		if total <= 0 {
			return fmt.Errorf("coord: register with total %d", total)
		}
		c.adopted, c.spec, c.total, c.fp = true, spec, total, fp
		for lo := 0; lo < total; lo += c.cfg.RangeSize {
			hi := lo + c.cfg.RangeSize
			if hi > total {
				hi = total
			}
			c.ranges = append(c.ranges, &rng{lo: lo, hi: hi})
		}
		c.adoptSealed()
		c.updateGauges()
		c.cfg.Logf("coord: adopted %s: %d indices in %d ranges (%d already sealed)",
			spec, total, len(c.ranges), c.countState(stateDone))
		c.maybeFinalize()
		return nil
	}
	if spec != c.spec || total != c.total || fp != c.fp {
		return fmt.Errorf("%w: worker %s offers spec=%q total=%d fingerprint=%016x, run is spec=%q total=%d fingerprint=%016x",
			errMismatch, worker, spec, total, fp, c.spec, c.total, c.fp)
	}
	return nil
}

// adoptSealed credits ranges whose journal already exists sealed in
// Dir — the restart path. A journal that does not verify — a torn
// crash leftover, or one of an older journal format — is logged with
// the reason, removed, and its range re-runs. Called with mu held.
func (c *Coordinator) adoptSealed() {
	for _, r := range c.ranges {
		path := c.rangePath(r)
		if _, err := os.Stat(path); err != nil {
			continue
		}
		if err := c.verifySealed(path, r); err != nil {
			c.cfg.Logf("coord: discarding unverifiable %s: %v", path, err)
			os.Remove(path)
			continue
		}
		r.state, r.path = stateDone, path
	}
}

// verifySealed checks that path is a sealed, fingerprint-matching
// journal of exactly r's range.
func (c *Coordinator) verifySealed(path string, r *rng) error {
	j, err := dist.Open(path, c.plan(r))
	if err != nil {
		return err
	}
	defer j.Close()
	if !j.Complete() {
		return errors.New("journal is not sealed")
	}
	return nil
}

// plan is the journal plan of range r. Called with mu held.
func (c *Coordinator) plan(r *rng) dist.Plan {
	return dist.Plan{Spec: c.spec, Fingerprint: c.fp, Total: c.total, Lo: r.lo, Hi: r.hi}
}

func (c *Coordinator) rangePath(r *rng) string {
	return filepath.Join(c.cfg.Dir, fmt.Sprintf("range-%08d-%08d.jsonl", r.lo, r.hi))
}

// Lease grants the lowest pending range to worker, or says how long to
// wait, or reports the terminal outcome. Stale leases are reclaimed
// here as well as in Watch, so a busy run needs no background ticker.
func (c *Coordinator) Lease(worker string) LeaseResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch()
	now := c.clock()
	c.expireStale(now)
	c.maybeFinalize()
	if c.outcome != "" {
		return LeaseResult{Outcome: c.outcome}
	}
	if !c.adopted {
		return LeaseResult{Wait: 250 * time.Millisecond}
	}
	for _, r := range c.ranges {
		if r.state != statePending {
			continue
		}
		c.leaseSeq++
		r.state = stateLeased
		r.worker = worker
		r.leaseID = fmt.Sprintf("l%08d", c.leaseSeq)
		r.expiry = now.Add(c.cfg.LeaseTTL)
		c.mGranted.Inc()
		c.updateGauges()
		c.cfg.Obs.Trace.Instant("coord", "lease_grant",
			obs.Arg{Key: "worker", Val: worker}, obs.Arg{Key: "lo", Val: r.lo}, obs.Arg{Key: "hi", Val: r.hi})
		return LeaseResult{Lease: &Lease{ID: r.leaseID, Lo: r.lo, Hi: r.hi, TTL: c.cfg.LeaseTTL}}
	}
	// Nothing pending but leases are in flight: the caller should ask
	// again when the earliest one can have expired.
	wait := c.cfg.LeaseTTL
	for _, r := range c.ranges {
		if r.state == stateLeased {
			if d := r.expiry.Sub(now); d < wait {
				wait = d
			}
		}
	}
	if wait < 50*time.Millisecond {
		wait = 50 * time.Millisecond
	}
	return LeaseResult{Wait: wait}
}

// Heartbeat renews a live lease; ErrLeaseLost if it is gone.
func (c *Coordinator) Heartbeat(worker, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch()
	r := c.findLease(worker, leaseID)
	if r == nil {
		return ErrLeaseLost
	}
	r.expiry = c.clock().Add(c.cfg.LeaseTTL)
	c.mHeartbeats.Inc()
	return nil
}

// Complete accepts a finished range: body must be the range's record
// lines, exactly as the single-process stream carries them. They are
// written through a range journal — which enforces index order, line
// framing, and the checksummed footer — and the sealed file lands in
// Dir atomically. A payload that does not verify charges the range's
// failure budget and returns ErrBadPayload.
func (c *Coordinator) Complete(worker, leaseID string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch()
	r := c.findLease(worker, leaseID)
	if r == nil {
		return ErrLeaseLost
	}
	sp := c.cfg.Obs.Trace.StartSpan("coord", "verify_range",
		obs.Arg{Key: "lo", Val: r.lo}, obs.Arg{Key: "hi", Val: r.hi}, obs.Arg{Key: "worker", Val: worker})
	err := c.sealRange(r, body)
	sp.End(obs.Arg{Key: "err", Val: err != nil})
	if err != nil {
		c.cfg.Logf("coord: range [%d,%d) from %s rejected: %v", r.lo, r.hi, worker, err)
		c.mRejected.Inc()
		c.chargeFailure(r, err.Error())
		c.maybeFinalize()
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	r.state, r.path = stateDone, c.rangePath(r)
	r.worker, r.leaseID = "", ""
	c.mCompleted.Inc()
	c.updateGauges()
	c.maybeFinalize()
	return nil
}

// sealRange writes body's lines through a fresh range journal into a
// temp file and renames it into place. Any verification error leaves
// nothing behind.
func (c *Coordinator) sealRange(r *rng, body []byte) error {
	tmp, err := os.CreateTemp(c.cfg.Dir, ".range-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	tmp.Close()
	defer os.Remove(tmpName)
	j, err := dist.Create(tmpName, c.plan(r))
	if err != nil {
		return err
	}
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			j.Close()
			return errors.New("payload ends without a newline")
		}
		if err := j.WriteLine(body[:nl+1]); err != nil {
			j.Close()
			return err
		}
		body = body[nl+1:]
	}
	if err := j.Finish(); err != nil {
		j.Close()
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, c.rangePath(r))
}

// Fail reports that the worker could not produce the range (the run
// itself errored). It charges the failure budget.
func (c *Coordinator) Fail(worker, leaseID, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touch()
	r := c.findLease(worker, leaseID)
	if r == nil {
		return ErrLeaseLost
	}
	c.cfg.Logf("coord: range [%d,%d) failed on %s: %s", r.lo, r.hi, worker, reason)
	c.chargeFailure(r, reason)
	c.maybeFinalize()
	return nil
}

// Watch drives the clock-dependent transitions — lease expiry, the
// stall watchdog, and the finalization they can unblock — while no
// worker requests arrive. It returns when the run is terminal or ctx
// is cancelled.
func (c *Coordinator) Watch(ctx context.Context) {
	tick := c.cfg.LeaseTTL / 2
	if tick > time.Second {
		tick = time.Second
	}
	if tick <= 0 {
		tick = 50 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case <-t.C:
			c.mu.Lock()
			now := c.clock()
			c.expireStale(now)
			if now.Sub(c.lastAct) >= c.cfg.StallTimeout {
				c.stallOut()
			}
			c.maybeFinalize()
			c.mu.Unlock()
		}
	}
}

// touch records worker activity for the stall watchdog. Called with mu
// held.
func (c *Coordinator) touch() { c.lastAct = c.clock() }

// findLease returns the range currently leased as (worker, leaseID),
// or nil. Called with mu held.
func (c *Coordinator) findLease(worker, leaseID string) *rng {
	for _, r := range c.ranges {
		if r.state == stateLeased && r.leaseID == leaseID && r.worker == worker {
			return r
		}
	}
	return nil
}

// expireStale reclaims leases past their TTL, charging the timeout
// budget. Called with mu held.
func (c *Coordinator) expireStale(now time.Time) {
	for _, r := range c.ranges {
		if r.state != stateLeased || now.Before(r.expiry) {
			continue
		}
		c.mExpired.Inc()
		c.cfg.Logf("coord: lease %s on range [%d,%d) expired (worker %s, expiry %d/%d)",
			r.leaseID, r.lo, r.hi, r.worker, r.timeouts+1, c.cfg.TimeoutBudget)
		c.cfg.Obs.Trace.Instant("coord", "lease_expired",
			obs.Arg{Key: "worker", Val: r.worker}, obs.Arg{Key: "lo", Val: r.lo}, obs.Arg{Key: "hi", Val: r.hi})
		r.worker, r.leaseID = "", ""
		r.timeouts++
		if r.timeouts >= c.cfg.TimeoutBudget {
			r.state = stateFailed
			r.failedErr = fmt.Sprintf("lease expired %d times", r.timeouts)
			c.mFailed.Inc()
		} else {
			r.state = statePending
		}
	}
	c.updateGauges()
}

// chargeFailure books one failure against r, failing it when the
// budget is spent and re-queuing it otherwise. Called with mu held.
func (c *Coordinator) chargeFailure(r *rng, reason string) {
	r.worker, r.leaseID = "", ""
	r.failures++
	r.failedErr = reason
	if r.failures >= c.cfg.FailBudget {
		r.state = stateFailed
		c.mFailed.Inc()
	} else {
		r.state = statePending
	}
	c.updateGauges()
}

// stallOut forces every non-done range to failed so the run can
// finalize — the watchdog path when all workers are gone. Called with
// mu held.
func (c *Coordinator) stallOut() {
	if c.outcome != "" {
		return
	}
	c.cfg.Logf("coord: no worker activity for %s — forcing a terminal outcome", c.cfg.StallTimeout)
	for _, r := range c.ranges {
		if r.state == statePending || r.state == stateLeased {
			r.state = stateFailed
			r.failedErr = "stalled: no worker activity"
			c.mFailed.Inc()
		}
	}
	if !c.adopted {
		// Nothing was ever registered; there is no campaign to account
		// for, only a failed coordination.
		c.outcome = OutcomeFailed
		c.finalErr = errors.New("coord: stalled before any worker registered")
		close(c.done)
	}
	c.updateGauges()
}

// maybeFinalize declares the terminal outcome once no range is pending
// or leased: the done ranges go through one non-strict dist.Merge,
// whose manifest is the outcome, and the failed ranges' reasons join
// its accounting. Called with mu held.
func (c *Coordinator) maybeFinalize() {
	if c.outcome != "" || !c.adopted {
		return
	}
	var paths []string
	for _, r := range c.ranges {
		switch r.state {
		case statePending, stateLeased:
			return // work remains
		case stateDone:
			paths = append(paths, r.path)
		}
	}
	m := &dist.Manifest{Spec: c.spec, Fingerprint: fmt.Sprintf("%016x", c.fp), Total: c.total,
		Outcome: OutcomeFailed, Missing: []dist.IndexRange{{Lo: 0, Hi: c.total}}}
	if len(paths) > 0 {
		// Sealed journals that contradict each other, or a disk gone bad,
		// leave nothing merged and nothing trustworthy.
		m, c.finalErr = dist.Merge(c.cfg.Out, paths, false, nil, c.cfg.Obs)
	}
	c.outcome, c.manifest = OutcomeFailed, m
	if c.finalErr == nil {
		c.outcome = m.Outcome
		for _, r := range c.ranges {
			if r.state == stateFailed {
				m.Failed = append(m.Failed, dist.JournalFailure{
					Range: dist.IndexRange{Lo: r.lo, Hi: r.hi}, Err: r.failedErr,
				})
			}
		}
		if c.cfg.Manifest != "" {
			c.finalErr = m.WriteFile(c.cfg.Manifest)
		}
	}
	c.cfg.Logf("coord: terminal outcome %q (%d of %d ranges done)", c.outcome, len(paths), len(c.ranges))
	close(c.done)
}

func (c *Coordinator) countState(st int) int {
	n := 0
	for _, r := range c.ranges {
		if r.state == st {
			n++
		}
	}
	return n
}

// updateGauges refreshes the state gauges. Called with mu held.
func (c *Coordinator) updateGauges() {
	if c.gPending == nil {
		return
	}
	c.gPending.Set(int64(c.countState(statePending)))
	c.gLeased.Set(int64(c.countState(stateLeased)))
	c.gDone.Set(int64(c.countState(stateDone)))
	c.gFailed.Set(int64(c.countState(stateFailed)))
}
