package coord

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"reunion/internal/dist"
)

// fakeClock is a hand-cranked wall clock for exercising lease expiry
// without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// line is the deterministic record carried by index i — the stand-in
// for a simulation record, shaped like one (a JSONL line with an index
// field) so the journal verifier accepts it.
func line(i int) []byte {
	return []byte(fmt.Sprintf(`{"index":%d,"v":"r%d"}`+"\n", i, i))
}

// slice returns the concatenated record lines of [lo, hi).
func slice(lo, hi int) []byte {
	var b bytes.Buffer
	for i := lo; i < hi; i++ {
		b.Write(line(i))
	}
	return b.Bytes()
}

const (
	testSpec = "coord-test"
	testFP   = uint64(0xfeed)
)

func newTestCoord(t *testing.T, clk *fakeClock, mutate func(*Config)) (*Coordinator, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		RangeSize: 4,
		LeaseTTL:  10 * time.Second,
		Dir:       filepath.Join(dir, "state"),
		Out:       filepath.Join(dir, "merged.jsonl"),
		Manifest:  filepath.Join(dir, "manifest.json"),
		Logf:      t.Logf,
	}
	if clk != nil {
		cfg.Now = clk.Now
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dir
}

func mustLease(t *testing.T, c *Coordinator, worker string) *Lease {
	t.Helper()
	res := c.Lease(worker)
	if res.Lease == nil {
		t.Fatalf("no lease for %s: %+v", worker, res)
	}
	return res.Lease
}

// The happy path: grant → complete for every range, terminal success,
// merged output byte-identical to the single-process stream.
func TestGrantCompleteSuccess(t *testing.T) {
	clk := newFakeClock()
	c, dir := newTestCoord(t, clk, nil)
	if err := c.Register("w1", testSpec, 10, testFP); err != nil {
		t.Fatal(err)
	}
	for {
		res := c.Lease("w1")
		if res.Outcome != "" {
			if res.Outcome != OutcomeSuccess {
				t.Fatalf("outcome = %q", res.Outcome)
			}
			break
		}
		l := res.Lease
		if l == nil {
			t.Fatalf("unexpected wait: %+v", res)
		}
		if err := c.Complete("w1", l.ID, slice(l.Lo, l.Hi)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done not closed at terminal outcome")
	}
	got, err := os.ReadFile(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slice(0, 10)) {
		t.Fatalf("merged stream:\n%s\nwant:\n%s", got, slice(0, 10))
	}
	outcome, m, ferr := c.Outcome()
	if outcome != OutcomeSuccess || ferr != nil || m == nil || !m.Success() || m.Records != 10 {
		t.Fatalf("Outcome() = %q, %+v, %v", outcome, m, ferr)
	}
}

// Leases are granted lowest-range-first, and a second worker is told to
// wait while everything is leased out.
func TestLeaseOrderAndWait(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoord(t, clk, nil)
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	l1 := mustLease(t, c, "w1")
	l2 := mustLease(t, c, "w2")
	if l1.Lo != 0 || l1.Hi != 4 || l2.Lo != 4 || l2.Hi != 8 {
		t.Fatalf("grants: [%d,%d) then [%d,%d)", l1.Lo, l1.Hi, l2.Lo, l2.Hi)
	}
	res := c.Lease("w3")
	if res.Lease != nil || res.Outcome != "" || res.Wait <= 0 {
		t.Fatalf("third lease was not a wait: %+v", res)
	}
}

// A heartbeat keeps a lease alive past its original TTL; silence lets
// it expire, and the range is re-leased to whoever asks next.
func TestHeartbeatExpiryRelease(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoord(t, clk, nil)
	if err := c.Register("w1", testSpec, 4, testFP); err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")

	clk.Advance(8 * time.Second)
	if err := c.Heartbeat("w1", l.ID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second) // 16s total: dead without renewal
	if res := c.Lease("w2"); res.Lease != nil {
		t.Fatalf("renewed lease was reclaimed: %+v", res.Lease)
	}

	clk.Advance(11 * time.Second) // now past the renewed expiry
	l2 := mustLease(t, c, "w2")
	if l2.Lo != l.Lo || l2.Hi != l.Hi || l2.ID == l.ID {
		t.Fatalf("re-lease: %+v vs %+v", l2, l)
	}
	// The dead worker's late result must be refused — w2 owns the range.
	if err := c.Heartbeat("w1", l.ID); err != ErrLeaseLost {
		t.Fatalf("stale heartbeat: %v", err)
	}
	if err := c.Complete("w1", l.ID, slice(0, 4)); err != ErrLeaseLost {
		t.Fatalf("stale complete: %v", err)
	}
	// The live lease still works.
	if err := c.Complete("w2", l2.ID, slice(0, 4)); err != nil {
		t.Fatal(err)
	}
}

// Exhausting the timeout budget fails the range; with nothing
// completed the run's terminal outcome is failed, with a manifest
// accounting for every index.
func TestTimeoutBudgetExhausted(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoord(t, clk, nil)
	if err := c.Register("w1", testSpec, 4, testFP); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if l := mustLease(t, c, "w1"); l.Lo != 0 {
			t.Fatalf("round %d: lease %+v", i, l)
		}
		clk.Advance(11 * time.Second)
	}
	res := c.Lease("w1")
	if res.Outcome != OutcomeFailed {
		t.Fatalf("after 3 expiries: %+v", res)
	}
	outcome, m, _ := c.Outcome()
	if outcome != OutcomeFailed || m == nil {
		t.Fatalf("Outcome() = %q, %+v", outcome, m)
	}
	if len(m.Missing) != 1 || m.Missing[0] != (dist.IndexRange{Lo: 0, Hi: 4}) {
		t.Fatalf("manifest missing = %+v", m.Missing)
	}
	if len(m.Failed) != 1 {
		t.Fatalf("manifest failed = %+v", m.Failed)
	}
}

// A bad payload charges the failure budget (not the timeout budget) and
// the range is retried until that budget is spent; with one good range
// done the terminal outcome is partial, and the merged file holds
// exactly the verified slice.
func TestFailureBudgetAndPartialOutcome(t *testing.T) {
	clk := newFakeClock()
	c, dir := newTestCoord(t, clk, nil)
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1") // [0,4)
	if err := c.Complete("w1", l.ID, slice(0, 4)); err != nil {
		t.Fatal(err)
	}

	// Garbage payload: wrong indices for the range.
	l = mustLease(t, c, "w1") // [4,8)
	if err := c.Complete("w1", l.ID, slice(0, 4)); err == nil {
		t.Fatal("mis-indexed payload accepted")
	}
	// First failure re-queues; the second (default FailBudget 2) fails
	// the range for good.
	l = mustLease(t, c, "w1")
	if l.Lo != 4 {
		t.Fatalf("range not re-queued after one failure: %+v", l)
	}
	if err := c.Fail("w1", l.ID, "simulated crash"); err != nil {
		t.Fatal(err)
	}

	res := c.Lease("w1")
	if res.Outcome != OutcomePartial {
		t.Fatalf("outcome: %+v", res)
	}
	got, err := os.ReadFile(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slice(0, 4)) {
		t.Fatalf("partial merge:\n%s\nwant:\n%s", got, slice(0, 4))
	}
	_, m, _ := c.Outcome()
	if m == nil || len(m.Missing) != 1 || m.Missing[0] != (dist.IndexRange{Lo: 4, Hi: 8}) {
		t.Fatalf("manifest: %+v", m)
	}
	if len(m.Failed) != 1 || m.Failed[0].Err != "simulated crash" {
		t.Fatalf("manifest failed entries: %+v", m.Failed)
	}
	// The manifest landed on disk too.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
}

// A worker offering different flags (fingerprint) than the adopted run
// must be turned away, same as a journal from a different run.
func TestRegisterMismatch(t *testing.T) {
	c, _ := newTestCoord(t, newFakeClock(), nil)
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatalf("re-register of the same run: %v", err)
	}
	if err := c.Register("w2", testSpec, 8, 0xbad); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	if err := c.Register("w2", testSpec, 12, testFP); err == nil {
		t.Fatal("total mismatch accepted")
	}
}

// A restarted coordinator adopts the sealed range journals of its
// predecessor: already-completed work is credited, not re-run.
func TestRestartAdoptsSealedRanges(t *testing.T) {
	clk := newFakeClock()
	c1, dir := newTestCoord(t, clk, nil)
	if err := c1.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c1, "w1")
	if err := c1.Complete("w1", l.ID, slice(0, 4)); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh coordinator over the same state dir.
	cfg := Config{
		RangeSize: 4, LeaseTTL: 10 * time.Second, Now: clk.Now, Logf: t.Logf,
		Dir: filepath.Join(dir, "state"),
		Out: filepath.Join(dir, "merged.jsonl"),
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Register("w2", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	l2 := mustLease(t, c2, "w2")
	if l2.Lo != 4 {
		t.Fatalf("adopted run re-leased a sealed range: %+v", l2)
	}
	if err := c2.Complete("w2", l2.ID, slice(4, 8)); err != nil {
		t.Fatal(err)
	}
	if res := c2.Lease("w2"); res.Outcome != OutcomeSuccess {
		t.Fatalf("outcome: %+v", res)
	}
	got, err := os.ReadFile(cfg.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slice(0, 8)) {
		t.Fatal("restarted run's merge is not the single-process stream")
	}
}

// The stall watchdog forces a terminal outcome when every worker is
// gone and no lease is left to expire.
func TestStallWatchdog(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoord(t, clk, func(cfg *Config) {
		cfg.StallTimeout = 30 * time.Second
	})
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	l := mustLease(t, c, "w1")
	if err := c.Complete("w1", l.ID, slice(0, 4)); err != nil {
		t.Fatal(err)
	}
	// Nobody ever leases [4,8). Crank the clock past the stall window
	// and let the watchdog body run once (driven directly, not via the
	// ticker, to keep the test clock-deterministic).
	clk.Advance(31 * time.Second)
	c.mu.Lock()
	c.expireStale(c.clock())
	if c.clock().Sub(c.lastAct) >= c.cfg.StallTimeout {
		c.stallOut()
	}
	c.maybeFinalize()
	c.mu.Unlock()

	outcome, m, _ := c.Outcome()
	if outcome != OutcomePartial {
		t.Fatalf("stalled outcome = %q", outcome)
	}
	if len(m.Missing) != 1 || m.Missing[0] != (dist.IndexRange{Lo: 4, Hi: 8}) {
		t.Fatalf("stalled manifest: %+v", m)
	}
}

// Concurrent workers hammering the state machine stay consistent: every
// range is completed exactly once and the merge is byte-identical.
// (Run under -race in CI.)
func TestConcurrentWorkersRace(t *testing.T) {
	c, dir := newTestCoord(t, nil, func(cfg *Config) {
		cfg.RangeSize = 2
		cfg.LeaseTTL = time.Minute
	})
	const total = 40
	if err := c.Register("w0", testSpec, total, testFP); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker := fmt.Sprintf("w%d", id)
			for {
				res := c.Lease(worker)
				if res.Outcome != "" {
					return
				}
				if res.Lease == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				if err := c.Complete(worker, res.Lease.ID, slice(res.Lease.Lo, res.Lease.Hi)); err != nil {
					t.Errorf("%s: %v", worker, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	outcome, _, ferr := c.Outcome()
	if outcome != OutcomeSuccess || ferr != nil {
		t.Fatalf("outcome = %q, %v", outcome, ferr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, slice(0, total)) {
		t.Fatal("concurrent run's merge is not the single-process stream")
	}
}

// A range journal of an older format found at adoption is refused with
// an error naming its format, logged, and its range re-runs.
func TestAdoptionRerunsOldFormatRange(t *testing.T) {
	var logs []string
	c, dir := newTestCoord(t, newFakeClock(), func(cfg *Config) {
		cfg.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	})
	v1 := fmt.Sprintf(`{"dist_header":{"format":"reunion-dist-journal/1","spec":%q,"fingerprint":%d,"shard":0,"nshards":1,"total":8,"ranged":true,"range_lo":0,"range_hi":4}}`+"\n",
		testSpec, testFP)
	state := filepath.Join(dir, "state")
	if err := os.WriteFile(filepath.Join(state, "range-00000000-00000004.jsonl"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("w1", testSpec, 8, testFP); err != nil {
		t.Fatal(err)
	}
	if l := mustLease(t, c, "w1"); l.Lo != 0 {
		t.Fatalf("old-format range was credited, first lease is %+v", l)
	}
	found := false
	for _, l := range logs {
		found = found || strings.Contains(l, "reunion-dist-journal/1")
	}
	if !found {
		t.Fatalf("adoption did not log the refused format: %q", logs)
	}
}
