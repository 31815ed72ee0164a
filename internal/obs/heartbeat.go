package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Heartbeat prints a periodic one-line progress report to W (stderr in
// the CLIs): done/total, completion rate, ETA, and the time since the
// last completed unit — the per-shard lag signal that makes a stalled
// worker visible in one glance instead of after the deadline.
//
// The work loop calls Tick once per completed unit (cheap: two atomic
// stores); a background goroutine started by Start does the formatting
// on its own clock, so the hot path never formats anything.
type Heartbeat struct {
	Label string        // printed as the line prefix, e.g. "sweep" or "shard 2/8"
	Total int64         // expected units; <= 0 → printed as "?"
	Every time.Duration // print interval; must be positive
	W     io.Writer     // destination; nil → no output

	done     atomic.Int64
	lastTick atomic.Int64 // UnixNano of the most recent Tick

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// Tick records one completed unit of work.
func (h *Heartbeat) Tick() {
	if h == nil {
		return
	}
	h.done.Add(1)
	h.lastTick.Store(time.Now().UnixNano())
}

// Done returns the number of units recorded so far.
func (h *Heartbeat) Done() int64 {
	if h == nil {
		return 0
	}
	return h.done.Load()
}

// Start launches the reporting goroutine and returns a stop function
// (idempotent) that prints one final line and terminates it. A nil
// heartbeat or nil W returns a no-op stop.
func (h *Heartbeat) Start() (stop func()) {
	if h == nil || h.W == nil {
		return func() {}
	}
	h.stopCh = make(chan struct{})
	h.doneCh = make(chan struct{})
	start := time.Now()
	go func() {
		defer close(h.doneCh)
		t := time.NewTicker(h.Every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.report(start, false)
			case <-h.stopCh:
				h.report(start, true)
				return
			}
		}
	}()
	return func() {
		h.stopOnce.Do(func() { close(h.stopCh) })
		<-h.doneCh
	}
}

// report formats one heartbeat line.
func (h *Heartbeat) report(start time.Time, final bool) {
	done := h.done.Load()
	elapsed := time.Since(start)
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done) / elapsed.Seconds()
	}

	totalStr := "?"
	pct := ""
	eta := ""
	if h.Total > 0 {
		totalStr = fmt.Sprintf("%d", h.Total)
		pct = fmt.Sprintf(" (%.1f%%)", 100*float64(done)/float64(h.Total))
		if rate > 0 && done < h.Total {
			left := time.Duration(float64(h.Total-done)/rate) * time.Second
			eta = fmt.Sprintf(" eta %s", left.Round(time.Second))
		}
	}

	lag := ""
	if last := h.lastTick.Load(); last > 0 && !final {
		lag = fmt.Sprintf(" last %s ago", time.Since(time.Unix(0, last)).Round(100*time.Millisecond))
	} else if last == 0 && done == 0 && !final {
		lag = " no progress yet"
	}

	tag := "heartbeat"
	if final {
		tag = "done"
	}
	fmt.Fprintf(h.W, "%s: %s %d/%s%s %.1f/s%s%s\n", tag, h.Label, done, totalStr, pct, rate, eta, lag)
}
