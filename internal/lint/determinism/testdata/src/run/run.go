// Package run exercises taint propagation into the Sink boundary: the
// flagged functions reach a sink, the clean ones either do not or use
// one of the accepted idioms.
package run

import (
	"math/rand"
	"sort"
	"time"

	"res"
	"sweep"
)

// emitAll reaches the sink through the interface: every implementation
// of sweep.Sink is a resolution candidate.
func emitAll(s sweep.Sink, rows []string) {
	for _, r := range rows {
		s.Write(r)
	}
}

func runner(c *res.Collector, counts map[string]int) {
	start := time.Now() // want `time\.Now`
	_ = start
	seed := rand.Intn(10) // want `math/rand`
	_ = seed
	rng := rand.New(rand.NewSource(1))
	_ = rng.Intn(10)
	for k := range counts { // want `map`
		c.Write(k)
	}
}

func sortedRunner(s sweep.Sink, counts map[string]int) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Write(k)
	}
}

func pruneRunner(c *res.Collector, m map[string]int) {
	for k := range m {
		delete(m, k)
	}
	c.Write("pruned")
}

// hostOnly never reaches a sink, so host time is fine here.
func hostOnly() time.Time { return time.Now() }

// timedEmit measures wall-clock latency around the emit by design.
// //reunion:nondeterm-ok host latency telemetry only
func timedEmit(c *res.Collector) {
	t0 := time.Now()
	c.Write(time.Since(t0).String())
}

func mixedEmit(c *res.Collector) {
	t0 := time.Now() //reunion:nondeterm-ok host latency, not emitted
	_ = t0
	c.Write("row")
}

// deferredEmit hides the violation in a closure; the body is still
// attributed to the declaring function.
func deferredEmit(c *res.Collector) {
	f := func() { _ = time.Now() } // want `time\.Now`
	f()
	c.Write("row")
}

func computeDigest(rows []string) uint64 {
	var h uint64
	for _, r := range rows {
		h = h*131 + uint64(len(r))
	}
	return h
}

func digestCaller(rows map[string]string) uint64 {
	for k := range rows { // want `map`
		_ = k
	}
	return computeDigest(nil)
}

var _ = emitAll
var _ = runner
var _ = sortedRunner
var _ = pruneRunner
var _ = hostOnly
var _ = timedEmit
var _ = mixedEmit
var _ = deferredEmit
var _ = digestCaller
