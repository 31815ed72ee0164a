// Command bench is the repository benchmark. It runs one named workload
// for a host-time budget, checks the simulator's outputs, and prints one
// JSON result line on standard output:
//
//	bash bench/run.sh --workload sim-apache-reunion --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics. With --trace 1 the
// budget is split: the first half runs untraced, the second under a CPU
// profile (and, for the CLI workloads, the CLIs' span traces), and the
// line holds the per-layer metrics. Every metric the run computed is also
// listed on standard error. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"reunion"
)

// buildDir holds everything a run builds or writes, relative to the
// repository root the benchmark runs from.
const buildDir = ".bench_build"

// runDeadline bounds one invocation, CLI children included.
const runDeadline = 170 * time.Second

// A reported metric is one the result line carries, with the unit
// BENCHMARK.json declares for it.
type reported struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints and perLayer those a
// traced run prints, in BENCHMARK.json's order. Every workload reports
// all of them; the per-layer metrics only some workloads have appear in
// the standard-error listing alone.
var (
	endToEnd = []reported{
		{"ops_per_s", "ops/s"}, {"wall_s", "s"}, {"setup_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
	}
	perLayer = []reported{
		{"cpu.self_s", "s"}, {"sim.self_s", "s"}, {"cache.self_s", "s"}, {"coherence.self_s", "s"},
		{"profile.total_s", "s"},
		{"warm.warmup_ms_per_op", "ms"}, {"warm.restore_ms_per_op", "ms"},
		{"host.cpu_util", "frac"}, {"trace.overhead_frac", "frac"}, {"trace.phase_gap_frac", "frac"},
	}
)

type benchWorkload struct {
	name string
	run  func(*bench) error
}

var workloads = []benchWorkload{
	{"sim-apache-reunion", func(b *bench) error { return runSim(b, reunion.ModeReunion) }},
	{"sim-apache-nonredundant", func(b *bench) error { return runSim(b, reunion.ModeNonRedundant) }},
	{"campaign", func(b *bench) error { return runCLI(b, campaignWorkload) }},
	{"fleet-store", func(b *bench) error { return runCLI(b, fleetStoreWorkload) }},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation.
type bench struct {
	ctx      context.Context
	workload string
	seed     uint64
	budget   time.Duration // host time of the timed rounds (each half when traced)
	traced   bool
	update   bool
	dir      string // scratch directory, removed at exit
	traceDir string // traced-run artifacts, kept for inspection
	expected expectations
	digest   string // output digest of the first round

	metrics           map[string]metric
	walls             []float64 // untraced round wall times, in run order
	attempted, failed int
}

func main() { os.Exit(run()) }

func run() int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "host seconds of timed rounds")
	trace := flag.Int("trace", 0, "0: print end-to-end metrics; 1: also run traced and print per-layer metrics")
	update := flag.Bool("update", false, "record this run's output digest in "+expectedPath+" instead of checking it")
	flag.Parse()

	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} --seed N --seconds S --trace {0|1} [--update]\n", strings.Join(names, "|"))
		return 2
	}
	exp, err := loadExpectations(expectedPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{
		ctx:      ctx,
		workload: w.name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		update:   *update,
		dir:      filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		expected: exp,
		metrics:  map[string]metric{},
	}
	if b.traced {
		b.budget /= 2
		b.traceDir = filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d", w.name, b.seed))
		if err := os.RemoveAll(b.traceDir); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.dir)

	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if b.update {
		b.expected.set(b.workload, b.seed, b.digest)
		if err := b.expected.write(expectedPath); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	b.list(os.Stderr)
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	res, err := b.result(want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// attempt counts n operations; fail marks n of them failed, with the reason.
func (b *bench) attempt(n int) { b.attempted += n }

func (b *bench) fail(n int, why string) {
	b.failed += n
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d failed: %s\n", b.workload, b.seed, n, why)
}

// checkDigest compares a round's output digest with the first round's
// and, when expected.json pins this workload and seed, with the pinned
// digest.
func (b *bench) checkDigest(d string) error {
	if b.digest == "" {
		b.digest = d
	} else if d != b.digest {
		return fmt.Errorf("output digest %.16s differs from the first round's %.16s", d, b.digest)
	}
	if want, ok := b.expected.get(b.workload, b.seed); ok && !b.update && d != want {
		return fmt.Errorf("output digest %.16s, %s pins %.16s", d, expectedPath, want)
	}
	return nil
}

// setRounds records the end-to-end metrics of the untraced rounds. The
// rounds of a run do identical work, so their differences are host
// interference, which only ever slows a round down: each metric takes
// its best round, the value least disturbed by it. The median round wall
// time is listed beside it.
func (b *bench) setRounds(rs []sample) {
	wall, cpu, rate := make([]float64, len(rs)), make([]float64, len(rs)), make([]float64, len(rs))
	for i, r := range rs {
		wall[i], cpu[i] = r.wall.Seconds(), r.cpu.Seconds()
		rate[i] = r.ops / wall[i]
	}
	b.set("ops_per_s", "ops/s", slices.Max(rate))
	b.set("wall_s", "s", slices.Min(wall))
	b.set("cpu_s", "s", slices.Min(cpu))
	b.set("bench.wall_median_s", "s", median(wall))
	b.set("bench.rounds", "count", float64(len(rs)))
	b.walls = wall
}

// setOverhead records how much slower the best traced round ran than the
// best untraced one.
func (b *bench) setOverhead(plain, traced []sample) {
	b.set("trace.overhead_frac", "frac", minWall(traced)/minWall(plain)-1)
	b.set("bench.traced_rounds", "count", float64(len(traced)))
}

func (b *bench) result(names []reported) (result, error) {
	r := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	for _, want := range names {
		m, ok := b.metrics[want.name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", want.name)
		}
		if m.Unit != want.unit {
			return r, fmt.Errorf("metric %s measured in %s, declared in %s", want.name, m.Unit, want.unit)
		}
		r.Metrics[want.name] = m
	}
	return r, nil
}

// list prints every metric the run computed, one per line.
func (b *bench) list(w io.Writer) {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "bench: %s seed %d: %d ops attempted, %d failed\n", b.workload, b.seed, b.attempted, b.failed)
	fmt.Fprintf(w, "bench: untraced round wall times (s): %.4g\n", b.walls)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(w, "  %-32s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	if b.traced {
		fmt.Fprintf(w, "bench: traced-run artifacts in %s\n", b.traceDir)
	}
}

// A sample is one timed round: a fixed amount of work.
type sample struct {
	wall, cpu time.Duration
	ops       float64 // kinstr committed (sim) or trials run (CLI)
}

// timeRounds calls round until budget has passed: at least once, and
// never starting a round that, judged by the mean so far, would end past
// the budget.
func timeRounds(budget time.Duration, round func() (sample, error)) ([]sample, error) {
	var rs []sample
	start := time.Now()
	for {
		r, err := round()
		if err != nil {
			return rs, err
		}
		rs = append(rs, r)
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(len(rs)) > budget {
			return rs, nil
		}
	}
}

// phases accumulates host time by phase name.
type phases map[string]time.Duration

// since charges the time from t to now to the phase and returns now.
func (p phases) since(name string, t time.Time) time.Time {
	now := time.Now()
	p[name] += now.Sub(t)
	return now
}

func (p phases) total() time.Duration {
	var d time.Duration
	for _, v := range p {
		d += v
	}
	return d
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minWall(rs []sample) float64 {
	w := rs[0].wall
	for _, r := range rs[1:] {
		w = min(w, r.wall)
	}
	return w.Seconds()
}

// percentile returns the nearest-rank p-quantile of xs, and false when
// fewer than ten samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s)) * p))
	if rank < 1 || len(s)-rank < 10 {
		return 0, false
	}
	return s[rank-1], true
}
