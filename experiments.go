package reunion

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"reunion/internal/obs"
	"reunion/internal/stats"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// ExpConfig sizes an experiment campaign. Quick settings keep
// `reunion-sweep -experiment all` to about a minute and are the scale
// TestExperimentShapes checks; Full settings match the paper's
// methodology more closely (longer windows, several matched seeds).
//
// Every table/figure reproduction is declared as a sweep spec (a cross
// product of workload × variant axes) and executed through the
// internal/sweep worker-pool engine, so a campaign saturates the machine
// instead of running one simulation at a time. Results are assembled in
// point-index order, which keeps every figure deterministic for any
// Parallelism.
type ExpConfig struct {
	Seeds         []uint64
	WarmCycles    int64
	MeasureCycles int64
	// Table3Cycles extends the measurement window for event-rate
	// experiments (input incoherence under global phantoms is rare, so it
	// needs long windows to count).
	Table3Cycles int64
	Out          io.Writer

	// Parallelism bounds the sweep engine's worker pool for each
	// experiment matrix (0 = GOMAXPROCS).
	Parallelism int

	// Kernel selects the simulation kernel for every run in the campaign
	// (default KernelFastForward; results are bit-identical either way).
	Kernel Kernel

	// Trace is the campaign's span tracer: the sweep engine and the
	// warm-state cache report spans into it. Set it through
	// Observe so the cache is wired too. Nil = off. Pure observer: results
	// are byte-identical with or without a tracer.
	Trace *obs.Tracer

	// base memoizes non-redundant baseline runs: sweeps reuse the same
	// baseline across latencies and modes, and the singleflight entries
	// keep concurrent cells from running the same baseline twice.
	base *memo[Result]

	// warm is the campaign-wide checkpointed warm-state cache: cells that
	// differ only in the measurement window restore a shared warm snapshot instead of
	// re-warming from cycle 0. Results are bit-identical either way.
	warm *WarmCache
}

// QuickExp returns the campaign `reunion-sweep -experiment` runs by
// default and TestExperimentShapes checks: one seed, 25k/20k-cycle
// windows, 60k for Table 3.
func QuickExp(out io.Writer) ExpConfig {
	return ExpConfig{
		Seeds:         DefaultSeeds(1),
		WarmCycles:    25_000,
		MeasureCycles: 20_000,
		Table3Cycles:  60_000,
		Out:           out,
		base:          newMemo[Result](),
		warm:          NewWarmCache(),
	}
}

// FullExp returns a campaign sized like the paper's sampling methodology
// (DefaultOptions' window).
func FullExp(out io.Writer) ExpConfig {
	o := DefaultOptions()
	return ExpConfig{
		Seeds:         DefaultSeeds(3),
		WarmCycles:    o.WarmCycles,
		MeasureCycles: o.MeasureCycles,
		Table3Cycles:  400_000,
		Out:           out,
		base:          newMemo[Result](),
		warm:          NewWarmCache(),
	}
}

// memo is a per-key singleflight cache: the first caller for a key
// computes the value, concurrent callers with the same key block on the
// same entry instead of duplicating the work. Baseline runs (normalized
// sweeps) and golden runs (fault-injection trials) both sit behind one.
type memo[V any] struct {
	mu sync.Mutex
	m  map[string]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

func newMemo[V any]() *memo[V] {
	return &memo[V]{m: make(map[string]*memoEntry[V])}
}

func (c *memo[V]) do(key string, f func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = f() })
	return e.val, e.err
}

// baseline runs (or reuses) the non-redundant baseline for o. The cache
// key is the warm key plus the measurement window, with the comparison
// latency and phantom strength normalised: neither affects a run without
// redundant pairs, which is what lets one baseline serve a whole latency
// sweep.
func (c ExpConfig) baseline(o Options) (Result, error) {
	if c.base == nil {
		return Run(o)
	}
	return c.base.do(baselineKey(o), func() (Result, error) { return Run(o) })
}

func baselineKey(o Options) string {
	o.Config.CompareLatency, o.Config.L2.Phantom = 0, 0
	return fmt.Sprintf("%s|%d", warmKey(o), o.MeasureCycles)
}

// Observe attaches a tracer to the campaign. Beyond storing it for the
// sweep engine, it attaches it to the shared warm-state cache — which is
// why callers should use this instead of assigning Trace directly.
func (c *ExpConfig) Observe(tr *obs.Tracer) {
	c.Trace = tr
	if c.warm != nil {
		c.warm.Observe(tr)
	}
}

func (c ExpConfig) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// opts is the base Options of every run in the campaign.
func (c ExpConfig) opts() Options {
	o := DefaultOptions()
	o.WarmCycles, o.MeasureCycles = c.WarmCycles, c.MeasureCycles
	o.Config.Kernel, o.Warm = c.Kernel, c.warm
	return o
}

// normalized measures o's normalized IPC across the campaign's seeds: o is
// the test run, and its baseline is the same Options under
// ModeNonRedundant, so system-level knobs (TLB discipline, consistency
// model) configure the whole comparison, as in the paper. Baselines come
// from the campaign's memo.
func (c ExpConfig) normalized(o Options) (float64, error) {
	base := o
	base.Mode = ModeNonRedundant
	cmp, err := compare(base, o, c.Seeds, c.baseline)
	return cmp.Normalized, err
}

// WorkloadAxis sweeps Options.Workload over the given profiles. It and the
// axes below are the one definition of each Options axis — its name and
// value labels — for the paper experiments and the reunion-sweep and
// reunion-inject matrices, whose journal fingerprints and results records
// carry those labels.
func WorkloadAxis(ps []workload.Params) sweep.Axis[Options] {
	return sweep.NewAxis("workload", ps,
		func(p workload.Params) string { return p.Name },
		func(o *Options, p workload.Params) { o.Workload = p })
}

// ModeAxis sweeps the execution model.
func ModeAxis(ms []Mode) sweep.Axis[Options] {
	return sweep.NewAxis("mode", ms, Mode.String,
		func(o *Options, m Mode) { o.Mode = m })
}

// LatencyAxis sweeps the comparison latency in cycles (0 is the
// zero-cycle latency of the Figure 6 x-axis).
func LatencyAxis(lats []int64) sweep.Axis[Options] {
	return sweep.NewAxis("latency", lats,
		func(l int64) string { return strconv.FormatInt(l, 10) },
		func(o *Options, l int64) { o.Config.CompareLatency = l })
}

// PhantomAxis sweeps the phantom request strength.
func PhantomAxis(phs []Phantom) sweep.Axis[Options] {
	return sweep.NewAxis("phantom", phs, Phantom.String,
		func(o *Options, ph Phantom) { o.Config.L2.Phantom = ph })
}

// TLBAxis sweeps the TLB discipline.
func TLBAxis(ts []TLBMode) sweep.Axis[Options] {
	return sweep.NewAxis("tlb", ts, TLBMode.String,
		func(o *Options, m TLBMode) { o.Config.Core.TLB.Mode = m })
}

// ConsistencyAxis sweeps the memory consistency model.
func ConsistencyAxis(cs []Consistency) sweep.Axis[Options] {
	return sweep.NewAxis("consistency", cs, ConsistencyName,
		func(o *Options, m Consistency) { o.Config.Core.Consistency = m })
}

// IntervalAxis sweeps the fingerprint comparison interval.
func IntervalAxis(ivs []int) sweep.Axis[Options] {
	return sweep.NewAxis("interval", ivs, strconv.Itoa,
		func(o *Options, iv int) { o.Config.Core.FPInterval = iv })
}

// SeedAxis sweeps the workload seed.
func SeedAxis(sds []uint64) sweep.Axis[Options] {
	return sweep.NewAxis("seed", sds,
		func(s uint64) string { return strconv.FormatUint(s, 10) },
		func(o *Options, s uint64) { o.Seed = s })
}

// sweepRuns runs one experiment matrix, measuring each point's Options
// with run, and returns one output per point in point-index order
// (deterministic at any parallelism).
func sweepRuns[R any](c ExpConfig, name string, base Options, run func(Options) (R, error), axes ...sweep.Axis[Options]) ([]R, error) {
	r := sweep.Runner[Options, R]{
		Parallelism: c.Parallelism,
		Trace:       c.Trace,
		Run: func(_ context.Context, pt sweep.Point[Options]) (R, error) {
			return run(pt.Config)
		},
	}
	results, err := r.Sweep(context.Background(), sweep.Spec[Options]{Name: name, Base: base, Axes: axes})
	if err != nil {
		return nil, err
	}
	return sweep.Outputs(results)
}

// SweepRecords runs the given global indices of spec (nil: the whole
// matrix) on parallel workers (0: GOMAXPROCS) and writes each point's
// record — labels plus Result.Metrics(), or the error — to sink in index
// order: reunion-sweep's results, byte-identical at any parallelism. It
// stops at the first point a cancellation skipped, which a journal would
// otherwise hold as an error record that -resume skips forever. tr gets
// a sweep/run span per point; progress sees points as they finish.
func SweepRecords(ctx context.Context, spec sweep.Spec[Options], indices []int, sink sweep.Sink,
	parallel int, tr *obs.Tracer, progress func(done, total int, r sweep.Result[Options, Result])) error {
	r := sweep.Runner[Options, Result]{
		Parallelism: parallel,
		Trace:       tr,
		Run: func(_ context.Context, pt sweep.Point[Options]) (Result, error) {
			return Run(pt.Config)
		},
		Progress: progress,
		Emit: func(res sweep.Result[Options, Result]) error {
			if errors.Is(res.Err, sweep.ErrSkipped) {
				return res.Err
			}
			var metrics map[string]float64
			if res.Err == nil {
				metrics = res.Out.Metrics()
			}
			return sink.Write(sweep.NewRecord(spec.Name, res.Point.Index, res.Point.LabelMap(), metrics, res.Err))
		},
	}
	var err error
	if indices == nil {
		_, err = r.Sweep(ctx, spec)
	} else {
		_, err = r.SweepIndices(ctx, spec, indices)
	}
	return err
}

// printLatencyTable prints one row per series over comparison-latency
// columns.
func (c ExpConfig) printLatencyTable(head string, lats []int64, rows []string, series [][]float64) {
	c.printf("%-10s", head)
	for _, lat := range lats {
		c.printf(" %7dc", lat)
	}
	c.printf("\n")
	for i, s := range series {
		c.printf("%-10s", rows[i])
		for _, v := range s {
			c.printf(" %8.3f", v)
		}
		c.printf("\n")
	}
}

// commercialLatencySweep runs Reunion over axis × Figure 6 latency ×
// commercial workload, prints the commercial geo-mean normalized IPC per
// axis value (one row each, named by rows) and latency, and returns it.
func (c ExpConfig) commercialLatencySweep(name string, axis sweep.Axis[Options], head string, rows ...string) ([][]float64, error) {
	commercial := commercialSuite()
	base := c.opts()
	base.Mode = ModeReunion
	vals, err := sweepRuns(c, name, base, c.normalized,
		axis, LatencyAxis(Figure6Latencies), WorkloadAxis(commercial))
	if err != nil {
		return nil, err
	}
	nl, nw := len(Figure6Latencies), len(commercial)
	series := make([][]float64, len(axis.Values))
	for i := range series {
		series[i] = make([]float64, nl)
		for li := range series[i] {
			k := (i*nl + li) * nw
			series[i][li] = stats.GeoMean(vals[k : k+nw])
		}
	}
	c.printLatencyTable(head, Figure6Latencies, rows, series)
	return series, nil
}

// classSplitSweep runs axis × workload from base and returns the
// commercial and scientific geo-mean normalized IPC per axis value,
// printing one line per value with its name formatted by label.
func (c ExpConfig) classSplitSweep(name string, base Options, axis sweep.Axis[Options], label string) (comm, sci []float64, err error) {
	suite := workload.Suite()
	vals, err := sweepRuns(c, name, base, c.normalized, axis, WorkloadAxis(suite))
	if err != nil {
		return nil, nil, err
	}
	nw := len(suite)
	for ai, v := range axis.Values {
		var cs, ss []float64
		for wi, p := range suite {
			if p.Class == workload.Scientific {
				ss = append(ss, vals[ai*nw+wi])
			} else {
				cs = append(cs, vals[ai*nw+wi])
			}
		}
		comm = append(comm, stats.GeoMean(cs))
		sci = append(sci, stats.GeoMean(ss))
		c.printf(label+": commercial %.3f  scientific %.3f\n", v.Name, comm[ai], sci[ai])
	}
	return comm, sci, nil
}

// classMean is the geometric mean of x over the suite's workloads of
// class cls, in suite order.
func classMean(suite []workload.Params, cls workload.Class, x func(wi int) float64) float64 {
	var xs []float64
	for wi, p := range suite {
		if p.Class == cls {
			xs = append(xs, x(wi))
		}
	}
	return stats.GeoMean(xs)
}

// Claim is one of the paper's qualitative results checked against an
// experiment's numbers: Value must compare with Bound as its op says.
type Claim struct {
	Section string // where the paper makes it: "Fig. 6", "§4.1", ...
	Name    string // what is compared with what
	Value   float64
	op      op
	Bound   float64
}

// op is how a claim's Value must compare with its Bound.
type op string

const (
	atMost  op = "<="
	below   op = "<"
	atLeast op = ">="
	above   op = ">"
	within  op = "within ±" // |Value| <= Bound
	// noted is not asserted: a value behind one of the two departures
	// from the paper that EXPERIMENTS.md documents (§4.1, §4.3).
	noted op = "noted"
)

// Holds reports whether the claim holds; a noted value always does, and
// a claim without a known op never does.
func (c Claim) Holds() bool {
	switch c.op {
	case atMost:
		return c.Value <= c.Bound
	case below:
		return c.Value < c.Bound
	case atLeast:
		return c.Value >= c.Bound
	case above:
		return c.Value > c.Bound
	case within:
		return math.Abs(c.Value) <= c.Bound
	case noted:
		return true
	}
	return false
}

// Margin is how far Value lies inside its bound, negative outside it.
func (c Claim) Margin() float64 {
	switch c.op {
	case atMost, below:
		return c.Bound - c.Value
	case atLeast, above:
		return c.Value - c.Bound
	case within:
		return c.Bound - math.Abs(c.Value)
	}
	return math.NaN()
}

// String is the claim's line in an experiment's output.
func (c Claim) String() string {
	s := fmt.Sprintf("claim %s: %s: ", c.Section, c.Name)
	if c.op == noted {
		return s + fmt.Sprintf("%.4f (not asserted: a departure from the paper, see EXPERIMENTS.md)", c.Value)
	}
	verdict := map[bool]string{true: "holds", false: "FAILS"}[c.Holds()]
	return s + fmt.Sprintf("%.4f %s %.4f, margin %.4f, %s", c.Value, c.op, c.Bound, c.Margin(), verdict)
}

// Experiment is one paper table, figure or ablation under the name
// `reunion-sweep -experiment` takes. Run prints its table to the
// campaign's Out and returns its claims (none for a parameter table).
type Experiment struct {
	Name string
	Run  func(ExpConfig) ([]Claim, error)
}

// Experiments are the tables and figures, in the order
// `reunion-sweep -experiment all` runs them.
var Experiments = []Experiment{
	{"config", ExpConfig.table1},
	{"workloads", ExpConfig.table2},
	{"fig5", ExpConfig.figure5},
	{"fig6", ExpConfig.figure6},
	{"table3", ExpConfig.table3},
	{"fig7a", ExpConfig.figure7a},
	{"fig7b", ExpConfig.figure7b},
	{"sc", ExpConfig.sc},
	{"interval", ExpConfig.interval},
	{"rob", ExpConfig.rob},
	{"topology", ExpConfig.topology},
}

// Axis values the experiments sweep and their claims index or name.
var (
	// Figure6Latencies is the x-axis of Figure 6.
	Figure6Latencies = []int64{0, 10, 20, 30, 40}
	phantoms         = []Phantom{PhantomGlobal, PhantomShared, PhantomNull}
	fpIntervals      = []int{1, 5, 10, 50}
	robWindows       = []int{128, 256, 1024, 4096}
	topologies       = []Topology{TopologyDirectory, TopologySnoopy}
)

// table1 prints the simulated CMP's parameters.
func (c ExpConfig) table1() ([]Claim, error) {
	m := DefaultConfig()
	c.printf("Table 1: simulated baseline CMP parameters\n")
	c.printf("  logical processors   %d (+%d mute cores under Reunion)\n",
		m.LogicalProcessors, m.LogicalProcessors)
	c.printf("  pipeline             %d-wide dispatch/retire, %d-entry RUU, %d-entry store buffer\n",
		m.Core.DispatchWidth, m.Core.ROBSize, m.Core.SBSize)
	c.printf("  L1 I/D               %d KB, %d-way, %d-cycle load-to-use, %d MSHRs, %d rd / %d wr ports\n",
		m.L1Bytes>>10, m.L1Ways, m.Core.LoadToUse, m.L1MSHRs, m.Core.L1LoadPorts, m.Core.L1StorePorts)
	c.printf("  shared L2            %d MB, %d banks, %d-way, %d-cycle hit\n",
		m.L2.CapacityBytes>>20, m.L2.Banks, m.L2.Ways, m.L2.HitLatency)
	c.printf("  memory               %d-cycle access, %d banks\n", m.L2.MemLatency, m.L2.MemBanks)
	c.printf("  ITLB/DTLB            %d / %d entries, %d-way, 8K pages\n",
		m.ITLBEntries, m.DTLBEntries, m.ITLBWays)
	c.printf("  comparison latency   %d cycles (default)\n\n", m.CompareLatency)
	return nil, nil
}

// table2 prints the application suite.
func (c ExpConfig) table2() ([]Claim, error) {
	c.printf("Table 2: application suite (synthetic profiles; see DESIGN.md)\n")
	c.printf("  %-12s %-10s %10s %10s %8s %8s %8s\n",
		"workload", "class", "private", "scan", "locks", "crit", "traps")
	for _, p := range workload.Suite() {
		c.printf("  %-12s %-10s %9dK %9dK %8d 1/%-6d 1/%-6d\n",
			p.Name, p.Class, p.PrivateBytes>>10, p.ScanBytes>>10,
			p.Locks, p.CritEvery, p.TrapEvery)
	}
	c.printf("\n")
	return nil, nil
}

// figure5 runs Figure 5: workload × {strict, reunion} at the default
// 10-cycle comparison latency.
func (c ExpConfig) figure5() ([]Claim, error) {
	c.printf("Figure 5: baseline performance of redundant execution (normalized IPC, 10-cycle comparison latency)\n")
	c.printf("%-12s %-10s %8s %8s\n", "workload", "class", "strict", "reunion")
	suite := workload.Suite()
	vals, err := sweepRuns(c, "figure5", c.opts(), c.normalized,
		WorkloadAxis(suite), ModeAxis([]Mode{ModeStrict, ModeReunion}))
	if err != nil {
		return nil, err
	}
	for wi, p := range suite {
		c.printf("%-12s %-10s %8.3f %8.3f\n", p.Name, p.Class, vals[2*wi], vals[2*wi+1])
	}
	for _, cls := range workload.Classes() {
		c.printf("%-12s %-10s %8.3f %8.3f\n", "avg", cls,
			classMean(suite, cls, func(wi int) float64 { return vals[2*wi] }),
			classMean(suite, cls, func(wi int) float64 { return vals[2*wi+1] }))
	}
	return figure5Claims(vals), nil
}

// figure5Claims (strict, reunion per workload): neither beats the
// baseline, and Reunion does not beat Strict, its input-replication oracle.
func figure5Claims(vals []float64) (cl []Claim) {
	for wi, p := range workload.Suite() {
		s, u := vals[2*wi], vals[2*wi+1]
		cl = append(cl,
			Claim{"Fig. 5", p.Name + ": strict vs baseline + 0.02", s, atMost, 1.02},
			Claim{"Fig. 5", p.Name + ": reunion vs baseline + 0.02", u, atMost, 1.02},
			Claim{"Fig. 5", p.Name + ": reunion vs strict + 0.05", u, atMost, s + 0.05})
	}
	return cl
}

// figure6 runs Figure 6: workload × latency under Strict (a), then under
// Reunion (b).
func (c ExpConfig) figure6() ([]Claim, error) {
	strict, err := c.latencySweep("a", ModeStrict)
	if err != nil {
		return nil, err
	}
	c.printf("\n")
	reun, err := c.latencySweep("b", ModeReunion)
	if err != nil {
		return nil, err
	}
	return figure6Claims(strict, reun), nil
}

// latencySweep prints and returns part of Figure 6: mode's class-average
// normalized IPC over Figure6Latencies, one series per workload class.
func (c ExpConfig) latencySweep(part string, mode Mode) ([][]float64, error) {
	c.printf("Figure 6(%s): %v normalized IPC vs comparison latency\n", part, mode)
	suite := workload.Suite()
	base := c.opts()
	base.Mode = mode
	vals, err := sweepRuns(c, "figure6-"+mode.String(), base, c.normalized,
		WorkloadAxis(suite), LatencyAxis(Figure6Latencies))
	if err != nil {
		return nil, err
	}
	nl := len(Figure6Latencies)
	var rows []string
	var series [][]float64
	for _, cls := range workload.Classes() {
		s := make([]float64, nl)
		for li := range s {
			s[li] = classMean(suite, cls, func(wi int) float64 { return vals[wi*nl+li] })
		}
		rows = append(rows, string(cls))
		series = append(series, s)
	}
	c.printLatencyTable("class", Figure6Latencies, rows, series)
	return series, nil
}

// figure6Claims (latencySweep's series): overhead grows with latency, and
// Reunion never meaningfully beats the Strict oracle.
func figure6Claims(strict, reun [][]float64) (cl []Claim) {
	last := len(Figure6Latencies) - 1
	for ci, cls := range workload.Classes() {
		s, r := strict[ci], reun[ci]
		cl = append(cl,
			Claim{"Fig. 6", string(cls) + ": strict at 0c", s[0], atLeast, 0.93},
			Claim{"Fig. 6", string(cls) + ": strict at 40c vs at 0c + 0.02", s[last], atMost, s[0] + 0.02},
			Claim{"Fig. 6", string(cls) + ": reunion at 40c vs at 0c + 0.02", r[last], atMost, r[0] + 0.02})
		for li, lat := range Figure6Latencies {
			cl = append(cl, Claim{"Fig. 6", fmt.Sprintf("%s: reunion vs strict + 0.05 at %dc", cls, lat), r[li], atMost, s[li] + 0.05})
		}
	}
	return cl
}

// table3 runs Table 3: a direct-run sweep of workload × phantom strength
// over the extended event window.
func (c ExpConfig) table3() ([]Claim, error) {
	c.printf("Table 3: input incoherence events per 1M instructions (10-cycle comparison latency)\n")
	c.printf("%-12s %10s %10s %10s %12s\n", "workload", "global", "shared", "null", "TLB misses")
	suite := workload.Suite()
	base := c.opts()
	base.Mode, base.Seed = ModeReunion, c.Seeds[0]
	base.MeasureCycles = c.Table3Cycles
	runs, err := sweepRuns(c, "table3", base, Run, WorkloadAxis(suite), PhantomAxis(phantoms))
	if err != nil {
		return nil, err
	}
	for wi, p := range suite {
		g, s, n := runs[3*wi], runs[3*wi+1], runs[3*wi+2]
		c.printf("%-12s %10.1f %10.1f %10.1f %12.0f\n", p.Name,
			g.IncoherencePerM, s.IncoherencePerM, n.IncoherencePerM, g.TLBMissPerM)
	}
	return table3Claims(runs), nil
}

// table3Claims (global, shared, null per workload): summed, incoherence
// under global phantoms is orders of magnitude rarer than under shared
// ones, and rarer than TLB misses.
func table3Claims(runs []Result) []Claim {
	var g, sh, nl, tlb float64
	for wi := 0; wi < len(runs)/3; wi++ {
		g += runs[3*wi].IncoherencePerM
		sh += runs[3*wi+1].IncoherencePerM
		nl += runs[3*wi+2].IncoherencePerM
		tlb += runs[3*wi].TLBMissPerM
	}
	return []Claim{
		{"Table 3", "global vs shared incoherence per M", g, below, sh},
		{"Table 3", "shared vs null x 1.5", sh, atMost, nl * 1.5},
		{"Table 3", "global vs shared / 20", g, atMost, sh / 20},
		{"Table 3", "global incoherence vs TLB misses per M", g, atMost, tlb},
	}
}

// figure7a runs Figure 7(a): workload × phantom strength under Reunion.
func (c ExpConfig) figure7a() ([]Claim, error) {
	c.printf("Figure 7(a): Reunion normalized IPC per phantom request strength (10-cycle comparison latency)\n")
	c.printf("%-12s %8s %8s %8s\n", "workload", "global", "shared", "null")
	suite := workload.Suite()
	base := c.opts()
	base.Mode = ModeReunion
	vals, err := sweepRuns(c, "figure7a", base, c.normalized,
		WorkloadAxis(suite), PhantomAxis(phantoms))
	if err != nil {
		return nil, err
	}
	for wi, p := range suite {
		c.printf("%-12s %8.3f %8.3f %8.3f\n", p.Name, vals[3*wi], vals[3*wi+1], vals[3*wi+2])
	}
	return figure7aClaims(vals), nil
}

// figure7aClaims (global, shared, null per workload): global phantoms
// stay near the baseline; null phantoms collapse performance.
func figure7aClaims(vals []float64) []Claim {
	var g, n float64
	for wi := 0; wi < len(vals)/3; wi++ {
		g += vals[3*wi]
		n += vals[3*wi+2]
	}
	k := float64(len(vals) / 3)
	return []Claim{
		{"Fig. 7a", "mean global", g / k, atLeast, 0.8},
		{"Fig. 7a", "mean null vs mean global x 0.75", n / k, atMost, 0.75 * g / k},
	}
}

// figure7b runs Figure 7(b): TLB discipline × latency × commercial
// workload.
func (c ExpConfig) figure7b() ([]Claim, error) {
	c.printf("Figure 7(b): Reunion commercial average, hardware vs software-managed TLB\n")
	s, err := c.commercialLatencySweep("figure7b", TLBAxis([]TLBMode{TLBHardware, TLBSoftware}),
		"TLB", "hardware", "software")
	if err != nil {
		return nil, err
	}
	return figure7bClaims(s), nil
}

// figure7bClaims (s: hardware, software series): software-managed TLBs
// cost more than hardware ones at the highest latency.
func figure7bClaims(s [][]float64) []Claim {
	last := len(Figure6Latencies) - 1
	return []Claim{{"Fig. 7b", "software vs hardware TLB + 0.01 at 40c", s[1][last], atMost, s[0][last] + 0.01}}
}

// sc runs the §5.5 consistency-model result: consistency × latency ×
// commercial workload.
func (c ExpConfig) sc() ([]Claim, error) {
	c.printf("§5.5: Reunion commercial average under TSO vs sequential consistency\n")
	s, err := c.commercialLatencySweep("sc", ConsistencyAxis([]Consistency{TSO, SC}),
		"model", "TSO", "SC")
	if err != nil {
		return nil, err
	}
	return scClaims(s), nil
}

// scClaims (s: TSO, SC series): SC serializes every store's retirement,
// so it collapses at the highest latency.
func scClaims(s [][]float64) []Claim {
	last := len(Figure6Latencies) - 1
	return []Claim{{"§5.5", "SC vs TSO - 0.05 at 40c", s[1][last], atMost, s[0][last] - 0.05}}
}

// interval runs the §4.3 ablation: fingerprint interval × commercial
// workload.
func (c ExpConfig) interval() ([]Claim, error) {
	c.printf("Ablation (§4.3): fingerprint interval sensitivity, Reunion commercial average\n")
	commercial := commercialSuite()
	base := c.opts()
	base.Mode = ModeReunion
	vals, err := sweepRuns(c, "fp-interval", base, c.normalized,
		IntervalAxis(fpIntervals), WorkloadAxis(commercial))
	if err != nil {
		return nil, err
	}
	nw := len(commercial)
	var reun []float64
	for ii, iv := range fpIntervals {
		reun = append(reun, stats.GeoMean(vals[ii*nw:(ii+1)*nw]))
		c.printf("interval %3d: %7.3f\n", iv, reun[ii])
	}
	return intervalClaims(reun), nil
}

// intervalClaims (commercial average per interval): intervals perform
// alike, a bounded spread; that the value falls with them departs.
func intervalClaims(reun []float64) []Claim {
	cl := []Claim{{"§4.3", "spread over intervals", slices.Max(reun) - slices.Min(reun), atMost, 0.08}}
	for i, iv := range fpIntervals {
		cl = append(cl, Claim{"§4.3", fmt.Sprintf("slope: commercial at interval %d", iv), reun[i], noted, 0})
	}
	return cl
}

// rob runs the §5.2 ablation: speculation window size × workload under
// Strict at a 40-cycle comparison latency.
func (c ExpConfig) rob() ([]Claim, error) {
	c.printf("Ablation (§5.2): speculation window size, Strict @40-cycle latency\n")
	base := c.opts()
	base.Mode, base.Config.CompareLatency = ModeStrict, 40
	window := sweep.NewAxis("window", robWindows, strconv.Itoa,
		func(o *Options, sz int) { o.Config.Core.ROBSize, o.Config.Core.CheckQCap = sz, sz })
	comm, sci, err := c.classSplitSweep("rob-sweep", base, window, "window %5s")
	if err != nil {
		return nil, err
	}
	return robClaims(comm, sci), nil
}

// robClaims (per window): larger windows relieve occupancy, not
// serializing stalls, so scientific workloads recover and commercial ones
// stay limited.
func robClaims(comm, sci []float64) []Claim {
	last := len(robWindows) - 1
	sciGain, commGain := sci[last]-sci[0], comm[last]-comm[0]
	return []Claim{
		{"§5.2", "scientific gain from the largest window", sciGain, above, 0},
		{"§5.2", "commercial gain vs scientific gain", commGain, below, sciGain},
		{"§5.2", fmt.Sprintf("commercial vs scientific at window %d", robWindows[last]), comm[last], below, sci[last]},
	}
}

// topology runs the §4.1 ablation, a snoopy bus of private caches versus
// the directory-based shared L2: topology × workload under Reunion.
func (c ExpConfig) topology() ([]Claim, error) {
	c.printf("Ablation (§4.1): Reunion normalized IPC by memory-system topology (10-cycle latency)\n")
	base := c.opts()
	base.Mode = ModeReunion
	topology := sweep.NewAxis("topology", topologies, Topology.String,
		func(o *Options, tp Topology) { o.Config.Topology = tp })
	comm, sci, err := c.classSplitSweep("topology", base, topology, "%-10s")
	if err != nil {
		return nil, err
	}
	return topologyClaims(comm, sci), nil
}

// topologyClaims (per topology): the overhead carries over to a snoopy
// bus. It does for commercial workloads; the scientific one departs.
func topologyClaims(comm, sci []float64) (cl []Claim) {
	for i, tp := range topologies {
		cl = append(cl,
			Claim{"§4.1", tp.String() + ": commercial vs baseline", comm[i], below, 1},
			Claim{"§4.1", tp.String() + ": scientific vs baseline", sci[i], below, 1})
	}
	return append(cl,
		Claim{"§4.1", "commercial snoopy - directory", comm[1] - comm[0], within, 0.05},
		Claim{"§4.1", "scientific snoopy - directory", sci[1] - sci[0], noted, 0})
}

func commercialSuite() []workload.Params {
	var out []workload.Params
	for _, p := range workload.Suite() {
		if p.Class != workload.Scientific {
			out = append(out, p)
		}
	}
	return out
}
