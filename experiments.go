package reunion

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"reunion/internal/obs"
	"reunion/internal/stats"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// ExpConfig sizes an experiment campaign. Quick settings keep
// `reunion-sweep -experiment all` to minutes; Full settings match the
// paper's methodology more closely (longer windows, several matched
// seeds).
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

// QuickExp returns a campaign sized for a run of every experiment in
// minutes (reunion-sweep -experiment).
func QuickExp(out io.Writer) ExpConfig {
	return ExpConfig{
		Seeds:         DefaultSeeds(1),
		WarmCycles:    40_000,
		MeasureCycles: 30_000,
		Table3Cycles:  120_000,
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
// key is the warm key plus the measurement window, with CompareLatency
// and Phantom normalised: neither affects a run without redundant pairs,
// which is what lets one baseline serve a whole latency sweep.
func (c ExpConfig) baseline(o Options) (Result, error) {
	if c.base == nil {
		return Run(o)
	}
	return c.base.do(baselineKey(o), func() (Result, error) { return Run(o) })
}

func baselineKey(o Options) string {
	o.CompareLatency, o.Phantom = 0, 0
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
	o.Kernel, o.Warm = c.Kernel, c.warm
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
		func(o *Options, l int64) { o.CompareLatency = l })
}

// PhantomAxis sweeps the phantom request strength.
func PhantomAxis(phs []Phantom) sweep.Axis[Options] {
	return sweep.NewAxis("phantom", phs, Phantom.String,
		func(o *Options, ph Phantom) { o.Phantom = ph })
}

// TLBAxis sweeps the TLB discipline.
func TLBAxis(ts []TLBMode) sweep.Axis[Options] {
	return sweep.NewAxis("tlb", ts, TLBMode.String,
		func(o *Options, m TLBMode) { o.TLB = m })
}

// ConsistencyAxis sweeps the memory consistency model.
func ConsistencyAxis(cs []Consistency) sweep.Axis[Options] {
	return sweep.NewAxis("consistency", cs, ConsistencyName,
		func(o *Options, m Consistency) { o.Consistency = m })
}

// IntervalAxis sweeps the fingerprint comparison interval.
func IntervalAxis(ivs []int) sweep.Axis[Options] {
	return sweep.NewAxis("interval", ivs, strconv.Itoa,
		func(o *Options, iv int) { o.FPInterval = iv })
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

// WorkloadRow is one workload's entry in a figure.
type WorkloadRow struct {
	Workload string
	Class    workload.Class
	Values   map[string]float64
}

// Figure5Result reproduces Figure 5: normalized IPC of Strict and Reunion
// at a 10-cycle comparison latency, per workload. Redundant execution
// does not beat the non-redundant baseline, and Reunion does not beat
// Strict, its ideal input-replication oracle.
type Figure5Result struct {
	Rows []WorkloadRow
}

// Figure5 runs the Figure 5 experiment: workload × {strict, reunion} at a
// fixed 10-cycle comparison latency.
func (c ExpConfig) Figure5() (*Figure5Result, error) {
	c.printf("Figure 5: baseline performance of redundant execution (normalized IPC, 10-cycle comparison latency)\n")
	c.printf("%-12s %-10s %8s %8s\n", "workload", "class", "strict", "reunion")
	suite := workload.Suite()
	modes := []Mode{ModeStrict, ModeReunion}
	base := c.opts()
	vals, err := sweepRuns(c, "figure5", base, c.normalized, WorkloadAxis(suite), ModeAxis(modes))
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{}
	for wi, p := range suite {
		row := WorkloadRow{Workload: p.Name, Class: p.Class,
			Values: map[string]float64{
				"strict":  vals[wi*len(modes)+0],
				"reunion": vals[wi*len(modes)+1],
			}}
		res.Rows = append(res.Rows, row)
		c.printf("%-12s %-10s %8.3f %8.3f\n", p.Name, p.Class,
			row.Values["strict"], row.Values["reunion"])
	}
	for _, cls := range workload.Classes() {
		c.printf("%-12s %-10s %8.3f %8.3f\n", "avg", cls,
			res.ClassMean(cls, "strict"), res.ClassMean(cls, "reunion"))
	}
	return res, nil
}

// ClassMean averages a series over a workload class (geometric mean, as
// normalized ratios should be averaged).
func (f *Figure5Result) ClassMean(cls workload.Class, key string) float64 {
	var xs []float64
	for _, r := range f.Rows {
		if r.Class == cls {
			xs = append(xs, r.Values[key])
		}
	}
	return stats.GeoMean(xs)
}

// LatencySweepResult reproduces Figure 6(a) or 6(b): normalized IPC per
// workload class over comparison latencies.
type LatencySweepResult struct {
	Mode      Mode
	Latencies []int64
	// Series[class][i] is the class-average normalized IPC at Latencies[i].
	Series map[workload.Class][]float64
}

// Figure6Latencies is the x-axis of Figure 6.
var Figure6Latencies = []int64{0, 10, 20, 30, 40}

// Figure6 runs the comparison-latency sensitivity sweep for one execution
// model: Figure 6(a) with ModeStrict, Figure 6(b) with ModeReunion. The
// spec is workload × latency.
func (c ExpConfig) Figure6(mode Mode) (*LatencySweepResult, error) {
	c.printf("Figure 6(%s): %v normalized IPC vs comparison latency\n",
		map[Mode]string{ModeStrict: "a", ModeReunion: "b"}[mode], mode)
	suite := workload.Suite()
	res := &LatencySweepResult{Mode: mode, Latencies: Figure6Latencies,
		Series: make(map[workload.Class][]float64)}
	base := c.opts()
	base.Mode = mode
	vals, err := sweepRuns(c, "figure6-"+mode.String(), base, c.normalized,
		WorkloadAxis(suite), LatencyAxis(res.Latencies))
	if err != nil {
		return nil, err
	}
	nl := len(res.Latencies)
	perClass := make(map[workload.Class][][]float64) // class -> lat idx -> values
	for wi, p := range suite {
		if perClass[p.Class] == nil {
			perClass[p.Class] = make([][]float64, nl)
		}
		for li := 0; li < nl; li++ {
			perClass[p.Class][li] = append(perClass[p.Class][li], vals[wi*nl+li])
		}
	}
	var rows []string
	var series [][]float64
	for _, cls := range workload.Classes() {
		s := make([]float64, nl)
		for i := range s {
			s[i] = stats.GeoMean(perClass[cls][i])
		}
		res.Series[cls] = s
		rows = append(rows, string(cls))
		series = append(series, s)
	}
	c.printLatencyTable("class", res.Latencies, rows, series)
	return res, nil
}

// Table3Row is one workload's entry in Table 3.
type Table3Row struct {
	Workload string
	Class    workload.Class
	// IncoherencePerM maps phantom strength name -> input incoherence
	// events per million retired instructions.
	IncoherencePerM map[string]float64
	TLBMissPerM     float64
}

// Table3Result reproduces Table 3: input incoherence events per million
// instructions per phantom strength, with TLB misses as the comparison
// point.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the input-incoherence frequency experiment: a direct-run
// sweep of workload × phantom strength over the extended event window.
func (c ExpConfig) Table3() (*Table3Result, error) {
	c.printf("Table 3: input incoherence events per 1M instructions (10-cycle comparison latency)\n")
	c.printf("%-12s %10s %10s %10s %12s\n", "workload", "global", "shared", "null", "TLB misses")
	suite := workload.Suite()
	phantoms := []Phantom{PhantomGlobal, PhantomShared, PhantomNull}
	base := c.opts()
	base.Mode, base.Seed = ModeReunion, c.Seeds[0]
	base.MeasureCycles = c.Table3Cycles
	runs, err := sweepRuns(c, "table3", base, Run, WorkloadAxis(suite), PhantomAxis(phantoms))
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for wi, p := range suite {
		row := Table3Row{Workload: p.Name, Class: p.Class,
			IncoherencePerM: make(map[string]float64)}
		for pi, ph := range phantoms {
			r := runs[wi*len(phantoms)+pi]
			row.IncoherencePerM[ph.String()] = r.IncoherencePerM
			if ph == PhantomGlobal {
				row.TLBMissPerM = r.TLBMissPerM
			}
		}
		res.Rows = append(res.Rows, row)
		c.printf("%-12s %10.1f %10.1f %10.1f %12.0f\n", p.Name,
			row.IncoherencePerM["global"], row.IncoherencePerM["shared"],
			row.IncoherencePerM["null"], row.TLBMissPerM)
	}
	return res, nil
}

// Figure7aResult reproduces Figure 7(a): Reunion normalized IPC per
// phantom request strength.
type Figure7aResult struct {
	Rows []WorkloadRow // Values keyed by phantom strength name
}

// Figure7a runs the phantom-strength performance experiment: workload ×
// phantom strength under ModeReunion.
func (c ExpConfig) Figure7a() (*Figure7aResult, error) {
	c.printf("Figure 7(a): Reunion normalized IPC per phantom request strength (10-cycle comparison latency)\n")
	c.printf("%-12s %8s %8s %8s\n", "workload", "global", "shared", "null")
	suite := workload.Suite()
	phantoms := []Phantom{PhantomGlobal, PhantomShared, PhantomNull}
	base := c.opts()
	base.Mode = ModeReunion
	vals, err := sweepRuns(c, "figure7a", base, c.normalized,
		WorkloadAxis(suite), PhantomAxis(phantoms))
	if err != nil {
		return nil, err
	}
	res := &Figure7aResult{}
	for wi, p := range suite {
		row := WorkloadRow{Workload: p.Name, Class: p.Class, Values: make(map[string]float64)}
		for pi, ph := range phantoms {
			row.Values[ph.String()] = vals[wi*len(phantoms)+pi]
		}
		res.Rows = append(res.Rows, row)
		c.printf("%-12s %8.3f %8.3f %8.3f\n", p.Name,
			row.Values["global"], row.Values["shared"], row.Values["null"])
	}
	return res, nil
}

// Figure7bResult reproduces Figure 7(b): commercial-workload average
// normalized IPC with hardware- vs software-managed TLBs across
// comparison latencies.
type Figure7bResult struct {
	Latencies []int64
	Hardware  []float64
	Software  []float64
}

// Figure7b runs the TLB-discipline experiment over commercial workloads:
// TLB mode × latency × workload, class-averaged per (mode, latency).
func (c ExpConfig) Figure7b() (*Figure7bResult, error) {
	c.printf("Figure 7(b): Reunion commercial average, hardware vs software-managed TLB\n")
	s, err := c.commercialLatencySweep("figure7b", TLBAxis([]TLBMode{TLBHardware, TLBSoftware}),
		"TLB", "hardware", "software")
	if err != nil {
		return nil, err
	}
	return &Figure7bResult{Latencies: Figure6Latencies, Hardware: s[0], Software: s[1]}, nil
}

// SCResult reproduces the §5.5 consistency-model result: performance under
// sequential consistency, where every store serializes retirement.
type SCResult struct {
	Latencies []int64
	TSO       []float64
	SC        []float64
}

// SCExperiment measures the store-serialization cost of SC on commercial
// workloads under Reunion: consistency × latency × workload.
func (c ExpConfig) SCExperiment() (*SCResult, error) {
	c.printf("§5.5: Reunion commercial average under TSO vs sequential consistency\n")
	s, err := c.commercialLatencySweep("sc", ConsistencyAxis([]Consistency{TSO, SC}),
		"model", "TSO", "SC")
	if err != nil {
		return nil, err
	}
	return &SCResult{Latencies: Figure6Latencies, TSO: s[0], SC: s[1]}, nil
}

// FPIntervalResult is the fingerprint-interval ablation. §4.3 reports that
// intervals of 1 and 50 instructions perform indistinguishably; here the
// normalized IPC falls with the interval: 0.935, 0.931, 0.922 and 0.895
// for intervals 1, 5, 10 and 50 at TestExperimentShapes scale, seed 1.
type FPIntervalResult struct {
	Intervals []int
	Reunion   []float64 // commercial-average normalized IPC per interval
}

// FPIntervalAblation sweeps the fingerprint comparison interval:
// interval × commercial workload.
func (c ExpConfig) FPIntervalAblation() (*FPIntervalResult, error) {
	c.printf("Ablation (§4.3): fingerprint interval sensitivity, Reunion commercial average\n")
	res := &FPIntervalResult{Intervals: []int{1, 5, 10, 50}}
	commercial := commercialSuite()
	base := c.opts()
	base.Mode = ModeReunion
	vals, err := sweepRuns(c, "fp-interval", base, c.normalized,
		IntervalAxis(res.Intervals), WorkloadAxis(commercial))
	if err != nil {
		return nil, err
	}
	nw := len(commercial)
	for ii, iv := range res.Intervals {
		res.Reunion = append(res.Reunion, stats.GeoMean(vals[ii*nw:(ii+1)*nw]))
		c.printf("interval %3d: %7.3f\n", iv, res.Reunion[len(res.Reunion)-1])
	}
	return res, nil
}

// ROBSweepResult is the §5.2 ablation: "larger speculation windows (e.g.,
// thousands of instructions, as in checkpointing architectures) completely
// eliminate the resource occupancy bottleneck, but cannot relieve stalls
// from serializing instructions." Sweeping the window size at a 40-cycle
// comparison latency, scientific workloads (occupancy-bound) recover while
// commercial workloads (serialization-bound) stay limited.
type ROBSweepResult struct {
	Sizes      []int
	Commercial []float64 // Strict normalized IPC at 40-cycle latency
	Scientific []float64
}

// ROBSweep runs the speculation-window ablation: window size × workload.
func (c ExpConfig) ROBSweep() (*ROBSweepResult, error) {
	c.printf("Ablation (§5.2): speculation window size, Strict @40-cycle latency\n")
	res := &ROBSweepResult{Sizes: []int{128, 256, 1024, 4096}}
	base := c.opts()
	base.Mode, base.CompareLatency = ModeStrict, 40
	window := sweep.NewAxis("window", res.Sizes, strconv.Itoa,
		func(o *Options, sz int) {
			cfg := DefaultConfig()
			cfg.Core.ROBSize = sz
			cfg.Core.CheckQCap = sz
			o.Config = &cfg
		})
	var err error
	res.Commercial, res.Scientific, err = c.classSplitSweep("rob-sweep", base, window, "window %5s")
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TopologyResult is the §4.1 ablation: the Reunion execution model at a
// snoopy cache interface (Montecito-style private caches on a bus) versus
// the directory-based shared L2 baseline. Absolute performance differs
// (no shared cache). The redundancy overhead carries over for commercial
// workloads but not for scientific ones: at TestExperimentShapes scale,
// seed 1, normalized IPC reads commercial 0.935 directory and 0.938
// snoopy, scientific 0.935 and 0.853 (overhead 6.5% → 14.7%).
type TopologyResult struct {
	Topologies []Topology
	Commercial []float64 // Reunion normalized IPC @10c
	Scientific []float64
}

// TopologyAblation measures Reunion's overhead under both memory-system
// organizations: topology × workload.
func (c ExpConfig) TopologyAblation() (*TopologyResult, error) {
	c.printf("Ablation (§4.1): Reunion normalized IPC by memory-system topology (10-cycle latency)\n")
	res := &TopologyResult{Topologies: []Topology{TopologyDirectory, TopologySnoopy}}
	base := c.opts()
	base.Mode = ModeReunion
	topology := sweep.NewAxis("topology", res.Topologies, Topology.String,
		func(o *Options, tp Topology) {
			cfg := DefaultConfig()
			cfg.Topology = tp
			o.Config = &cfg
		})
	var err error
	res.Commercial, res.Scientific, err = c.classSplitSweep("topology", base, topology, "%-10s")
	if err != nil {
		return nil, err
	}
	return res, nil
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
