package reunion

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"reunion/internal/campaign"
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

	// Trace is the campaign's span tracer: the sweep and coverage engines
	// and the warm-state cache report spans into it. Set it through
	// Observe so the cache is wired too. Nil = off. Pure observer: results
	// are byte-identical with or without a tracer.
	Trace *obs.Tracer

	// base memoizes non-redundant baseline runs: sweeps reuse the same
	// baseline across latencies and modes, and the singleflight entries
	// keep concurrent cells from running the same baseline twice.
	base *memo[Result]

	// warm is the campaign-wide checkpointed warm-state cache: cells that
	// differ only in measurement-phase knobs (window length, commit
	// target, injection) restore a shared warm snapshot instead of
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

// FullExp returns a campaign sized like the paper's sampling methodology.
func FullExp(out io.Writer) ExpConfig {
	return ExpConfig{
		Seeds:         DefaultSeeds(3),
		WarmCycles:    100_000,
		MeasureCycles: 50_000,
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
// sweep and coverage engines, it attaches it to the shared warm-state
// cache — which is why callers should use this instead of assigning
// Trace directly.
func (c *ExpConfig) Observe(tr *obs.Tracer) {
	c.Trace = tr
	if c.warm != nil {
		c.warm.Observe(tr)
	}
}

// coverageWarm picks the warm cache for the coverage campaign: the
// campaign-wide cache when the config has one (so its spans, wired by
// Observe, also cover coverage trials), else a fresh private cache as
// before. Either way results are bit-identical — warm restore is
// checkpoint-keyed.
func (c ExpConfig) coverageWarm() *WarmCache {
	if c.warm != nil {
		return c.warm
	}
	return NewWarmCache()
}

func (c ExpConfig) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

func (c ExpConfig) runOpts(mode Mode, p workload.Params, seed uint64) Options {
	return Options{
		Mode: mode, Workload: p, Seed: seed,
		WarmCycles: c.WarmCycles, MeasureCycles: c.MeasureCycles,
		Kernel: c.Kernel, Warm: c.warm,
	}
}

// normalized measures mode-vs-nonredundant IPC for one workload across
// the campaign's seeds. The common mutator applies to both the baseline
// and the test run, so system-level knobs (TLB discipline, consistency
// model) configure the whole comparison, as in the paper.
func (c ExpConfig) normalized(p workload.Params, mode Mode, common func(*Options)) (float64, error) {
	base := Options{Mode: ModeNonRedundant, Workload: p,
		WarmCycles: c.WarmCycles, MeasureCycles: c.MeasureCycles,
		Kernel: c.Kernel, Warm: c.warm}
	if common != nil {
		common(&base)
	}
	base.Mode = ModeNonRedundant
	test := base
	test.Mode = mode
	var mp stats.MatchedPair
	for _, seed := range c.Seeds {
		b := base
		b.Seed = seed
		br, err := c.baseline(b)
		if err != nil {
			return 0, err
		}
		tt := test
		tt.Seed = seed
		tr, err := Run(tt)
		if err != nil {
			return 0, err
		}
		mp.Add(br.UserIPC, tr.UserIPC)
	}
	return mp.Mean(), nil
}

// normCell is one normalized-IPC measurement: a workload, a test mode,
// and the option mutations both sides of the matched-pair comparison
// share. It is the configuration type of every normalized-IPC sweep spec.
type normCell struct {
	p    workload.Params
	mode Mode
	muts []func(*Options)
}

// addMut appends copy-on-write, so axis values composing on a shared base
// cell never alias each other's mutator slices across points.
func (c *normCell) addMut(m func(*Options)) {
	muts := make([]func(*Options), len(c.muts), len(c.muts)+1)
	copy(muts, c.muts)
	c.muts = append(muts, m)
}

func (c normCell) apply(o *Options) {
	for _, m := range c.muts {
		m(o)
	}
}

// workloadAxis sweeps the cell's workload over the given profiles.
func workloadAxis(ps []workload.Params) sweep.Axis[normCell] {
	return sweep.NewAxis("workload", ps,
		func(p workload.Params) string { return p.Name },
		func(c *normCell, p workload.Params) { c.p = p })
}

// modeAxis sweeps the cell's execution model.
func modeAxis(modes ...Mode) sweep.Axis[normCell] {
	return sweep.NewAxis("mode", modes, Mode.String,
		func(c *normCell, m Mode) { c.mode = m })
}

// latencyAxis sweeps the comparison latency (0 means a literal zero-cycle
// latency, as on the Figure 6 x-axis).
func latencyAxis(lats []int64) sweep.Axis[normCell] {
	return sweep.NewAxis("latency", lats,
		func(l int64) string { return strconv.FormatInt(l, 10) },
		func(c *normCell, l int64) {
			if l == 0 {
				l = ZeroLatency
			}
			c.addMut(func(o *Options) { o.CompareLatency = l })
		})
}

// phantomAxis sweeps the phantom request strength.
func phantomAxis(phs []Phantom) sweep.Axis[normCell] {
	return sweep.NewAxis("phantom", phs, Phantom.String,
		func(c *normCell, ph Phantom) {
			c.addMut(func(o *Options) { o.Phantom = ph })
		})
}

// runNormalized executes a normalized-IPC sweep spec and returns one
// value per point in point-index order (deterministic at any
// parallelism).
func (c ExpConfig) runNormalized(name string, base normCell, axes ...sweep.Axis[normCell]) ([]float64, error) {
	spec := sweep.Spec[normCell]{Name: name, Base: base, Axes: axes}
	r := sweep.Runner[normCell, float64]{
		Parallelism: c.Parallelism,
		Trace:       c.Trace,
		Run: func(_ context.Context, pt sweep.Point[normCell]) (float64, error) {
			return c.normalized(pt.Config.p, pt.Config.mode, pt.Config.apply)
		},
	}
	results, err := r.Sweep(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return sweep.Outputs(results)
}

// runDirect executes a sweep of raw simulation runs (no baseline
// normalization), as the event-rate experiments need.
func (c ExpConfig) runDirect(name string, base Options, axes ...sweep.Axis[Options]) ([]Result, error) {
	spec := sweep.Spec[Options]{Name: name, Base: base, Axes: axes}
	r := sweep.Runner[Options, Result]{
		Parallelism: c.Parallelism,
		Trace:       c.Trace,
		Run: func(_ context.Context, pt sweep.Point[Options]) (Result, error) {
			return Run(pt.Config)
		},
	}
	results, err := r.Sweep(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return sweep.Outputs(results)
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
	var base normCell
	base.addMut(func(o *Options) { o.CompareLatency = 10 })
	vals, err := c.runNormalized("figure5", base, workloadAxis(suite), modeAxis(modes...))
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
	vals, err := c.runNormalized("figure6-"+mode.String(), normCell{mode: mode},
		workloadAxis(suite), latencyAxis(res.Latencies))
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
	c.printf("%-10s", "class")
	for _, lat := range res.Latencies {
		c.printf(" %7dc", lat)
	}
	c.printf("\n")
	for _, cls := range workload.Classes() {
		series := make([]float64, nl)
		for i := range series {
			series[i] = stats.GeoMean(perClass[cls][i])
		}
		res.Series[cls] = series
		c.printf("%-10s", cls)
		for _, v := range series {
			c.printf(" %8.3f", v)
		}
		c.printf("\n")
	}
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
	base := c.runOpts(ModeReunion, workload.Params{}, c.Seeds[0])
	base.CompareLatency = 10
	base.MeasureCycles = c.Table3Cycles
	runs, err := c.runDirect("table3", base,
		sweep.NewAxis("workload", suite,
			func(p workload.Params) string { return p.Name },
			func(o *Options, p workload.Params) { o.Workload = p }),
		sweep.NewAxis("phantom", phantoms, Phantom.String,
			func(o *Options, ph Phantom) { o.Phantom = ph }),
	)
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
	base := normCell{mode: ModeReunion}
	base.addMut(func(o *Options) { o.CompareLatency = 10 })
	vals, err := c.runNormalized("figure7a", base,
		workloadAxis(suite), phantomAxis(phantoms))
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
	res := &Figure7bResult{Latencies: Figure6Latencies}
	commercial := commercialSuite()
	tlbs := []TLBMode{TLBHardware, TLBSoftware}
	vals, err := c.runNormalized("figure7b", normCell{mode: ModeReunion},
		sweep.NewAxis("tlb", tlbs, TLBMode.String,
			func(cell *normCell, m TLBMode) {
				cell.addMut(func(o *Options) { o.TLB = m })
			}),
		latencyAxis(res.Latencies),
		workloadAxis(commercial),
	)
	if err != nil {
		return nil, err
	}
	nl, nw := len(res.Latencies), len(commercial)
	for ti := range tlbs {
		series := make([]float64, nl)
		for li := 0; li < nl; li++ {
			var ws []float64
			for wi := 0; wi < nw; wi++ {
				ws = append(ws, vals[(ti*nl+li)*nw+wi])
			}
			series[li] = stats.GeoMean(ws)
		}
		if tlbs[ti] == TLBHardware {
			res.Hardware = series
		} else {
			res.Software = series
		}
	}
	c.printf("%-10s", "TLB")
	for _, lat := range res.Latencies {
		c.printf(" %7dc", lat)
	}
	c.printf("\n%-10s", "hardware")
	for _, v := range res.Hardware {
		c.printf(" %8.3f", v)
	}
	c.printf("\n%-10s", "software")
	for _, v := range res.Software {
		c.printf(" %8.3f", v)
	}
	c.printf("\n")
	return res, nil
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
	res := &SCResult{Latencies: []int64{0, 10, 20, 30, 40}}
	commercial := commercialSuite()
	models := []Consistency{TSO, SC}
	vals, err := c.runNormalized("sc", normCell{mode: ModeReunion},
		sweep.NewAxis("consistency", models, ConsistencyName,
			func(cell *normCell, m Consistency) {
				cell.addMut(func(o *Options) { o.Consistency = m })
			}),
		latencyAxis(res.Latencies),
		workloadAxis(commercial),
	)
	if err != nil {
		return nil, err
	}
	nl, nw := len(res.Latencies), len(commercial)
	for mi := range models {
		series := make([]float64, nl)
		for li := 0; li < nl; li++ {
			var ws []float64
			for wi := 0; wi < nw; wi++ {
				ws = append(ws, vals[(mi*nl+li)*nw+wi])
			}
			series[li] = stats.GeoMean(ws)
		}
		if models[mi] == TSO {
			res.TSO = series
		} else {
			res.SC = series
		}
	}
	c.printf("%-10s", "model")
	for _, lat := range res.Latencies {
		c.printf(" %7dc", lat)
	}
	c.printf("\n%-10s", "TSO")
	for _, v := range res.TSO {
		c.printf(" %8.3f", v)
	}
	c.printf("\n%-10s", "SC")
	for _, v := range res.SC {
		c.printf(" %8.3f", v)
	}
	c.printf("\n")
	return res, nil
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
	base := normCell{mode: ModeReunion}
	base.addMut(func(o *Options) { o.CompareLatency = 10 })
	vals, err := c.runNormalized("fp-interval", base,
		sweep.NewAxis("interval", res.Intervals, strconv.Itoa,
			func(cell *normCell, iv int) {
				cell.addMut(func(o *Options) { o.FPInterval = iv })
			}),
		workloadAxis(commercial),
	)
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
	suite := workload.Suite()
	base := normCell{mode: ModeStrict}
	base.addMut(func(o *Options) { o.CompareLatency = 40 })
	vals, err := c.runNormalized("rob-sweep", base,
		sweep.NewAxis("window", res.Sizes, strconv.Itoa,
			func(cell *normCell, sz int) {
				cell.addMut(func(o *Options) {
					cfg := DefaultConfig()
					cfg.Core.ROBSize = sz
					cfg.Core.CheckQCap = sz
					o.Config = &cfg
				})
			}),
		workloadAxis(suite),
	)
	if err != nil {
		return nil, err
	}
	nw := len(suite)
	for si, size := range res.Sizes {
		var comm, sci []float64
		for wi, p := range suite {
			v := vals[si*nw+wi]
			if p.Class == workload.Scientific {
				sci = append(sci, v)
			} else {
				comm = append(comm, v)
			}
		}
		res.Commercial = append(res.Commercial, stats.GeoMean(comm))
		res.Scientific = append(res.Scientific, stats.GeoMean(sci))
		c.printf("window %5d: commercial %.3f  scientific %.3f\n",
			size, res.Commercial[len(res.Commercial)-1], res.Scientific[len(res.Scientific)-1])
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
	suite := workload.Suite()
	base := normCell{mode: ModeReunion}
	base.addMut(func(o *Options) { o.CompareLatency = 10 })
	vals, err := c.runNormalized("topology", base,
		sweep.NewAxis("topology", res.Topologies, Topology.String,
			func(cell *normCell, tp Topology) {
				cell.addMut(func(o *Options) {
					cfg := DefaultConfig()
					cfg.Topology = tp
					o.Config = &cfg
				})
			}),
		workloadAxis(suite),
	)
	if err != nil {
		return nil, err
	}
	nw := len(suite)
	for ti, topo := range res.Topologies {
		var comm, sci []float64
		for wi, p := range suite {
			v := vals[ti*nw+wi]
			if p.Class == workload.Scientific {
				sci = append(sci, v)
			} else {
				comm = append(comm, v)
			}
		}
		res.Commercial = append(res.Commercial, stats.GeoMean(comm))
		res.Scientific = append(res.Scientific, stats.GeoMean(sci))
		c.printf("%-10s: commercial %.3f  scientific %.3f\n",
			topo, res.Commercial[len(res.Commercial)-1], res.Scientific[len(res.Scientific)-1])
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

// CoverageExperiment runs the Monte-Carlo fault-injection coverage
// campaign the paper's evaluation assumes but never performs: single-bit
// datapath flips over mode × phantom × workload, every trial classified
// as masked, detected (with latency), SDC, or DUE against a fault-free
// golden run. The mode and phantom axes are excluded from the fault-
// stream draw, so Reunion and the non-redundant baseline face identical
// fault streams — the controlled comparison behind "Reunion: zero SDCs,
// non-redundant: silent corruption".
func (c ExpConfig) CoverageExperiment(trialsPerCell int) (*campaign.Report, error) {
	c.printf("Coverage: Monte-Carlo fault injection, mode × phantom × workload (%d trials/cell)\n", trialsPerCell)
	target := c.MeasureCycles / 16
	if target < 500 {
		target = 500
	}
	base := Options{
		Seed:         c.Seeds[0],
		WarmCycles:   c.WarmCycles,
		CommitTarget: target,
		Kernel:       c.Kernel,
	}
	model := campaign.FaultModel{BitHi: 63, WindowHi: target}
	eng := campaign.Engine[Options]{
		Spec: campaign.Spec[Options]{
			Name: "coverage",
			Matrix: sweep.Spec[Options]{
				Name: "coverage",
				Base: base,
				Axes: []sweep.Axis[Options]{
					sweep.NewAxis("mode", []Mode{ModeReunion, ModeNonRedundant}, Mode.String,
						func(o *Options, m Mode) { o.Mode = m }),
					sweep.NewAxis("phantom", []Phantom{PhantomGlobal, PhantomNull}, Phantom.String,
						func(o *Options, ph Phantom) { o.Phantom = ph }),
					sweep.NewAxis("workload", workload.Suite(),
						func(p workload.Params) string { return p.Name },
						func(o *Options, p workload.Params) { o.Workload = p }),
				},
			},
			Model:         model,
			Trials:        trialsPerCell,
			Seed:          0xfa017,
			StreamExclude: []string{"mode", "phantom"},
		},
		RunTrial:    TrialRunner(model, c.coverageWarm(), 0),
		Parallelism: c.Parallelism,
		Trace:       c.Trace,
	}
	if err := eng.Spec.Validate(); err != nil {
		return nil, err
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		return nil, err
	}
	if c.Out != nil {
		rep.WriteTable(c.Out)
	}
	return rep, nil
}
