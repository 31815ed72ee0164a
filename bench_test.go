package reunion

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus the §4.3 interval ablation and the §5.5
// sequential-consistency result. Each benchmark regenerates its result
// rows (visible with -v via b.Logf) and reports the headline number as a
// custom metric, so `go test -bench=. -benchmem` reproduces the whole
// evaluation at quick-campaign scale. cmd/reunion-bench prints the same
// experiments as tables (-full for paper scale). The simulator's host
// speed is measured by the repository benchmark in bench/, not here.

import (
	"strings"
	"testing"

	"reunion/internal/fault"
	"reunion/internal/workload"
)

// benchExp returns a campaign small enough for `go test -bench` while
// still resolving every qualitative shape.
func benchExp(logf func(string, ...any)) (ExpConfig, *logWriter) {
	w := &logWriter{logf: logf}
	cfg := ExpConfig{
		Seeds:         DefaultSeeds(1),
		WarmCycles:    20_000,
		MeasureCycles: 15_000,
		Table3Cycles:  60_000,
		Out:           w,
		base:          newMemo[Result](),
	}
	return cfg, w
}

type logWriter struct {
	logf func(string, ...any)
	buf  strings.Builder
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	for {
		s := w.buf.String()
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			break
		}
		w.logf("%s", s[:i])
		w.buf.Reset()
		w.buf.WriteString(s[i+1:])
	}
	return len(p), nil
}

// BenchmarkFigure5 regenerates Figure 5: Strict and Reunion normalized IPC
// per workload at a 10-cycle comparison latency.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ClassMean(workload.OLTP, "reunion"), "reunionOLTP")
		b.ReportMetric(res.ClassMean(workload.Scientific, "reunion"), "reunionSci")
		b.ReportMetric(res.ClassMean(workload.OLTP, "strict"), "strictOLTP")
	}
}

// BenchmarkFigure6a regenerates Figure 6(a): Strict normalized IPC vs
// comparison latency by workload class.
func BenchmarkFigure6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Figure6(ModeStrict)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series[workload.OLTP]
		b.ReportMetric(s[0], "OLTP@0c")
		b.ReportMetric(s[len(s)-1], "OLTP@40c")
	}
}

// BenchmarkFigure6b regenerates Figure 6(b): Reunion normalized IPC vs
// comparison latency by workload class.
func BenchmarkFigure6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Figure6(ModeReunion)
		if err != nil {
			b.Fatal(err)
		}
		s := res.Series[workload.OLTP]
		b.ReportMetric(s[0], "OLTP@0c")
		b.ReportMetric(s[len(s)-1], "OLTP@40c")
	}
}

// BenchmarkTable3 regenerates Table 3: input incoherence events per
// million instructions at each phantom strength, with TLB misses as the
// reference event rate.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Table3()
		if err != nil {
			b.Fatal(err)
		}
		var g, n float64
		for _, row := range res.Rows {
			g += row.IncoherencePerM["global"]
			n += row.IncoherencePerM["null"]
		}
		k := float64(len(res.Rows))
		b.ReportMetric(g/k, "globalInc/M")
		b.ReportMetric(n/k, "nullInc/M")
	}
}

// BenchmarkFigure7a regenerates Figure 7(a): Reunion normalized IPC per
// phantom request strength.
func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Figure7a()
		if err != nil {
			b.Fatal(err)
		}
		var g, n float64
		for _, row := range res.Rows {
			g += row.Values["global"]
			n += row.Values["null"]
		}
		k := float64(len(res.Rows))
		b.ReportMetric(g/k, "global")
		b.ReportMetric(n/k, "null")
	}
}

// BenchmarkFigure7b regenerates Figure 7(b): commercial average with
// hardware- vs software-managed TLBs across comparison latencies.
func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.Figure7b()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Hardware[len(res.Hardware)-1], "hw@40c")
		b.ReportMetric(res.Software[len(res.Software)-1], "sw@40c")
	}
}

// BenchmarkSequentialConsistency regenerates the §5.5 result: SC makes
// every store serializing, collapsing performance at large comparison
// latencies.
func BenchmarkSequentialConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.SCExperiment()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TSO[len(res.TSO)-1], "tso@40c")
		b.ReportMetric(res.SC[len(res.SC)-1], "sc@40c")
	}
}

// BenchmarkFingerprintInterval regenerates the §4.3 ablation: comparison
// intervals of 1 and 50 instructions perform indistinguishably.
func BenchmarkFingerprintInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.FPIntervalAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Reunion[0], "interval1")
		b.ReportMetric(res.Reunion[len(res.Reunion)-1], "interval50")
	}
}

// BenchmarkROBSweep regenerates the §5.2 speculation-window ablation:
// large windows eliminate the occupancy bottleneck for scientific
// workloads but cannot relieve serializing stalls for commercial ones.
func BenchmarkROBSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.ROBSweep()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Scientific[0], "sci@128")
		b.ReportMetric(res.Scientific[len(res.Scientific)-1], "sci@4096")
	}
}

// BenchmarkTopologyAblation regenerates the §4.1 ablation: Reunion at a
// snoopy cache interface vs the directory-based shared L2.
func BenchmarkTopologyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := benchExp(b.Logf)
		res, err := cfg.TopologyAblation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Commercial[0], "directory")
		b.ReportMetric(res.Commercial[1], "snoopy")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles of
// the 8-core Reunion system simulated per wall-clock second).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := workload.Apache().Build(1, 4)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	sys.Prefill()
	sys.Run(5_000) // warm the structures
	b.ResetTimer()
	sys.Run(int64(b.N))
}

// BenchmarkPairTick measures one steady-state tick of a full vocal/mute
// Reunion pair system (8 cores, shared L2, fingerprint exchange): the
// inner loop every experiment amortizes. Cycles per second here is the
// ceiling on campaign throughput.
func BenchmarkPairTick(b *testing.B) {
	w := workload.Apache().Build(1, 4)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	sys.Prefill()
	sys.Run(20_000) // reach steady state: warm caches, full windows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// BenchmarkCheckpointRestore measures rewinding a warm 8-core system to
// an in-memory checkpoint, including rebuilding every derived issue-
// stage structure (active list, waiter chains, rename map) from the
// authoritative window state.
func BenchmarkCheckpointRestore(b *testing.B) {
	w := workload.Apache().Build(1, 4)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	sys.Prefill()
	sys.Run(20_000)
	cp := sys.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Restore(cp)
	}
}

// BenchmarkSystemRestore times the restore a fault campaign pays before
// every trial: the apache Reunion cell warmed 20k cycles (seed 1), then a
// 2000-commit injected trial, then System.Restore of the warm checkpoint.
// Only the restore is timed. Each iteration also simulates a trial, so
// run it with a fixed count: go test -run '^$' -bench SystemRestore
// -benchtime 20x .
func BenchmarkSystemRestore(b *testing.B) {
	o := Options{
		Mode:         ModeReunion,
		Workload:     workload.Apache(),
		Seed:         1,
		WarmCycles:   20_000,
		CommitTarget: 2_000,
		Inject:       &fault.Injection{Core: 0, Cycle: 500, Bit: 13},
	}.withDefaults()
	sys := warmSystem(o)
	cp := sys.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := measure(sys, o); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sys.Restore(cp)
	}
}

// BenchmarkCheckpointSnapshot measures taking that checkpoint.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	w := workload.Apache().Build(1, 4)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	sys.Prefill()
	sys.Run(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Snapshot()
	}
}

// ckptBenchCell warms the apache Reunion cell (seed 1, 100k warm cycles)
// and encodes its checkpoint: the 57 MB blob a checkpoint store puts and
// gets for a production-sized cell.
func ckptBenchCell(b *testing.B) (cp *Checkpoint, key uint64, blob []byte) {
	o := Options{Mode: ModeReunion, Workload: workload.Apache(), Seed: 1, WarmCycles: 100_000}.withDefaults()
	key = CheckpointKey(o)
	cp = warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, key)
	if err != nil {
		b.Fatal(err)
	}
	return cp, key, blob
}

// BenchmarkCheckpointEncode measures serializing that checkpoint, CRC-64
// seal included.
func BenchmarkCheckpointEncode(b *testing.B) {
	cp, key, blob := ckptBenchCell(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCheckpoint(cp, key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode measures parsing that blob, CRC-64 check and
// structural validation included (Bind and Restore are not timed).
func BenchmarkCheckpointDecode(b *testing.B) {
	_, _, blob := ckptBenchCell(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCheckpoint(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintGen measures fingerprint generation cost per
// instruction record (both compression modes).
func BenchmarkFingerprintGen(b *testing.B) {
	for _, mode := range []FingerprintMode{FPDirect, FPTwoStage} {
		b.Run(mode.String(), func(b *testing.B) {
			g := newFPGen(mode)
			for i := 0; i < b.N; i++ {
				g.Instruction(true, 5, int64(i), i%7 == 0, true, int64(i), i%3 == 0, uint64(i), uint64(i))
			}
			_ = g.Value()
		})
	}
}
