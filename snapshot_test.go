package reunion

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"reunion/internal/fault"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// A run restored from a warm checkpoint must be bit-identical to a
// straight-through run: same stat counters, same architectural and commit
// digests, byte-identical sweep JSONL. These tests are the contract the
// checkpoint subsystem (System.Snapshot/Restore, WarmCache) is held to,
// in the same style as the kernel A/B tests: any unsnapshotted state
// shows up here as the exact counter that diverged.

// snapRun executes the warm+measure methodology with a snapshot at the
// measurement boundary. perturb selects what happens between Snapshot and
// the measurement: nothing (the straight-through reference), or a
// divergent excursion — extra cycles, an injected fault, a stats reset —
// followed by Restore. Both must yield identical measurements.
func snapRun(t *testing.T, topo Topology, mode Mode, kern Kernel, cons Consistency, perturb bool) map[string]int64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Topology, cfg.Kernel = topo, kern
	cfg.Core.Consistency = cons
	w := workload.Apache().Build(7, 2)
	sys := NewSystem(cfg, mode, w, 7)
	sys.Prefill()
	sys.Run(6_000)
	cp := sys.Snapshot()
	if perturb {
		// Divergent excursion: run on, flip a datapath bit, reset stats,
		// run more — then rewind. Nothing of this may survive the restore.
		sys.Cores[0].ArmFault(13)
		sys.Run(2_500)
		sys.ResetStats()
		sys.Run(1_500)
		sys.Restore(cp)
	}
	sys.ResetStats()
	sys.Run(6_000)
	return systemStats(sys)
}

// TestSnapshotRestoreEquivalence proves restore-then-run equals
// straight-through across mode × topology × kernel × consistency: every
// statistic counter, the clock, and the architectural digest.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			for _, kern := range []Kernel{KernelNaive, KernelFastForward} {
				for _, cons := range []Consistency{TSO, SC} {
					label := fmt.Sprintf("%v/%v/%v/%v", topo, mode, kern, ConsistencyName(cons))
					straight := snapRun(t, topo, mode, kern, cons, false)
					restored := snapRun(t, topo, mode, kern, cons, true)
					diffStats(t, label, straight, restored)
				}
			}
		}
	}
}

// TestSnapshotNonInvasive proves Snapshot is read-only: a run that
// snapshots and continues matches one that never snapshotted.
func TestSnapshotNonInvasive(t *testing.T) {
	run := func(snapshot bool) map[string]int64 {
		w := workload.Ocean().Build(3, 2)
		sys := NewSystem(DefaultConfig(), ModeReunion, w, 3)
		sys.Prefill()
		sys.Run(5_000)
		if snapshot {
			_ = sys.Snapshot()
		}
		sys.ResetStats()
		sys.Run(5_000)
		return systemStats(sys)
	}
	diffStats(t, "snapshot-vs-none", run(false), run(true))
}

// TestSnapshotRepeatedRestore proves one checkpoint restores any number
// of times: three restored measurement runs from the same warm checkpoint
// are identical to each other and to the straight-through run.
func TestSnapshotRepeatedRestore(t *testing.T) {
	w := workload.DSSQ1().Build(5, 2)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 5)
	sys.Prefill()
	sys.Run(6_000)
	cp := sys.Snapshot()
	sys.ResetStats()
	sys.Run(6_000)
	want := systemStats(sys)
	for i := 0; i < 3; i++ {
		sys.Restore(cp)
		sys.ResetStats()
		sys.Run(6_000)
		diffStats(t, fmt.Sprintf("restore#%d", i+1), want, systemStats(sys))
	}
}

// TestSnapshotInterrupts covers the interrupt-delivery chain across a
// snapshot boundary: restored runs must service the same interrupts at
// the same comparison boundaries.
func TestSnapshotInterrupts(t *testing.T) {
	for _, mode := range []Mode{ModeNonRedundant, ModeReunion} {
		run := func(perturb bool) map[string]int64 {
			cfg := DefaultConfig()
			cfg.InterruptEvery, cfg.InterruptCost = 293, 77
			sys := NewSystem(cfg, mode, workload.Apache().Build(11, 2), 11)
			sys.Prefill()
			sys.Run(5_000)
			cp := sys.Snapshot()
			if perturb {
				sys.Run(2_000)
				sys.Restore(cp)
			}
			sys.ResetStats()
			sys.Run(5_000)
			return systemStats(sys)
		}
		straight := run(false)
		restored := run(true)
		diffStats(t, mode.String(), straight, restored)
		if straight["interrupts"] == 0 {
			t.Errorf("%v: no interrupts serviced in the measured window", mode)
		}
	}
}

// TestWarmCacheRunEquivalence proves the Run-level warm reuse: fresh runs
// and warm-cache runs (first fill, then repeated restores) produce deeply
// equal Results, including a mid-trial fault-injection case where the
// trial diverges hard from the golden run before the next restore.
func TestWarmCacheRunEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeReunion, ModeNonRedundant} {
		core := 1
		if mode == ModeNonRedundant {
			core = 0
		}
		golden := DefaultOptions()
		golden.Mode, golden.Workload, golden.Seed = mode, workload.Apache(), 17
		golden.WarmCycles, golden.CommitTarget = 6_000, 1_200
		injected := golden
		injected.Inject = &fault.Injection{Cycle: 700, Core: core, Bit: 13}

		wantG, err := Run(golden)
		if err != nil {
			t.Fatalf("%v golden: %v", mode, err)
		}
		wantI, err := Run(injected)
		if err != nil {
			t.Fatalf("%v injected: %v", mode, err)
		}

		warm := NewWarmCache()
		golden.Warm, injected.Warm = warm, warm
		// Interleave golden and injected trials over one shared warm
		// checkpoint; every repetition must match the fresh runs exactly.
		for i, o := range []Options{golden, injected, injected, golden, injected} {
			got, err := Run(o)
			if err != nil {
				t.Fatalf("%v warm run %d: %v", mode, i, err)
			}
			want := wantG
			if o.Inject != nil {
				want = wantI
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v warm run %d diverged:\nfresh: %+v\nwarm:  %+v", mode, i, want, got)
			}
		}
	}
}

// TestWarmCacheMeasureWindows proves cells differing only in
// measurement-phase knobs share one warm checkpoint and still match
// their fresh runs: different measure windows, commit targets, and
// injections over a single key.
func TestWarmCacheMeasureWindows(t *testing.T) {
	warm := NewWarmCache()
	base := DefaultOptions()
	base.Mode, base.Workload, base.Seed, base.WarmCycles = ModeReunion, workload.DSSQ1(), 5, 6_000
	for _, measure := range []int64{3_000, 7_000} {
		fresh := base
		fresh.MeasureCycles = measure
		want, err := Run(fresh)
		if err != nil {
			t.Fatal(err)
		}
		cached := fresh
		cached.Warm = warm
		got, err := Run(cached)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("measure=%d diverged:\nfresh: %+v\nwarm:  %+v", measure, want, got)
		}
	}
	if n := len(warm.m); n != 1 {
		t.Errorf("warm cache holds %d entries, want 1 (measurement knobs must not split the key)", n)
	}
}

// TestSnapshotSweepJSONL runs a sweep matrix through the experiment
// engine with and without the warm-state cache and requires the
// serialized JSONL result stream to be byte-identical — the end-to-end
// guarantee that no experiment artifact can tell warm reuse apart from
// re-warming.
func TestSnapshotSweepJSONL(t *testing.T) {
	var out [2]bytes.Buffer
	for i, warm := range []*WarmCache{nil, NewWarmCache()} {
		base := DefaultOptions()
		base.Seed, base.WarmCycles, base.MeasureCycles, base.Warm = 3, 5_000, 5_000, warm
		spec := sweep.Spec[Options]{
			Name: "snapshot-ab",
			Base: base,
			Axes: []sweep.Axis[Options]{
				sweep.NewAxis("workload", []workload.Params{workload.Apache(), workload.DSSQ1()},
					func(p workload.Params) string { return p.Name },
					func(o *Options, p workload.Params) { o.Workload = p }),
				sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
					func(o *Options, m Mode) { o.Mode = m }),
				sweep.NewAxis("target", []int64{0, 900},
					func(v int64) string { return fmt.Sprint(v) },
					func(o *Options, v int64) { o.CommitTarget = v }),
			},
		}
		if err := SweepRecords(context.Background(), spec, nil, sweep.NewJSONL(&out[i]), 4, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Error("JSONL sweep output differs between re-warm and warm-reuse runs")
	}
}

// TestResetStatsKernelCounters is the regression test for the
// measurement-boundary audit: the scheduler's fast-forward accounting and
// the gates' interrupts-serviced counters must reset with the other
// statistics, or warmup bleeds into measured kernel-efficiency metrics.
func TestResetStatsKernelCounters(t *testing.T) {
	for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
		cfg := DefaultConfig()
		cfg.InterruptEvery, cfg.InterruptCost = 211, 50
		sys := NewSystem(cfg, mode, workload.Apache().Build(3, 2), 3)
		sys.Prefill()
		sys.Run(6_000)
		if sys.Sched.Steps == 0 || sys.Sched.SkippedCycles == 0 || sys.Sched.FastForwards == 0 {
			t.Fatalf("%v: warmup did not exercise the fast-forward kernel (steps=%d jumps=%d skipped=%d)",
				mode, sys.Sched.Steps, sys.Sched.FastForwards, sys.Sched.SkippedCycles)
		}
		if sys.InterruptsServiced() == 0 {
			t.Fatalf("%v: warmup serviced no interrupts", mode)
		}
		sys.ResetStats()
		if sys.Sched.Steps != 0 || sys.Sched.FastForwards != 0 || sys.Sched.SkippedCycles != 0 {
			t.Errorf("%v: scheduler counters survived ResetStats (steps=%d jumps=%d skipped=%d)",
				mode, sys.Sched.Steps, sys.Sched.FastForwards, sys.Sched.SkippedCycles)
		}
		if n := sys.InterruptsServiced(); n != 0 {
			t.Errorf("%v: interrupts-serviced counter survived ResetStats (%d)", mode, n)
		}
	}
}
