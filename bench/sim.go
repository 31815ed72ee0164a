package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"reunion"
	"reunion/internal/workload"
)

// The sim workloads run apache on four logical processors with the
// directory L2 and the fast-forward kernel. Setup builds, prefills and
// warms a system and snapshots it; each timed round restores the
// snapshot and simulates the same window, so every round does identical
// simulated work and must produce an identical output digest.
const (
	simThreads     = 4
	simWarmCycles  = 100_000
	simRoundCycles = 200_000
	simSetups      = 5 // setup_s is the median of this many setups
)

func runSim(b *bench, mode reunion.Mode) error {
	ph := phases{}
	begin := time.Now()
	var sys *reunion.System
	var cp *reunion.Checkpoint
	setups := make([]float64, simSetups)
	for i := range setups {
		sys, cp = nil, nil
		collectGarbage(ph)
		t0 := time.Now()
		w := workload.Apache().Build(b.seed, simThreads)
		sys = reunion.NewSystem(reunion.DefaultConfig(), mode, w, b.seed)
		t := ph.since("build", t0)
		sys.Prefill()
		t = ph.since("prefill", t)
		sys.Run(simWarmCycles)
		t = ph.since("warm", t)
		cp = sys.Snapshot()
		t = ph.since("snapshot", t)
		setups[i] = t.Sub(t0).Seconds()
	}
	b.set("setup_s", "s", median(setups))

	var res reunion.Result
	var skipped int64
	var allocBytes, gcs uint64
	var profiles []string // per-round CPU profiles, when profiling
	profiling := false
	rounds := 0
	round := func() (sample, error) {
		rounds++
		t := time.Now()
		sys.Restore(cp)
		ph.since("restore", t)
		collectGarbage(ph)

		t = time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0, gc0 := ms.TotalAlloc, ms.NumGC
		stopProfile := func() error { return nil }
		if profiling {
			p := filepath.Join(b.traceDir, fmt.Sprintf("cpu%d.prof", rounds))
			stop, err := startCPUProfile(p)
			if err != nil {
				return sample{}, err
			}
			stopProfile, profiles = stop, append(profiles, p)
		}
		start := ph.since("bench", t)
		cpu0, _ := selfUsage()
		sys.ResetStats()
		sys.Run(simRoundCycles)
		t = ph.since("measure", start)
		res = reunion.Collect(sys, simRoundCycles)
		t = ph.since("collect", t)
		cpu1, _ := selfUsage()
		s := sample{wall: t.Sub(start), cpu: cpu1 - cpu0, ops: float64(res.Committed) / 1e3}
		skipped = sys.Sched.SkippedCycles
		if err := stopProfile(); err != nil {
			return sample{}, err
		}
		runtime.ReadMemStats(&ms)
		allocBytes += ms.TotalAlloc - alloc0
		gcs += uint64(ms.NumGC - gc0)
		t = ph.since("bench", t)

		b.attempt(1)
		err := b.checkDigest(simDigest(res, sys.ArchDigest()))
		switch {
		case sys.Failed():
			b.fail(1, "unrecoverable failure in a fault-free run")
		case res.Committed == 0:
			b.fail(1, "no instruction committed")
		case err != nil:
			b.fail(1, err.Error())
		}
		ph.since("check", t)
		return s, nil
	}

	plain, err := timeRounds(b.budget, round)
	if err != nil {
		return err
	}
	b.setRounds(plain)
	_, peakRSS := selfUsage()
	b.set("peak_rss_mb", "MB", peakRSS)
	b.set("host.cpu_util", "frac", b.metrics["cpu_s"].Value/b.metrics["wall_s"].Value)
	if !b.traced {
		return nil
	}

	if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
		return err
	}
	profiling = true
	traced, err := timeRounds(b.budget, round)
	if err != nil {
		return err
	}
	elapsed := time.Since(begin)
	b.setOverhead(plain, traced)
	b.set("trace.phase_gap_frac", "frac", 1-ph.total().Seconds()/elapsed.Seconds())

	perRound := func(d time.Duration) float64 { return d.Seconds() / float64(rounds) }
	perSetup := func(d time.Duration) float64 { return d.Seconds() / simSetups }
	b.set("phase.build_s", "s", perSetup(ph["build"]))
	b.set("phase.prefill_s", "s", perSetup(ph["prefill"]))
	b.set("phase.warm_s", "s", perSetup(ph["warm"]))
	b.set("phase.snapshot_s", "s", perSetup(ph["snapshot"]))
	b.set("phase.restore_s", "s", perRound(ph["restore"]))
	b.set("phase.gc_s", "s", ph["gc"].Seconds()/float64(rounds+simSetups))
	b.set("phase.measure_s", "s", perRound(ph["measure"]))
	b.set("phase.collect_s", "s", perRound(ph["collect"]))
	b.set("phase.check_s", "s", perRound(ph["check"]))
	b.set("phase.bench_s", "s", perRound(ph["bench"]))
	b.set("warm.warmup_ms_per_op", "ms", median(setups)*1e3)
	b.set("warm.restore_ms_per_op", "ms", perRound(ph["restore"])*1e3)

	b.set("sim.cycles", "count", simRoundCycles)
	b.set("sim.skipped_cycles", "count", float64(skipped))
	b.set("sim.skip_frac", "frac", float64(skipped)/simRoundCycles)
	b.set("cpu.committed", "count", float64(res.Committed))
	b.set("cpu.mispredicts", "count", float64(res.Mispredicts))
	b.set("core.compares", "count", float64(res.Compares))
	b.set("core.recoveries", "count", float64(res.Recoveries))
	b.set("core.incoherence_events", "count", float64(res.IncoherenceEvents))
	b.set("core.sync_requests", "count", float64(res.SyncRequests))
	b.set("cache.l1d_misses", "count", float64(res.L1DMisses))
	b.set("coherence.l2_misses", "count", float64(res.L2Misses))
	b.set("coherence.mem_accesses", "count", float64(res.MemAccesses))
	b.set("tlb.misses", "count", float64(res.TLBMisses))
	b.set("runtime.alloc_mb", "MB", float64(allocBytes)/(1<<20)/float64(rounds))
	b.set("runtime.gc_count", "count", float64(gcs)/float64(rounds))

	layers, err := profileLayers(b.ctx, profiles...)
	if err != nil {
		return err
	}
	b.setLayers(layers, len(traced))
	return nil
}

// collectGarbage runs a full collection so the garbage of set-up and of
// each restore is not collected, at a varying cost, inside a timed
// window. The simulator's own allocations in the window still pay for
// their collections.
func collectGarbage(ph phases) {
	t := time.Now()
	runtime.GC()
	ph.since("gc", t)
}

// simDigest hashes a round's statistics and the architectural state it
// ended in.
func simDigest(r reunion.Result, arch uint64) string {
	m := r.Metrics()
	h := sha256.New()
	for _, k := range slices.Sorted(maps.Keys(m)) {
		fmt.Fprintf(h, "%s=%v\n", k, m[k])
	}
	fmt.Fprintf(h, "arch=%016x\n", arch)
	return hex.EncodeToString(h.Sum(nil))
}

// startCPUProfile profiles this process into path until the returned
// function is called.
func startCPUProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// selfUsage returns the user and system CPU time this process has used
// and its peak resident set size in MB.
func selfUsage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}
