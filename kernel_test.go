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

// The quiescence-aware fast-forward kernel must be bit-identical to the
// naive per-cycle kernel: same cycle counts, same architectural digests,
// and the same value in every statistic counter, on every mode and
// topology. These tests are the contract the tentpole refactor is held
// to; any quiescence-predicate bug shows up here as a diff.

// systemStats flattens every statistic the system keeps into one named
// map so a kernel mismatch reports the exact counter that diverged.
func systemStats(sys *System) map[string]int64 {
	m := map[string]int64{
		"now": sys.EQ.Now(),
	}
	for _, c := range sys.Cores {
		p := func(k string, v int64) { m[fmt.Sprintf("core%d.%s", c.ID, k)] = v }
		p("committed", c.Stats.Committed)
		p("committed_loads", c.Stats.CommittedLoads)
		p("committed_stores", c.Stats.CommittedStores)
		p("mispredicts", c.Stats.Mispredicts)
		p("serializing", c.Stats.Serializing)
		p("itlb_misses", c.Stats.ITLBMisses)
		p("dtlb_misses", c.Stats.DTLBMisses)
		p("rob_occupancy", c.Stats.ROBOccupancy)
		p("check_occupancy", c.Stats.CheckOccupancy)
		p("cycles", c.Stats.Cycles)
		p("issue_stall_ser", c.Stats.IssueStallSer)
		p("sb_full_stalls", c.Stats.SBFullStalls)
		p("dev_reads", c.Stats.DevReads)
		p("l1d_hits", c.L1D.Hits)
		p("l1d_misses", c.L1D.Misses)
		p("l1d_merged", c.L1D.MergedMisses)
		p("l1d_fills", c.L1D.Fills)
		p("l1d_wb", c.L1D.WritebacksSent)
		p("l1d_retries", c.L1D.Retries)
		p("l1i_hits", c.L1I.Hits)
		p("l1i_misses", c.L1I.Misses)
		p("itlb_hits", c.ITLB.Hits)
		p("dtlb_hits", c.DTLB.Hits)
	}
	for _, pr := range sys.Pairs {
		p := func(k string, v int64) { m[fmt.Sprintf("pair%d.%s", pr.ID, k)] = v }
		p("recoveries", pr.Stats.Recoveries)
		p("incoherence", pr.Stats.IncoherenceEvents)
		p("fault_events", pr.Stats.FaultEvents)
		p("phase2", pr.Stats.Phase2)
		p("failures", pr.Stats.Failures)
		p("sync_requests", pr.Stats.SyncRequests)
		p("timeouts", pr.Stats.Timeouts)
		p("compares", pr.Stats.Compares)
		p("compare_wait_vocal", pr.Stats.CompareWaitVocal)
		p("compare_wait_mute", pr.Stats.CompareWaitMute)
	}
	if sys.L2 != nil {
		arr, wait := sys.L2.QueueStats()
		m["l2.reads"] = sys.L2.Reads
		m["l2.readx"] = sys.L2.ReadX
		m["l2.ifetches"] = sys.L2.Ifetches
		m["l2.hits"] = sys.L2.HitsL2
		m["l2.misses"] = sys.L2.MissesL2
		m["l2.recalls"] = sys.L2.Recalls
		m["l2.invalidations"] = sys.L2.Invalidations
		m["l2.mem_accesses"] = sys.L2.MemAccesses
		m["l2.phantom_reqs"] = sys.L2.PhantomReqs
		m["l2.phantom_garbage"] = sys.L2.PhantomGarbage
		m["l2.phantom_peeks"] = sys.L2.PhantomPeeks
		m["l2.phantom_mem_reads"] = sys.L2.PhantomMemReads
		m["l2.sync_requests"] = sys.L2.SyncRequests
		m["l2.writebacks"] = sys.L2.WritebacksRecv
		m["l2.retries_internal"] = sys.L2.RetriesInternal
		m["l2.mem_queue_wait"] = sys.L2.MemQueueWait
		m["l2.bank_arrivals"] = arr
		m["l2.bank_wait"] = wait
	}
	if sys.Bus != nil {
		m["bus.transactions"] = sys.Bus.Transactions
		m["bus.reads"] = sys.Bus.Reads
		m["bus.readx"] = sys.Bus.ReadX
		m["bus.ifetches"] = sys.Bus.Ifetches
		m["bus.snoop_hits"] = sys.Bus.SnoopHits
		m["bus.mem_accesses"] = sys.Bus.MemAccesses
		m["bus.writebacks"] = sys.Bus.WritebacksRecv
		m["bus.phantom_reqs"] = sys.Bus.PhantomReqs
		m["bus.phantom_garbage"] = sys.Bus.PhantomGarbage
		m["bus.sync_requests"] = sys.Bus.SyncRequests
		m["bus.retries"] = sys.Bus.Retries
		m["bus.mem_queue_wait"] = sys.Bus.MemQueueWait
	}
	m["arch_digest"] = int64(sys.ArchDigest())
	m["interrupts"] = sys.InterruptsServiced()
	return m
}

func diffStats(t *testing.T, label string, naive, ff map[string]int64) {
	t.Helper()
	for k, nv := range naive {
		if fv, ok := ff[k]; !ok || fv != nv {
			t.Errorf("%s: %s: naive=%d fastforward=%d", label, k, nv, fv)
		}
	}
	for k := range ff {
		if _, ok := naive[k]; !ok {
			t.Errorf("%s: %s only in fastforward stats", label, k)
		}
	}
}

// TestKernelEquivalence runs the warm+measure methodology under both
// kernels across mode × topology × workload × seed and requires every
// counter and the architectural digest to be bit-identical — and the
// fast-forward kernel to have actually skipped cycles somewhere (so the
// equivalence is not vacuous).
func TestKernelEquivalence(t *testing.T) {
	workloads := []workload.Params{workload.Apache(), workload.DSSQ1()}
	var skippedTotal int64
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			for _, p := range workloads {
				for _, seed := range []uint64{3, 0x5eed} {
					label := fmt.Sprintf("%v/%v/%s/seed%d", topo, mode, p.Name, seed)
					var stats [2]map[string]int64
					for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
						cfg := DefaultConfig()
						cfg.Topology, cfg.Kernel = topo, kern
						w := p.Build(seed, 2)
						sys := NewSystem(cfg, mode, w, seed)
						sys.Prefill()
						sys.Run(8_000)
						sys.ResetStats()
						sys.Run(8_000)
						stats[i] = systemStats(sys)
						if kern == KernelFastForward {
							skippedTotal += sys.Sched.SkippedCycles
						}
					}
					diffStats(t, label, stats[0], stats[1])
				}
			}
		}
	}
	if skippedTotal == 0 {
		t.Error("fast-forward kernel never skipped a cycle across the whole matrix; equivalence is vacuous")
	}
	t.Logf("fast-forward skipped %d idle cycles across the matrix", skippedTotal)
}

// TestKernelEquivalenceInterrupts covers the interrupt-heavy path: the
// periodic boundary is a scheduled event, and both kernels must service
// the same interrupts at the same comparison boundaries, halting at the
// same cycle.
func TestKernelEquivalenceInterrupts(t *testing.T) {
	for _, mode := range []Mode{ModeNonRedundant, ModeReunion} {
		var cycles [2]int64
		var stats [2]map[string]int64
		for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
			cfg := DefaultConfig()
			cfg.Kernel, cfg.InterruptEvery, cfg.InterruptCost = kern, 293, 77
			sys := NewSystem(cfg, mode, workload.MicroCounter(2, 40), 11)
			n, halted := sys.RunUntilHalted(20_000_000)
			if !halted {
				t.Fatalf("%v/%v: did not halt", mode, kern)
			}
			cycles[i] = n
			stats[i] = systemStats(sys)
			if got, _ := sys.CoherentWord(workload.CounterAddr); got != 80 {
				t.Fatalf("%v/%v: counter=%d want 80", mode, kern, got)
			}
		}
		if cycles[0] != cycles[1] {
			t.Errorf("%v: halted at naive=%d fastforward=%d cycles", mode, cycles[0], cycles[1])
		}
		diffStats(t, mode.String(), stats[0], stats[1])
		if stats[1]["interrupts"] == 0 {
			t.Errorf("%v: no interrupts serviced", mode)
		}
	}
}

// TestKernelEquivalenceTrial covers the fault-injection trial path: a
// precise single-shot injection with a commit-target boundary must
// classify identically (digests, detection latency, trial cycles) under
// both kernels.
func TestKernelEquivalenceTrial(t *testing.T) {
	for _, mode := range []Mode{ModeReunion, ModeNonRedundant} {
		core := 1
		if mode == ModeNonRedundant {
			core = 0
		}
		var res [2]Result
		for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
			o := DefaultOptions()
			o.Mode, o.Workload, o.Seed, o.Config.Kernel = mode, workload.Apache(), 17, kern
			o.Inject = &fault.Injection{Cycle: 900, Core: core, Bit: 13}
			o.WarmCycles, o.CommitTarget = 6_000, 1_500
			r, err := Run(o)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, kern, err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%v: trial results differ:\nnaive:       %+v\nfastforward: %+v", mode, res[0], res[1])
		}
	}
}

// TestKernelEquivalenceTLBConsistency covers the remaining timing-model
// dimensions: software-managed TLBs (serializing trap handlers, the
// hardest per-cycle stall accounting) and sequential consistency (every
// store serializing).
func TestKernelEquivalenceTLBConsistency(t *testing.T) {
	for _, mode := range []Mode{ModeStrict, ModeReunion} {
		var res [2]Result
		for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
			o := DefaultOptions()
			o.Mode, o.Workload, o.Seed, o.Config.Kernel = mode, workload.Apache(), 9, kern
			o.Config.Core.TLB.Mode, o.Config.Core.Consistency = TLBSoftware, SC
			o.WarmCycles, o.MeasureCycles = 6_000, 6_000
			r, err := Run(o)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, kern, err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%v: results differ:\nnaive:       %+v\nfastforward: %+v", mode, res[0], res[1])
		}
	}
}

// TestKernelEquivalenceJSONL runs a small sweep matrix through the
// experiment engine under both kernels and requires the serialized JSONL
// result stream to be byte-identical — the end-to-end guarantee that no
// experiment artifact can tell the kernels apart.
func TestKernelEquivalenceJSONL(t *testing.T) {
	var out [2]bytes.Buffer
	for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
		base := DefaultOptions()
		base.Seed, base.WarmCycles, base.MeasureCycles, base.Config.Kernel = 3, 5_000, 5_000, kern
		spec := sweep.Spec[Options]{
			Name: "kernel-ab",
			Base: base,
			Axes: []sweep.Axis[Options]{
				sweep.NewAxis("workload", []workload.Params{workload.Apache(), workload.DSSQ1()},
					func(p workload.Params) string { return p.Name },
					func(o *Options, p workload.Params) { o.Workload = p }),
				sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
					func(o *Options, m Mode) { o.Mode = m }),
			},
		}
		if err := SweepRecords(context.Background(), spec, nil, sweep.NewJSONL(&out[i]), 0, nil, nil); err != nil {
			t.Fatalf("%v: %v", kern, err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Error("JSONL experiment output differs between kernels")
	}
}

// TestKernelEquivalenceRun checks the public Run entry point end to end:
// the Result structs (every metric, including derived floats computed
// from identical integers) must be deeply equal.
func TestKernelEquivalenceRun(t *testing.T) {
	for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
		var res [2]Result
		for i, kern := range []Kernel{KernelNaive, KernelFastForward} {
			o := DefaultOptions()
			o.Mode, o.Workload, o.Seed, o.Config.Kernel = mode, workload.Ocean(), 5, kern
			o.WarmCycles, o.MeasureCycles = 8_000, 8_000
			r, err := Run(o)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, kern, err)
			}
			res[i] = r
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%v: results differ:\nnaive:       %+v\nfastforward: %+v", mode, res[0], res[1])
		}
	}
}
