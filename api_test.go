package reunion

import (
	"io"
	"strings"
	"testing"

	"reunion/internal/workload"
)

func TestOptionDefaults(t *testing.T) {
	o := DefaultOptions()
	c := o.Config
	if c != DefaultConfig() || c.LogicalProcessors != 4 || o.Seed != 0x5eed || c.CompareLatency != 10 || c.Core.FPInterval != 1 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.WarmCycles != 100_000 || o.MeasureCycles != 50_000 || o.TrialDeadline != 200_000 {
		t.Fatalf("window defaults: %+v", o)
	}
	if o.CommitTarget != 0 || o.TraceEvents != 0 || o.Mode != ModeNonRedundant || c.L2.Phantom != PhantomGlobal {
		t.Fatalf("a trial or trace is on by default: %+v", o)
	}
	if c.Kernel != KernelFastForward || c.InterruptEvery != 0 || c.InterruptCost != 150 {
		t.Fatalf("kernel or interrupt defaults: %+v", c)
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("DefaultOptions does not validate: %v", err)
	}
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.Core.ROBSize != 256 || c.Core.SBSize != 64 || c.Core.DispatchWidth != 4 {
		t.Fatal("core parameters deviate from Table 1")
	}
	if c.L1Bytes != 64<<10 || c.L1Ways != 2 || c.L1MSHRs != 32 || c.Core.LoadToUse != 2 {
		t.Fatal("L1 parameters deviate from Table 1")
	}
	if c.L2.CapacityBytes != 16<<20 || c.L2.Banks != 4 || c.L2.Ways != 8 || c.L2.HitLatency != 35 {
		t.Fatal("L2 parameters deviate from Table 1")
	}
	if c.ITLBEntries != 128 || c.DTLBEntries != 512 {
		t.Fatal("TLB parameters deviate from Table 1")
	}
	if c.L2.MemLatency != 240 || c.L2.MemBanks != 64 {
		t.Fatal("memory parameters deviate from Table 1 (60ns at 4GHz, 64 banks)")
	}
	if c.L2.Phantom != PhantomGlobal || c.Core.FPInterval != 1 {
		t.Fatal("Reunion defaults deviate from the paper's evaluation setup")
	}
}

func TestModeAndEnumStrings(t *testing.T) {
	if ModeNonRedundant.String() != "non-redundant" || ModeStrict.String() != "strict" ||
		ModeReunion.String() != "reunion" || Mode(9).String() != "?" {
		t.Fatal("mode names")
	}
	if TopologyDirectory.String() != "directory" || TopologySnoopy.String() != "snoopy" {
		t.Fatal("topology names")
	}
}

func TestDefaultSeedsDistinct(t *testing.T) {
	s := DefaultSeeds(5)
	seen := map[uint64]bool{}
	for _, x := range s {
		if seen[x] {
			t.Fatal("duplicate seed")
		}
		seen[x] = true
	}
}

func TestExpConfigPrintf(t *testing.T) {
	var sb strings.Builder
	c := QuickExp(&sb)
	c.printf("hello %d\n", 42)
	if !strings.Contains(sb.String(), "hello 42") {
		t.Fatal("printf lost output")
	}
	silent := QuickExp(nil)
	silent.printf("dropped\n") // must not panic
}

func TestCommercialSuiteExcludesScientific(t *testing.T) {
	for _, p := range commercialSuite() {
		if p.Class == workload.Scientific {
			t.Fatalf("%s is scientific", p.Name)
		}
	}
	if len(commercialSuite()) != 7 {
		t.Fatalf("commercial suite size %d want 7", len(commercialSuite()))
	}
}

func TestCollectRates(t *testing.T) {
	w := workload.Sparse().Build(3, 2)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 3)
	sys.Prefill()
	sys.Run(8_000)
	sys.ResetStats()
	sys.Run(8_000)
	r := Collect(sys, 8_000)
	if r.Committed <= 0 || r.UserIPC <= 0 {
		t.Fatalf("no progress: %+v", r)
	}
	if r.AvgROBOccupancy <= 0 || r.AvgROBOccupancy > 256 {
		t.Fatalf("occupancy %v out of range", r.AvgROBOccupancy)
	}
	if r.Compares <= 0 {
		t.Fatal("no comparisons under Reunion")
	}
	if r.CommittedLoads == 0 || r.CommittedStores == 0 {
		t.Fatal("load/store accounting missing")
	}
}

func TestQuickAndFullCampaignSizing(t *testing.T) {
	q, fl := QuickExp(io.Discard), FullExp(io.Discard)
	if len(q.Seeds) >= len(fl.Seeds) {
		t.Fatal("full campaign must use more seeds")
	}
	if q.MeasureCycles >= fl.MeasureCycles || q.Table3Cycles >= fl.Table3Cycles {
		t.Fatal("full campaign must use longer windows")
	}
}

// TestRunRejectsOutOfRangeKnobs: a negative comparison latency, a
// negative fingerprint interval and a negative cycle count, commit
// target or deadline are errors naming the value, not runs that silently
// alias the zero-cycle latency, interval 1 or a meaningless window.
func TestRunRejectsOutOfRangeKnobs(t *testing.T) {
	for _, c := range []struct {
		set  func(*Options)
		want string
	}{
		{func(o *Options) { o.Config.CompareLatency = -5 }, "comparison latency -5"},
		{func(o *Options) { o.Config.Core.FPInterval = -2 }, "fingerprint interval -2"},
		{func(o *Options) { o.WarmCycles = -1 }, "warm cycles -1"},
		{func(o *Options) { o.MeasureCycles = -5 }, "measure cycles -5"},
		{func(o *Options) { o.TrialDeadline = -1 }, "trial deadline -1"},
		{func(o *Options) { o.CommitTarget = -3 }, "commit target -3"},
	} {
		o := DefaultOptions()
		o.Mode, o.Workload, o.WarmCycles, o.MeasureCycles = ModeReunion, workload.Apache(), 3000, 2000
		c.set(&o)
		if _, err := Run(o); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("err = %v, want an error naming %q", err, c.want)
		}
	}
}

// TestRunRejectsUnknownPhantomStrength: an out-of-range phantom strength
// is an error naming the value under either topology, not a run in which
// one topology silently drops every mute request and the other treats it
// as global; the three valid strengths still run.
func TestRunRejectsUnknownPhantomStrength(t *testing.T) {
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		o := DefaultOptions()
		o.Mode, o.Workload, o.Config.Topology = ModeReunion, workload.Apache(), topo
		o.WarmCycles, o.MeasureCycles = 3000, 2000
		t.Run(topo.String(), func(t *testing.T) {
			o.Config.L2.Phantom = Phantom(7)
			if _, err := Run(o); err == nil || !strings.Contains(err.Error(), "phantom strength 7") {
				t.Fatalf("Phantom(7): err = %v, want an error naming strength 7", err)
			}
			for _, p := range []Phantom{PhantomNull, PhantomShared, PhantomGlobal} {
				o.Config.L2.Phantom = p
				if res, err := Run(o); err != nil || res.Committed == 0 {
					t.Fatalf("%v: committed %d, err %v", p, res.Committed, err)
				}
			}
		})
	}
}
