package reunion

import (
	"testing"

	"reunion/internal/workload"
)

// TestSmokeNonRedundantCounter runs the canonical lock-protected counter
// microbenchmark on the baseline CMP and checks the final memory value:
// end-to-end functional correctness of fetch, rename, OOO issue, the
// store buffer, coherence, and atomics.
func TestSmokeNonRedundantCounter(t *testing.T) {
	w := workload.MicroCounter(4, 50)
	sys := NewSystem(DefaultConfig(), ModeNonRedundant, w, 1)
	cycles, halted := sys.RunUntilHalted(3_000_000)
	if !halted {
		for _, c := range sys.Cores {
			t.Log(c.DumpState())
		}
		t.Fatalf("did not halt in %d cycles", cycles)
	}
	got := int64(sys.Mem.ReadWord(workload.CounterAddr))
	// The counter's final value lives in the owning L1 (write-back); read
	// through the coherent view.
	if v, ok := sys.CoherentWord(workload.CounterAddr); ok {
		got = v
	}
	if got != 4*50 {
		t.Fatalf("counter = %d, want %d", got, 4*50)
	}
	t.Logf("halted in %d cycles", cycles)
}

// TestSmokeReunionCounter runs the same microbenchmark under the Reunion
// execution model: vocal/mute pairs with relaxed input replication must
// produce the identical architectural result, recovering from any input
// incoherence the lock and counter races cause.
func TestSmokeReunionCounter(t *testing.T) {
	w := workload.MicroCounter(4, 50)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	cycles, halted := sys.RunUntilHalted(6_000_000)
	if !halted {
		for _, c := range sys.Cores {
			t.Log(c.DumpState())
		}
		for _, p := range sys.Pairs {
			t.Log(p.DebugString())
		}
		t.Fatalf("did not halt in %d cycles", cycles)
	}
	if sys.Failed() {
		t.Fatal("unrecoverable failure")
	}
	got, _ := sys.CoherentWord(workload.CounterAddr)
	if got != 4*50 {
		t.Fatalf("counter = %d, want %d", got, 4*50)
	}
	var rec int64
	for _, p := range sys.Pairs {
		rec += p.Stats.Recoveries
	}
	t.Logf("halted in %d cycles, %d recoveries", cycles, rec)
}
