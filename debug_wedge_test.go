package reunion

import (
	"testing"

	"reunion/internal/workload"
)

// TestDebugWedge is a diagnostic scaffold (kept because it doubles as a
// liveness regression test): it runs the lock-protected counter micro
// under each execution model and fails with a full state dump, including
// the last compare and recovery events, if the system stops making
// progress or computes the wrong count.
func TestDebugWedge(t *testing.T) {
	for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
		t.Run(mode.String(), func(t *testing.T) {
			w := workload.MicroCounter(4, 50)
			sys := NewSystem(DefaultConfig(), mode, w, 1)
			events := observePairs(sys, 256)

			dump := func() {
				t.Log(events)
				for _, cc := range sys.Cores {
					t.Log(cc.DumpState())
				}
				for _, p := range sys.Pairs {
					t.Log(p.DebugString())
				}
				t.Log(sys.L2.DebugDir(workload.LockBase))
				t.Log(sys.L2.DebugDir(workload.CounterAddr))
			}

			last := make([]int64, len(sys.Cores))
			stuck := make([]int64, len(sys.Cores))
			for i := 0; i < 4000; i++ {
				sys.Run(1000)
				allHalted := true
				for j, c := range sys.Cores {
					if c.Halted() {
						continue
					}
					allHalted = false
					if c.Stats.Committed == last[j] {
						stuck[j]++
						if stuck[j] > 300 {
							dump()
							t.Fatalf("core %d wedged at cycle %d", j, sys.EQ.Now())
						}
					} else {
						stuck[j] = 0
						last[j] = c.Stats.Committed
					}
				}
				if allHalted {
					ctr, _ := sys.CoherentWord(workload.CounterAddr)
					if ctr != 200 {
						dump()
						t.Fatalf("counter=%d want 200", ctr)
					}
					return
				}
			}
			dump()
			t.Fatal("did not halt in 4M cycles (livelock)")
		})
	}
}
