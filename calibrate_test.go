package reunion

import (
	"testing"

	"reunion/internal/workload"
)

// TestCalibrate reports per-workload calibration metrics (baseline IPC,
// normalized Strict/Reunion performance, TLB and incoherence rates) — the
// table used to tune the synthetic suite against the paper's
// characteristics. Run with -v to see the rows.
func TestCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range workload.Suite() {
		run := func(mode Mode) (Result, error) {
			o := DefaultOptions()
			o.Mode, o.Workload, o.Seed = mode, p, 7
			return Run(o)
		}
		base, err := run(ModeNonRedundant)
		if err != nil {
			t.Fatalf("%s base: %v", p.Name, err)
		}
		strict, err := run(ModeStrict)
		if err != nil {
			t.Fatalf("%s strict: %v", p.Name, err)
		}
		reun, err := run(ModeReunion)
		if err != nil {
			t.Fatalf("%s reunion: %v", p.Name, err)
		}
		t.Logf("%-12s base IPC=%.3f strict=%.3f (%.2f) reunion=%.3f (%.2f) | TLB/M=%.0f inc/M=%.1f ser/M=%.0f L1Dmiss%%=%.1f recov=%d sync=%d",
			p.Name, base.UserIPC, strict.UserIPC, strict.UserIPC/base.UserIPC,
			reun.UserIPC, reun.UserIPC/base.UserIPC,
			base.TLBMissPerM, reun.IncoherencePerM,
			float64(base.Serializing)*1e6/float64(base.Committed),
			100*float64(base.L1DMisses)/float64(base.L1DMisses+base.L1DHits),
			reun.Recoveries, reun.SyncRequests)
	}
}
