package reunion

// Micro-benchmarks of the simulator's inner loops: the pair tick, and
// the checkpoint snapshot, restore and codec paths a campaign pays per
// cell and per trial. CI runs each once. The paper's tables and figures
// are printed by `reunion-sweep -experiment`, and their shapes are
// asserted by TestExperimentShapes; the simulator's host speed is
// measured end to end by the repository benchmark in bench/.

import (
	"testing"

	"reunion/internal/fault"
	"reunion/internal/workload"
)

// BenchmarkPairTick measures one steady-state tick of a full vocal/mute
// Reunion pair system (8 cores, shared L2, fingerprint exchange): the
// inner loop every experiment amortizes. Cycles per second here is the
// ceiling on campaign throughput. It replays one pairTickWindow of steps
// from a warm snapshot (the rewinds are not timed), so allocs/op and
// B/op read the same at any -benchtime Nx of at least pairTickWindow.
func BenchmarkPairTick(b *testing.B) {
	w := workload.Apache().Build(1, 4)
	sys := NewSystem(DefaultConfig(), ModeReunion, w, 1)
	sys.Prefill()
	sys.Run(20_000) // reach steady state: warm caches, full windows
	cp := sys.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pairTickWindow == 0 {
			// Every window starts from a restore of the same snapshot,
			// so the per-op figures do not depend on how far b.N lets
			// the workload run.
			b.StopTimer()
			sys.Restore(cp)
			b.StartTimer()
		}
		sys.Step()
	}
}

// pairTickWindow is how many steps BenchmarkPairTick runs from its warm
// snapshot before rewinding to it.
const pairTickWindow = 20_000

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
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed, o.WarmCycles = ModeReunion, workload.Apache(), 1, 20_000
	o.CommitTarget, o.Inject = 2_000, &fault.Injection{Core: 0, Cycle: 500, Bit: 13}
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
// and encodes its checkpoint: the blob a checkpoint store puts and gets
// for a production-sized cell (TestCheckpointApacheBlobSize bounds it).
func ckptBenchCell(tb testing.TB) (cp *Checkpoint, key uint64, blob []byte) {
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed = ModeReunion, workload.Apache(), 1
	key = CheckpointKey(o)
	cp = warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, key)
	if err != nil {
		tb.Fatal(err)
	}
	return cp, key, blob
}

// BenchmarkCheckpointEncode measures serializing that checkpoint, CRC-64
// seal included; MB/blob is the blob's size.
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
	b.ReportMetric(float64(len(blob))/1e6, "MB/blob")
}

// BenchmarkCheckpointDecode measures parsing that blob, CRC-64 check and
// structural validation included (Bind and Restore are not timed);
// MB/blob is the blob's size.
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
	b.ReportMetric(float64(len(blob))/1e6, "MB/blob")
}

// BenchmarkFingerprint measures fingerprint generation cost per
// instruction record (both compression modes).
func BenchmarkFingerprint(b *testing.B) {
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
