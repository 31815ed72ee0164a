package reunion

import (
	"bytes"
	"fmt"
	"testing"

	"reunion/internal/mem"
	"reunion/internal/workload"
)

// Restore is checked here against an oracle independent of the restore
// code: the checkpoint serializer. A restored machine must encode to the
// exact bytes of the checkpoint it was restored from. The encoding
// covers every valid line of every cache with its tag, state and LRU
// stamp, and its data wherever the data differs from memory; a line
// whose data equals memory is a flag, so a stale line and a changed
// memory page each show, as the line's words or as a delta page against
// the system's init image. That is state the stat-counter batteries
// (TestSnapshotRestoreEquivalence and the rest) only see once it changes
// a later counter.

// TestRestoreEncodeOracle runs every restore path across topology × mode
// × kernel: restores of the state the live machine is based on (only
// what the excursion touched is rewritten) and of any other checkpoint
// (everything is rewritten), alternating checkpoints, a snapshot taken
// right after a restore, and a checkpoint that came through the store
// path (decode, bind, restore) followed by trial restores.
func TestRestoreEncodeOracle(t *testing.T) {
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			for _, kern := range []Kernel{KernelNaive, KernelFastForward} {
				label := fmt.Sprintf("%v/%v/%v", topo, mode, kern)
				restoreOracle(t, label, coldOpts(topo, mode, kern))
			}
		}
	}
}

func restoreOracle(t *testing.T, label string, o Options) {
	t.Helper()
	key := CheckpointKey(o)
	encode := func(cp *Checkpoint) []byte {
		t.Helper()
		blob, err := EncodeCheckpoint(cp, key)
		if err != nil {
			t.Fatalf("%s: encode: %v", label, err)
		}
		return blob
	}
	// check encodes a fresh snapshot of the live machine. Taking it makes
	// that snapshot the machine's base, which the next restore of any
	// other checkpoint must notice.
	check := func(step string, sys *System, want []byte) {
		t.Helper()
		if got := encode(sys.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("%s: %s: restored machine encodes to %d bytes differing from the checkpoint's %d",
				label, step, len(got), len(want))
		}
	}
	// excursion diverges hard: writes to a mapped and to a new memory
	// page (short runs barely write memory back), the first through a
	// just-read page, then a datapath fault, new cache traffic and a
	// stats reset.
	excursion := func(sys *System) {
		_ = sys.Mem.ReadWord(workload.SharedBase)
		sys.Mem.WriteWord(workload.SharedBase+8, 0xdead)
		sys.Mem.WriteWord(workload.DeviceBase-mem.PageBytes, 0xbeef)
		sys.Cores[0].ArmFault(13)
		sys.Run(2_500)
		sys.ResetStats()
		sys.Run(1_500)
	}

	sys := warmSystem(o)
	a := sys.Snapshot()
	encA := encode(a)
	excursion(sys)
	sys.Restore(a) // a is the base: only touched state is rewritten
	check("restore of the base", sys, encA)

	excursion(sys)
	b := sys.Snapshot()
	encB := encode(b)
	excursion(sys)
	sys.Restore(a)
	check("A after B", sys, encA)
	excursion(sys)
	sys.Restore(b)
	check("B after A", sys, encB)
	excursion(sys)
	sys.Restore(a)
	check("A after B again", sys, encA)

	sys.Restore(b)
	c := sys.Snapshot()
	if !bytes.Equal(encode(c), encB) {
		t.Errorf("%s: snapshot right after restoring B differs from B", label)
	}
	excursion(sys)
	sys.Restore(c)
	check("restore of a snapshot taken after a restore", sys, encB)

	d, err := DecodeCheckpoint(encA)
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	cold := buildSystem(o)
	bound, err := d.Bind(cold, key)
	if err != nil {
		t.Fatalf("%s: bind: %v", label, err)
	}
	cold.Restore(bound)
	for i := 1; i <= 2; i++ {
		excursion(cold)
		cold.Restore(bound)
		check(fmt.Sprintf("store-path trial restore %d", i), cold, encA)
	}
}
