package reunion

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"strings"
	"testing"

	"reunion/internal/cache"
	"reunion/internal/coherence"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/dist"
	"reunion/internal/fault"
	"reunion/internal/mem"
	"reunion/internal/sim"
	"reunion/internal/snoop"
	"reunion/internal/workload"
)

// resealCheckpoint applies mutate to a copy of blob's pre-footer bytes
// and recomputes the CRC footer, producing a well-sealed blob with
// altered content — for exercising the gates that stand behind the
// checksum.
func resealCheckpoint(t testing.TB, blob []byte, mutate func([]byte)) []byte {
	t.Helper()
	forged := append([]byte(nil), blob...)
	body := forged[:len(forged)-8]
	mutate(body)
	binary.LittleEndian.PutUint64(forged[len(forged)-8:], crc64.Checksum(body, ckptCRCTable))
	return forged
}

// The serialized-checkpoint contract: a cold process that fetches a
// checkpoint blob, builds a fresh system, binds and restores must be
// bit-identical — every statistic counter, the clock, the architectural
// digest — to the process that warmed the state and kept it in memory.
// These tests run the two paths side by side across mode × topology ×
// kernel, plus the format-level guarantees (deterministic bytes, key
// and version gates) the content-addressed store builds on.

// coldOpts is the matrix cell's options: small warm window, default
// machine otherwise.
func coldOpts(topo Topology, mode Mode, kern Kernel) Options {
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed, o.WarmCycles = mode, workload.Apache(), 7, 6_000
	o.Config.Topology, o.Config.Kernel = topo, kern
	return o
}

// warmAndMeasure is the in-process reference: warm, snapshot, measure.
func warmAndMeasure(o Options) (*Checkpoint, map[string]int64) {
	sys := warmSystem(o)
	cp := sys.Snapshot()
	sys.ResetStats()
	sys.Run(6_000)
	return cp, systemStats(sys)
}

// coldRestoreMeasure is the cross-process path under test: decode the
// blob, build a cold machine, bind, restore, measure.
func coldRestoreMeasure(t *testing.T, blob []byte, o Options) map[string]int64 {
	t.Helper()
	d, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sys := buildSystem(o)
	cp, err := d.Bind(sys, CheckpointKey(o))
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	sys.Restore(cp)
	sys.ResetStats()
	sys.Run(6_000)
	return systemStats(sys)
}

// TestCheckpointColdRestoreEquivalence proves the acceptance criterion:
// a cold worker restoring a fetched checkpoint matches the warming
// worker bit for bit, across topology × mode × kernel.
func TestCheckpointColdRestoreEquivalence(t *testing.T) {
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			for _, kern := range []Kernel{KernelNaive, KernelFastForward} {
				label := fmt.Sprintf("%v/%v/%v", topo, mode, kern)
				o := coldOpts(topo, mode, kern)
				cp, want := warmAndMeasure(o)
				blob, err := EncodeCheckpoint(cp, CheckpointKey(o))
				if err != nil {
					t.Fatalf("%s: encode: %v", label, err)
				}
				got := coldRestoreMeasure(t, blob, o)
				diffStats(t, label, want, got)
			}
		}
	}
}

// TestCheckpointInterruptChain covers the self-rescheduling interrupt
// event across serialization: a pending evInterrupt must fire in the
// cold process at the same cycle.
func TestCheckpointInterruptChain(t *testing.T) {
	o := coldOpts(TopologyDirectory, ModeReunion, KernelFastForward)
	o.Config.InterruptEvery, o.Config.InterruptCost = 293, 77
	run := func(cold bool) map[string]int64 {
		sys := warmSystem(o)
		cp := sys.Snapshot()
		if cold {
			blob, err := EncodeCheckpoint(cp, CheckpointKey(o))
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			d, err := DecodeCheckpoint(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			sys = buildSystem(o)
			cp, err = d.Bind(sys, CheckpointKey(o))
			if err != nil {
				t.Fatalf("bind: %v", err)
			}
		}
		sys.Restore(cp)
		sys.ResetStats()
		sys.Run(6_000)
		return systemStats(sys)
	}
	warm := run(false)
	cold := run(true)
	diffStats(t, "interrupts", warm, cold)
	if warm["interrupts"] == 0 {
		t.Error("no interrupts serviced in the measured window")
	}
}

// TestCheckpointEncodeDeterministic proves the blob is a function of the
// machine state alone: encoding the same checkpoint twice, and encoding
// the checkpoint of a restored cold machine, all yield identical bytes —
// the property that makes content-addressed storage meaningful.
func TestCheckpointEncodeDeterministic(t *testing.T) {
	o := coldOpts(TopologySnoopy, ModeReunion, KernelFastForward)
	key := CheckpointKey(o)
	sys := warmSystem(o)
	cp := sys.Snapshot()
	a, err := EncodeCheckpoint(cp, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCheckpoint(cp, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one checkpoint differ")
	}
	d, err := DecodeCheckpoint(a)
	if err != nil {
		t.Fatal(err)
	}
	cold := buildSystem(o)
	ccp, err := d.Bind(cold, key)
	if err != nil {
		t.Fatal(err)
	}
	cold.Restore(ccp)
	c, err := EncodeCheckpoint(cold.Snapshot(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Error("re-encoding a cold-restored machine's snapshot differs from the original blob")
	}
}

// TestCheckpointCodecAllocatesOnce pins the codec's allocation budget:
// encoding sizes its output buffer once instead of doubling it through
// every append, and decoding sizes each slice from the length it has just
// read. So encoding allocates about one blob's worth of bytes per call,
// and decoding about one blob plus the data words of the cache lines the
// blob leaves to memory, which a decoded line holds again.
func TestCheckpointCodecAllocatesOnce(t *testing.T) {
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed, o.WarmCycles = ModeReunion, tinyWorkload(), 1, 3_000
	key := CheckpointKey(o)
	cp := warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, key)
	if err != nil {
		t.Fatal(err)
	}
	// The lines' size with every line's data, less their size in the blob.
	regained := cp.l2.WireBytes(nil) - cp.l2.WireBytes(cp.mem)
	for _, cs := range cp.cores {
		regained += cs.WireBytes(nil) - cs.WireBytes(cp.mem)
	}
	// The constant covers the small per-call structures: the request
	// interning map, sorted key slices, descriptor and gate objects.
	for _, c := range []struct {
		name   string
		run    func() error
		budget int64
	}{
		{"EncodeCheckpoint", func() error { _, err := EncodeCheckpoint(cp, key); return err },
			int64(len(blob))*5/4 + 64<<10},
		{"DecodeCheckpoint", func() error { _, err := DecodeCheckpoint(blob); return err },
			int64(len(blob)+regained)*5/4 + 64<<10},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if res.N == 0 {
			t.Fatalf("%s failed", c.name)
		}
		t.Logf("%s: %d B/op, %d allocs/op for a %d B blob; budget %d", c.name, res.AllocedBytesPerOp(), res.AllocsPerOp(), len(blob), c.budget)
		if got := res.AllocedBytesPerOp(); got > c.budget {
			t.Errorf("%s allocates %d B/op for a %d B blob; budget %d", c.name, got, len(blob), c.budget)
		}
	}
}

// TestCheckpointApacheBlobSize: a blob holds only what its key cannot
// rebuild. The warmed apache Reunion cell (seed 1, 100k warm cycles)
// encoded 57 MB when every mapped page and every line's data went into
// it; written against the init image, and with clean lines that memory
// holds reduced to a flag, it must stay within 10 MB.
func TestCheckpointApacheBlobSize(t *testing.T) {
	_, _, blob := ckptBenchCell(t)
	t.Logf("apache blob: %d bytes", len(blob))
	if len(blob) > 10_000_000 {
		t.Errorf("the warmed apache cell encodes to %d bytes, over 10 MB", len(blob))
	}
}

// TestCheckpointKeyZeroCycleLatency: a zero-cycle comparison latency is a
// value of its own, and the checkpoint key hashes the options as given.
// The historical hazard: when a zero latency meant "default", a
// zero-latency cell's store key collided with its default-latency
// sibling's, and a fetched checkpoint restored the wrong machine.
func TestCheckpointKeyZeroCycleLatency(t *testing.T) {
	zero := coldOpts(TopologyDirectory, ModeReunion, KernelFastForward)
	zero.Config.CompareLatency = 0
	ten := coldOpts(TopologyDirectory, ModeReunion, KernelFastForward)
	if CheckpointKey(zero) == CheckpointKey(ten) {
		t.Error("zero-latency and default-latency cells share a checkpoint key")
	}
	if got, want := CheckpointKey(zero), dist.Fingerprint("reunion-ckpt", warmKey(zero)); got != want {
		t.Errorf("CheckpointKey %#x does not hash the options as given (%#x)", got, want)
	}
	if buildSystem(zero).Cfg.CompareLatency != 0 {
		t.Error("a zero-latency cell does not build a zero-latency machine")
	}
}

// TestCheckpointKeyGate proves Bind refuses a blob whose options
// fingerprint disagrees with the target system's — the guard against a
// store handing warm state to the wrong configuration.
func TestCheckpointKeyGate(t *testing.T) {
	o := coldOpts(TopologyDirectory, ModeNonRedundant, KernelFastForward)
	cp := warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, CheckpointKey(o))
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bind(buildSystem(o), CheckpointKey(o)+1); err == nil {
		t.Error("Bind accepted a checkpoint keyed for different options")
	}
}

// TestCheckpointVersionGate proves a blob from a different format
// version is refused with a pointed diagnostic, not misparsed.
func TestCheckpointVersionGate(t *testing.T) {
	o := coldOpts(TopologyDirectory, ModeNonRedundant, KernelFastForward)
	cp := warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, CheckpointKey(o))
	if err != nil {
		t.Fatal(err)
	}
	forged := resealCheckpoint(t, blob, func(b []byte) {
		b[4]++ // version low byte
	})
	_, err = DecodeCheckpoint(forged)
	if err == nil {
		t.Fatal("decoder accepted a blob with a bumped format version")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("version mismatch error %q does not name the version", err)
	}
}

// TestCheckpointTopologyGate proves Bind refuses a blob whose memory
// system does not match the target machine even when the caller passes a
// matching key (defense in depth below the key check).
func TestCheckpointTopologyGate(t *testing.T) {
	o := coldOpts(TopologySnoopy, ModeNonRedundant, KernelFastForward)
	cp := warmSystem(o).Snapshot()
	blob, err := EncodeCheckpoint(cp, CheckpointKey(o))
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	other := coldOpts(TopologyDirectory, ModeNonRedundant, KernelFastForward)
	if _, err := d.Bind(buildSystem(other), d.key); err == nil {
		t.Error("Bind restored a snoopy-bus checkpoint onto a directory machine")
	}
}

// TestCheckpointEncodeRefusesArmedShot: the arm event of a fault shot
// has no wire form, so a machine with one pending does not encode.
func TestCheckpointEncodeRefusesArmedShot(t *testing.T) {
	o := coldOpts(TopologyDirectory, ModeReunion, KernelFastForward)
	sys := warmSystem(o)
	fault.Injection{Cycle: sys.EQ.Now() + 100}.Arm(sys.EQ, sys.Cores[0], nil)
	_, err := EncodeCheckpoint(sys.Snapshot(), CheckpointKey(o))
	if err == nil || !strings.Contains(err.Error(), "unknown descriptor type") {
		t.Fatalf("EncodeCheckpoint error %v, want an unknown descriptor type", err)
	}
}

// TestCheckpointBindRejectsOutOfRangeDescriptors pins the checks Bind
// makes on individual descriptors before anything can fire: each case
// corrupts one descriptor of a decoded checkpoint, and Bind must return
// an error rather than panic or bind a machine that would.
func TestCheckpointBindRejectsOutOfRangeDescriptors(t *testing.T) {
	type cell struct {
		o    Options
		blob []byte
	}
	cells := map[Topology]cell{}
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		o := coldOpts(topo, ModeReunion, KernelFastForward)
		blob, err := EncodeCheckpoint(warmSystem(o).Snapshot(), CheckpointKey(o))
		if err != nil {
			t.Fatal(err)
		}
		cells[topo] = cell{o, blob}
	}
	errStop := errors.New("stop")
	// waiter rewrites the first MSHR waiter descriptor of the checkpoint
	// to what set returns for the core holding it.
	waiter := func(set func(c *cpu.Core) cache.CB) func(*testing.T, *Checkpoint, *System) {
		return func(t *testing.T, d *Checkpoint, sys *System) {
			for i, cs := range d.cores {
				if cs.VisitWaiters(func(cb *cache.CB) error { *cb = set(sys.Cores[i]); return errStop }) != nil {
					return
				}
			}
			t.Fatal("checkpoint holds no MSHR waiter to corrupt")
		}
	}
	event := func(desc any) func(*testing.T, *Checkpoint, *System) {
		return func(_ *testing.T, d *Checkpoint, _ *System) {
			now, order := d.eq.Clock()
			d.eq = sim.NewEventQueueState(now, order, append(d.eq.Events(), &sim.Event{At: now + 1, Order: order + 1, Desc: desc}))
		}
	}
	cases := []struct {
		name   string
		want   string // in the error Bind returns
		topo   Topology
		mutate func(*testing.T, *Checkpoint, *System)
	}{
		{"waiter core", "callback core 1048576 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBLoadDone, Core: 1 << 20}
		})},
		{"waiter negative core", "callback core -1 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBStoreDone, Core: -1}
		})},
		{"waiter ROB slot", "callback ROB slot 256 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBLoadDone, Core: c.ID, Idx: c.ROBLen()}
		})},
		{"waiter negative ROB slot", "callback ROB slot -1 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBAtomicBegin, Core: c.ID, Idx: -1}
		})},
		{"waiter word", "callback word 8 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBAtomicFin, Core: c.ID, Word: mem.BlockWords}
		})},
		{"waiter pair", "callback pair 1048576 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBSyncWrap, Pair: 1 << 20, Inner: &cache.CB{Kind: cache.CBLoadDone, Core: c.ID}}
		})},
		{"waiter of another core", "held by core", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBLoadDone, Core: c.ID ^ 1}
		})},
		{"sync wrap of another pair", "of pair", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBSyncWrap, Pair: c.Pair ^ 1, Inner: &cache.CB{Kind: cache.CBLoadDone, Core: c.ID}}
		})},
		{"sync wrap without inner", "no inner callback", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBSyncWrap, Pair: c.Pair}
		})},
		{"sync wrap around store", "wraps a store callback", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBSyncWrap, Pair: c.Pair, Inner: &cache.CB{Kind: cache.CBStoreDone, Core: c.ID}}
		})},
		{"sync wrap inner ROB slot", "callback ROB slot -1 out of range", TopologyDirectory, waiter(func(c *cpu.Core) cache.CB {
			return cache.CB{Kind: cache.CBSyncWrap, Pair: c.Pair, Inner: &cache.CB{Kind: cache.CBLoadDone, Core: c.ID, Idx: -1}}
		})},
		{"EvDecide pair", "pair 1048576 out of range", TopologyDirectory, event(&core.EvDecide{PairID: 1 << 20})},
		{"EvDecide negative pair", "pair -1 out of range", TopologyDirectory, event(&core.EvDecide{PairID: -1})},
		{"EvXbar on snoopy", "targets the directory L2 on a snoopy system", TopologySnoopy, event(&coherence.EvXbar{})},
		{"L2 EvReply on snoopy", "targets the directory L2 on a snoopy system", TopologySnoopy, event(&coherence.EvReply{})},
		{"EvMemCont on snoopy", "targets the directory L2 on a snoopy system", TopologySnoopy, event(&coherence.EvMemCont{})},
		{"bus EvReply on directory", "targets the snoopy bus on a directory system", TopologyDirectory, event(&snoop.EvReply{})},
		{"EvMemFetch on directory", "targets the snoopy bus on a directory system", TopologyDirectory, event(&snoop.EvMemFetch{})},
		{"EvSyncMem on directory", "targets the snoopy bus on a directory system", TopologyDirectory, event(&snoop.EvSyncMem{})},
		{"interrupt without interrupts", "an interrupt on a system without interrupts", TopologyDirectory, event(&evInterrupt{})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cells[tc.topo]
			d, err := DecodeCheckpoint(c.blob)
			if err != nil {
				t.Fatal(err)
			}
			sys := buildSystem(c.o)
			tc.mutate(t, d, sys)
			_, err = d.Bind(sys, CheckpointKey(c.o))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Bind error %v, want one naming %q", err, tc.want)
			}
		})
	}
	// The uncorrupted blobs bind, so each case fails on its corruption,
	// and a phantom off-chip read binds to either topology's memory side.
	for topo, c := range cells {
		d, err := DecodeCheckpoint(c.blob)
		if err != nil {
			t.Fatal(err)
		}
		sys := buildSystem(c.o)
		event(&coherence.EvPhantomMem{})(t, d, sys)
		if _, err := d.Bind(sys, CheckpointKey(c.o)); err != nil {
			t.Fatalf("%v: intact checkpoint: %v", topo, err)
		}
		evs := d.eq.Events()
		if run, want := evs[len(evs)-1].Run, sim.EventRunner(sys.msys); run != want {
			t.Errorf("%v: phantom read bound to %T, want %T", topo, run, want)
		}
	}
}
