package reunion

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/mem"
	"reunion/internal/workload"
)

// FuzzCheckpointDecode holds the decoder to its hardening contract:
// arbitrary bytes — truncations, bit flips, hostile forgeries — must
// produce an error, never a panic, never unbounded allocation, and
// never a Checkpoint alongside an error. When a blob does decode
// (in practice only the seed corpus's genuine encodings and the
// fuzzer's recombinations of them), binding it against live machines
// must be equally panic-free: every structural hazard is a returned
// error.
func FuzzCheckpointDecode(f *testing.F) {
	seeds := fuzzSeedBlobs(f)
	for _, blob := range seeds {
		f.Add(blob)
		// Truncations at structurally interesting depths and a mid-payload
		// bit flip, so the fuzzer starts inside the decoder, not at the
		// magic check.
		f.Add(blob[:len(blob)-8])
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:ckptHeaderBytes])
		flip := append([]byte(nil), blob...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte("RNCK"))
	f.Add([]byte("RNCK\x01\x00"))
	for _, forged := range forgedCheckpoints(f) {
		f.Add(forged.blob)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeCheckpoint(data)
		if err != nil {
			if d != nil {
				t.Fatal("DecodeCheckpoint returned a checkpoint alongside an error")
			}
			return
		}
		if d == nil {
			t.Fatal("DecodeCheckpoint returned neither checkpoint nor error")
		}
		// A decodable blob must survive Bind against machines of both
		// topologies without panicking; mismatches are returned errors.
		// Bind binds in place, so each target gets its own decode.
		for i, sys := range fuzzBindTargets() {
			if i > 0 {
				d, _ = DecodeCheckpoint(data)
			}
			cp, err := d.Bind(sys, d.key)
			if err == nil && cp == nil {
				t.Fatal("Bind returned neither checkpoint nor error")
			}
		}
	})
}

// fuzzSeedBlobs encodes genuine checkpoints across mode × topology ×
// kernel with tiny warm windows: the corpus exercises every descriptor
// tag and component codec.
func fuzzSeedBlobs(f *testing.F) [][]byte {
	f.Helper()
	var blobs [][]byte
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		for _, mode := range []Mode{ModeNonRedundant, ModeStrict, ModeReunion} {
			for _, kern := range []Kernel{KernelNaive, KernelFastForward} {
				o := DefaultOptions()
				o.Mode, o.Workload, o.Seed, o.WarmCycles = mode, tinyWorkload(), 11, 2_000
				o.Config.Topology, o.Config.Kernel = topo, kern
				blob, err := EncodeCheckpoint(warmSystem(o).Snapshot(), CheckpointKey(o))
				if err != nil {
					f.Fatal(err)
				}
				blobs = append(blobs, blob)
			}
		}
	}
	return blobs
}

// forgedCheckpoint is a genuine blob with one field forged behind a
// valid checksum.
type forgedCheckpoint struct {
	name string
	o    Options
	blob []byte
}

// forgedCheckpoints forges the two fields a blob holds only since it
// leaves to its key what the key can rebuild: the flag of the first
// valid line of core 0's L1D flipped, and the number of a memory delta
// page moved past the end of the address space.
func forgedCheckpoints(tb testing.TB) []forgedCheckpoint {
	tb.Helper()
	o := DefaultOptions()
	o.Mode, o.Workload, o.Seed, o.WarmCycles = ModeReunion, tinyWorkload(), 11, 2_000
	sys := warmSystem(o)
	page := uint64(workload.SharedBase) &^ (mem.PageBytes - 1)
	sys.Mem.WriteWord(page, 0x5eed) // a page that differs from the init image
	var line *cache.Line
	arr := sys.Cores[0].L1D.Arr
	arr.ForEachValid(func(l *cache.Line) {
		if line == nil {
			line = l
		}
	})
	if line == nil {
		tb.Fatal("core 0's L1D holds no valid line")
	}
	blob, err := EncodeCheckpoint(sys.Snapshot(), CheckpointKey(o))
	if err != nil {
		tb.Fatal(err)
	}

	// A line is its flat index, block, state, dirty and locked bytes,
	// then its flag; the flat index is in the block's set, at some way.
	set := int(line.Block>>mem.BlockShift) & (arr.Sets() - 1)
	flag := -1
	for way := 0; way < arr.Ways() && flag < 0; way++ {
		flat, state := uint32(set*arr.Ways()+way), uint8(line.State)
		head := bin.NewWriter(nil)
		head.U32(&flat)
		head.U64(&line.Block)
		head.U8(&state)
		head.Bool(&line.Dirty)
		head.Bool(&line.Locked)
		if at := bytes.Index(blob, head.Bytes()); at >= 0 {
			flag = at + len(head.Bytes())
		}
	}
	// A delta page is its number, then its words.
	var words mem.Block
	sys.Mem.ReadBlock(page, &words)
	pageHead := binary.LittleEndian.AppendUint64(nil, mem.PageOf(page))
	for _, w := range words {
		pageHead = binary.LittleEndian.AppendUint64(pageHead, w)
	}
	num := bytes.Index(blob, pageHead)
	if flag < 0 || num < 0 {
		tb.Fatalf("line flag at %d, delta page at %d: not found in the blob", flag, num)
	}
	return []forgedCheckpoint{
		{"line flag flipped", o, resealCheckpoint(tb, blob, func(b []byte) { b[flag] ^= 1 })},
		{"delta page past the address space", o, resealCheckpoint(tb, blob, func(b []byte) {
			binary.LittleEndian.PutUint64(b[num:], 1<<(64-mem.PageShift))
		})},
	}
}

// TestCheckpointForgedLineFlagAndDeltaPage: each forged blob fails to
// decode or to bind, and neither panics.
func TestCheckpointForgedLineFlagAndDeltaPage(t *testing.T) {
	for _, forged := range forgedCheckpoints(t) {
		d, err := DecodeCheckpoint(forged.blob)
		if err == nil {
			_, err = d.Bind(buildSystem(forged.o), CheckpointKey(forged.o))
		}
		if err == nil {
			t.Errorf("%s: the forged blob decodes and binds", forged.name)
		} else {
			t.Logf("%s: %v", forged.name, err)
		}
	}
}

// fuzzBindTargets lazily builds one machine per topology for Bind
// probing (decode success is rare on mutated input, so the cost is paid
// once, not per execution).
var fuzzBindTargets = sync.OnceValue(func() []*System {
	var systems []*System
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		o := DefaultOptions()
		o.Mode, o.Workload, o.Seed, o.WarmCycles = ModeReunion, workload.Apache(), 11, 2_000
		o.Config.Topology = topo
		systems = append(systems, buildSystem(o))
	}
	return systems
})
