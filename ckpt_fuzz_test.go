package reunion

import (
	"sync"
	"testing"

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
				cfg := DefaultConfig()
				cfg.Topology = topo
				o := DefaultOptions()
				o.Mode, o.Workload, o.Seed, o.WarmCycles = mode, tinyWorkload(), 11, 2_000
				o.Config, o.Kernel = &cfg, kern
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

// fuzzBindTargets lazily builds one machine per topology for Bind
// probing (decode success is rare on mutated input, so the cost is paid
// once, not per execution).
var fuzzBindTargets = sync.OnceValue(func() []*System {
	var systems []*System
	for _, topo := range []Topology{TopologyDirectory, TopologySnoopy} {
		cfg := DefaultConfig()
		cfg.Topology = topo
		o := DefaultOptions()
		o.Mode, o.Workload, o.Seed, o.WarmCycles = ModeReunion, workload.Apache(), 11, 2_000
		o.Config = &cfg
		systems = append(systems, buildSystem(o))
	}
	return systems
})
