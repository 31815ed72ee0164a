package reunion

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"reunion/internal/workload"
)

// The golden-format tests pin the checkpoint byte layout: committed
// blobs under testdata/ckpt must both decode to deep-equal snapshots
// and match the current encoder byte for byte. An encoding change that
// forgets to bump ckptFormatVersion fails here with instructions, not
// in production as a store full of silently unreadable checkpoints.

var updateGolden = flag.Bool("update", false, "regenerate golden checkpoint blobs under testdata/ckpt")

// tinyWorkload shrinks a profile's memory footprint so a pinned (or
// fuzz-corpus) blob is a few hundred kilobytes instead of the tens of
// megabytes a production cell's memory image occupies. Access behavior
// is unchanged in kind — same mix, same sharing — only the private set
// is smaller.
func tinyWorkload() workload.Params {
	p := workload.Apache()
	p.Name = "apache-tiny"
	p.PrivateBytes = 64 << 10
	p.HotBytes = 32 << 10
	return p
}

// goldenCell is one pinned format exemplar: the options that build and
// warm it.
type goldenCell struct {
	name string
	o    Options
}

// goldenCells are the pinned format exemplars: one per structural
// variant the encoding branches on (topology, execution mode, kernel),
// plus cells whose warm window ends while an event of a descriptor type
// the others lack is pending. TestCheckpointGoldenTagCoverage holds the
// set to every descriptor tag the encoder writes.
func goldenCells() []goldenCell {
	cell := func(name string, topo Topology, mode Mode, kern Kernel, p workload.Params, warm, interruptEvery int64) goldenCell {
		o := DefaultOptions()
		o.Mode, o.Workload, o.Seed, o.WarmCycles = mode, p, 23, warm
		o.Config.Topology, o.Config.Kernel, o.Config.InterruptEvery = topo, kern, interruptEvery
		return goldenCell{name, o}
	}
	// dss-q1 shrunk like tinyWorkload, and its 32 MB scan table too, so
	// the blob stays about a megabyte; a synchronizing fetch is pending
	// at cycle 11,296.
	dss := workload.DSSQ1()
	dss.Name = "dss-q1-tiny"
	dss.PrivateBytes = 64 << 10
	dss.HotBytes = 32 << 10
	dss.ScanBytes = 64 << 10
	return []goldenCell{
		// An input-incoherence mismatch's decision (cycle 32,735) is
		// pending.
		cell("dir-reunion-ff", TopologyDirectory, ModeReunion, KernelFastForward, tinyWorkload(), 32_730, 0),
		cell("dir-nonred-naive", TopologyDirectory, ModeNonRedundant, KernelNaive, tinyWorkload(), 3_000, 0),
		cell("snoop-reunion-naive", TopologySnoopy, ModeReunion, KernelNaive, tinyWorkload(), 3_000, 0),
		cell("snoop-strict-ff", TopologySnoopy, ModeStrict, KernelFastForward, tinyWorkload(), 3_000, 0),
		// A crossbar hop and the self-rescheduling interrupt are pending.
		cell("dir-reunion-intr-ff", TopologyDirectory, ModeReunion, KernelFastForward, tinyWorkload(), 3_220, 293),
		cell("snoop-reunion-sync-ff", TopologySnoopy, ModeReunion, KernelFastForward, dss, 11_296, 0),
	}
}

// goldenRunOn is how far TestCheckpointGoldenDecode runs a bound golden
// machine: past every event pending at the snapshot (an off-chip fetch
// is the longest, a few hundred cycles).
const goldenRunOn = 2_000

func goldenPath(name string) string {
	return filepath.Join("testdata", "ckpt", name+".bin")
}

// TestCheckpointGoldenFormat re-encodes each pinned cell and compares
// against the committed blob. With -update it writes blobs for
// brand-new cells and rewrites blobs of an older format version; it
// refuses to overwrite a blob of the current version whose bytes
// differ, because that is exactly the drift this test exists to catch.
func TestCheckpointGoldenFormat(t *testing.T) {
	for _, cell := range goldenCells() {
		blob, err := EncodeCheckpoint(warmSystem(cell.o).Snapshot(), CheckpointKey(cell.o))
		if err != nil {
			t.Fatalf("%s: encode: %v", cell.name, err)
		}
		path := goldenPath(cell.name)
		want, err := os.ReadFile(path)
		if *updateGolden && (errors.Is(err, fs.ErrNotExist) || err == nil && !sameFormatVersion(want)) {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: wrote %d bytes", path, len(blob))
			continue
		}
		if err != nil {
			t.Fatalf("%s: no golden blob (generate with -update): %v", cell.name, err)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: checkpoint encoding changed without a version bump "+
				"(golden %d bytes, current %d). If the format change is intentional, "+
				"bump ckptFormatVersion in serialize.go first, then regenerate with "+
				"`go test -run TestCheckpointGoldenFormat -update .`; -update will not "+
				"overwrite a blob of the current version. Otherwise the change breaks "+
				"every stored checkpoint.",
				cell.name, len(want), len(blob))
		}
	}
}

// sameFormatVersion reports whether a committed blob's header carries
// the current ckptFormatVersion.
func sameFormatVersion(blob []byte) bool {
	return len(blob) >= ckptHeaderBytes && string(blob[:4]) == ckptMagic &&
		binary.LittleEndian.Uint16(blob[4:6]) == ckptFormatVersion
}

// TestCheckpointGoldenTagCoverage holds the committed blobs to every
// wire path: each descriptor tag in serialize.go's descriptor table must
// appear in at least one of them, so a layout change to any
// pending-event descriptor fails TestCheckpointGoldenFormat. A new
// descriptor type therefore needs a golden cell before it lands.
func TestCheckpointGoldenTagCoverage(t *testing.T) {
	seen := map[uint8]bool{}
	for _, cell := range goldenCells() {
		committed, err := os.ReadFile(goldenPath(cell.name))
		if err != nil {
			t.Fatalf("%s: no golden blob (generate with -update): %v", cell.name, err)
		}
		d, err := DecodeCheckpoint(committed)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		for _, ev := range d.eq.Events() {
			seen[ckptTags[reflect.TypeOf(ev.Desc)]] = true
		}
	}
	for i, desc := range ckptDescs {
		if !seen[uint8(i+1)] {
			t.Errorf("no committed golden blob holds a pending event with descriptor tag %d (%T): "+
				"add a golden cell whose warm window ends while one is pending", i+1, desc())
		}
	}
}

// TestCheckpointGoldenDecode proves the committed blobs still decode to
// snapshots deep-equal to freshly encoded ones — the decoder-side half
// of the compatibility pin (an encoder could drift in ways byte
// comparison alone would blame on the wrong side) — and that a machine
// bound from each one runs exactly like the machine that wrote it.
// Between them the cells hold a pending event of every descriptor tag,
// so every owner Bind attaches runs at least once.
func TestCheckpointGoldenDecode(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating golden blobs")
	}
	for _, cell := range goldenCells() {
		committed, err := os.ReadFile(goldenPath(cell.name))
		if err != nil {
			t.Fatalf("%s: no golden blob (generate with -update): %v", cell.name, err)
		}
		fromDisk, err := DecodeCheckpoint(committed)
		if err != nil {
			t.Fatalf("%s: committed golden blob no longer decodes: %v", cell.name, err)
		}
		live := warmSystem(cell.o)
		blob, err := EncodeCheckpoint(live.Snapshot(), CheckpointKey(cell.o))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromDisk, fresh) {
			t.Errorf("%s: committed golden blob decodes to a different snapshot than a fresh encoding", cell.name)
		}
		// And the pinned blob must still bind, re-encode to its own bytes,
		// restore and run on.
		sys := buildSystem(cell.o)
		cp, err := fromDisk.Bind(sys, CheckpointKey(cell.o))
		if err != nil {
			t.Fatalf("%s: committed golden blob no longer binds: %v", cell.name, err)
		}
		if again, err := EncodeCheckpoint(cp, CheckpointKey(cell.o)); err != nil || !bytes.Equal(again, committed) {
			t.Errorf("%s: the bound golden checkpoint re-encodes to different bytes (err %v)", cell.name, err)
		}
		sys.Restore(cp)
		live.Run(goldenRunOn)
		sys.Run(goldenRunOn)
		if got, want := fmt.Sprint(systemStats(sys), sys.ArchDigest()), fmt.Sprint(systemStats(live), live.ArchDigest()); got != want {
			t.Errorf("%s: the bound machine ran differently from the one that wrote the blob", cell.name)
		}
	}
}
