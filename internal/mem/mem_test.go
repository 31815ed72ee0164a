package mem

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestReadWriteWord(t *testing.T) {
	m := New()
	if m.ReadWord(0x1000) != 0 {
		t.Fatal("unmapped read not zero")
	}
	m.WriteWord(0x1000, 42)
	if m.ReadWord(0x1000) != 42 {
		t.Fatal("readback failed")
	}
	m.WriteWord(0x1000, 43)
	if m.ReadWord(0x1000) != 43 {
		t.Fatal("overwrite failed")
	}
}

func TestUnmappedReadDoesNotAllocate(t *testing.T) {
	m := New()
	for a := uint64(0); a < 100*PageBytes; a += PageBytes {
		_ = m.ReadWord(a)
	}
	if m.MappedPages() != 0 {
		t.Fatalf("reads allocated %d pages", m.MappedPages())
	}
}

func TestBlockRoundTrip(t *testing.T) {
	m := New()
	var b Block
	for i := range b {
		b[i] = uint64(i) * 0x1111
	}
	m.WriteBlock(0x2040, &b) // unaligned addr inside block
	var got Block
	m.ReadBlock(0x2050, &got) // any addr in the same block
	if got != b {
		t.Fatalf("block mismatch: %v vs %v", got, b)
	}
	// Words individually visible.
	if m.ReadWord(BlockAddr(0x2040)+8) != 0x1111 {
		t.Fatal("word view of block write wrong")
	}
}

func TestBlockWordConsistency(t *testing.T) {
	// Property: writing words then reading the containing block sees them.
	m := New()
	f := func(addr uint64, v uint64) bool {
		addr &^= 7 // align
		addr %= 1 << 32
		m.WriteWord(addr, v)
		var b Block
		m.ReadBlock(addr, &b)
		return b[(addr%BlockBytes)/8] == v && m.ReadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPageBoundaryBlocks(t *testing.T) {
	// Blocks never straddle pages (64B blocks, 8K pages), but exercise the
	// last block of a page and the first of the next.
	m := New()
	lastBlock := uint64(PageBytes - BlockBytes)
	var b Block
	for i := range b {
		b[i] = uint64(100 + i)
	}
	m.WriteBlock(lastBlock, &b)
	m.WriteWord(PageBytes, 999) // first word of next page
	var got Block
	m.ReadBlock(lastBlock, &got)
	if got != b {
		t.Fatal("last block of page corrupted")
	}
	if m.ReadWord(PageBytes) != 999 {
		t.Fatal("next page word corrupted")
	}
	if m.MappedPages() != 2 {
		t.Fatalf("pages=%d want 2", m.MappedPages())
	}
}

func TestGeometryHelpers(t *testing.T) {
	if BlockAddr(0x12345) != 0x12340 {
		t.Fatalf("BlockAddr: %#x", BlockAddr(0x12345))
	}
	if PageOf(0x4000) != 2 {
		t.Fatalf("PageOf(0x4000)=%d want 2", PageOf(0x4000))
	}
	if BlockBytes != 64 || PageBytes != 8192 || BlockWords != 8 {
		t.Fatal("geometry constants changed; Table 1 expects 64B lines and 8K pages")
	}
	if 1<<BlockShift != BlockBytes || 1<<PageShift != PageBytes {
		t.Fatal("shift constants inconsistent")
	}
}

// Property: the memory behaves exactly like a map from aligned addresses
// to words under random mixed word/block operations.
func TestMemoryVsMapOracle(t *testing.T) {
	m := New()
	oracle := make(map[uint64]uint64)
	f := func(ops []struct {
		Addr  uint64
		Val   uint64
		Block bool
		Write bool
	}) bool {
		for _, op := range ops {
			addr := (op.Addr % (1 << 24)) &^ 7
			if op.Block {
				base := BlockAddr(addr)
				if op.Write {
					var b Block
					for i := range b {
						b[i] = op.Val + uint64(i)
						oracle[base+uint64(i)*8] = b[i]
					}
					m.WriteBlock(base, &b)
				} else {
					var b Block
					m.ReadBlock(base, &b)
					for i := range b {
						if b[i] != oracle[base+uint64(i)*8] {
							return false
						}
					}
				}
			} else {
				if op.Write {
					m.WriteWord(addr, op.Val)
					oracle[addr] = op.Val
				} else if m.ReadWord(addr) != oracle[addr] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: under random word and block writes, unmapped reads and new
// pages across repeated Snapshot/Restore cycles, the image behaves like a
// map from aligned addresses to words, and every snapshot keeps the
// contents it was taken with however the live image and the other
// snapshots are written afterwards. Restores alternate between the base
// state (only pages written since it are re-pointed) and older snapshots
// (the whole map is re-pointed).
func TestMemorySnapshotRestoreVsMapOracle(t *testing.T) {
	type snap struct {
		s      *MemoryState
		oracle map[uint64]uint64
		pages  int
	}
	check := func(m *Memory, oracle map[uint64]uint64, pages int, where string) {
		t.Helper()
		for addr, want := range oracle {
			if got := m.ReadWord(addr); got != want {
				t.Fatalf("%s: word %#x = %#x, want %#x", where, addr, got, want)
			}
		}
		if m.MappedPages() != pages {
			t.Fatalf("%s: %d mapped pages, want %d", where, m.MappedPages(), pages)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	m := New()
	oracle := map[uint64]uint64{}
	mapped := map[uint64]bool{}
	var snaps []snap
	addr := func() uint64 {
		// 32 pages, so writes hit shared pages, owned pages and new ones.
		return rng.Uint64N(32*PageBytes) &^ 7
	}
	write := func(a, v uint64) {
		m.WriteWord(a, v)
		oracle[a] = v
		mapped[PageOf(a)] = true
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.IntN(10); {
		case op < 4:
			write(addr(), rng.Uint64())
		case op < 6:
			a := BlockAddr(addr())
			var b Block
			for i := range b {
				b[i] = rng.Uint64()
				oracle[a+uint64(i)*8] = b[i]
			}
			m.WriteBlock(a, &b)
			mapped[PageOf(a)] = true
		case op < 7:
			// Unmapped reads return zero and map nothing.
			a := (64+rng.Uint64N(64))*PageBytes + rng.Uint64N(PageBytes)&^7
			var b Block
			m.ReadBlock(a, &b)
			if m.ReadWord(a) != 0 || b != (Block{}) {
				t.Fatalf("step %d: unmapped read of %#x not zero", step, a)
			}
		case op < 8:
			// Read a page into the last-page cache, snapshot, then write
			// the same page: the write must copy, not reach the snapshot.
			a := addr()
			_ = m.ReadWord(a)
			snaps = append(snaps, snap{m.Snapshot(), maps.Clone(oracle), len(mapped)})
			write(a, rng.Uint64())
		default:
			// Restore either the base (the latest snapshot, which no
			// restore has moved off) or any snapshot, then write through
			// the last-page cache at once.
			if len(snaps) == 0 {
				continue
			}
			i := rng.IntN(len(snaps))
			if rng.IntN(2) == 0 {
				i = len(snaps) - 1
			}
			a := addr()
			_ = m.ReadWord(a)
			m.Restore(snaps[i].s)
			oracle = maps.Clone(snaps[i].oracle)
			mapped = map[uint64]bool{}
			for w := range oracle {
				mapped[PageOf(w)] = true
			}
			check(m, oracle, snaps[i].pages, fmt.Sprintf("step %d: restore of snapshot %d", step, i))
			write(a, rng.Uint64())
			// Restored snapshots stay the newest, so the next restore of
			// it takes the base path.
			snaps = append(snaps, snaps[i])
		}
	}
	check(m, oracle, len(mapped), "live image")
	for i, s := range snaps {
		m.Restore(s.s)
		check(m, s.oracle, s.pages, fmt.Sprintf("final restore of snapshot %d", i))
	}
}

// TestMemoryRestoreZeroAlloc pins the copy-on-write restore: once no page
// was written since the base state, Restore moves no pointer and
// allocates nothing, however large the image.
func TestMemoryRestoreZeroAlloc(t *testing.T) {
	m := New()
	for pn := uint64(0); pn < 256; pn++ {
		m.WriteWord(pn*PageBytes, pn)
	}
	s := m.Snapshot()
	var b Block
	if a := testing.AllocsPerRun(100, func() {
		m.ReadBlock(3*PageBytes, &b)
		m.Restore(s)
	}); a != 0 {
		t.Fatalf("Restore after a read-only run allocates %v per run, want 0", a)
	}
}
