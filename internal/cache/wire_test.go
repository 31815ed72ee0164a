package cache

import (
	"bytes"
	"reflect"
	"testing"

	"reunion/internal/bin"
	"reunion/internal/mem"
)

// noMem is an empty memory image: every line with data is written whole
// against it.
var noMem = mem.New().Snapshot()

// encodeL1 snapshots c and encodes the snapshot.
func encodeL1(c *L1) []byte {
	w := bin.NewWriter(nil)
	c.Snapshot().Walk(w, noMem)
	return w.Bytes()
}

// decodes reports whether blob reads back as an L1 snapshot.
func decodes(blob []byte) bool {
	var s L1State
	r := bin.NewReader(blob)
	s.Walk(r, nil)
	return r.Err() == nil
}

// TestArrayWalkWritesOnlyDataMemoryLacks pins the line flag: a line
// whose data equals memory's block is written without its words and
// filled from memory on bind, while a dirty line, a clean line that
// differs from memory, and a mute L1's stale copy under input
// incoherence each keep their own data.
func TestArrayWalkWritesOnlyDataMemoryLacks(t *testing.T) {
	var fresh, stale mem.Block
	fresh[0], fresh[7], stale[0] = 1, 2, 3
	m := mem.New()
	for _, b := range []uint64{1, 2, 3, 4} {
		m.WriteBlock(blk(b), &fresh)
	}
	img := m.Snapshot()

	vocal := newL1("l1v", 0, true, 4<<10, &fakeBelow{}, false)
	vocal.Arr.Install(blk(1), &fresh, Shared) // equals memory: flagged
	l, _, _ := vocal.Arr.Install(blk(2), &stale, Modified)
	l.Dirty = true                            // dirty: keeps its data
	vocal.Arr.Install(blk(3), &stale, Shared) // clean but differs: keeps its data
	mute := newL1("l1m", 1, false, 4<<10, &fakeBelow{}, false)
	mute.Arr.Install(blk(4), &stale, Shared) // the mute's incoherent copy
	mute.Arr.Install(blk(1), &fresh, Shared)

	for _, tc := range []struct {
		name   string
		c      *L1
		inMem  []bool // per line, in flat-index order
		blocks int    // lines written with their words
	}{
		{"vocal", vocal, []bool{true, false, false}, 2},
		{"mute", mute, []bool{true, false}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := tc.c.Snapshot()
			if got, want := live.WireBytes(img), len(tc.inMem)*(4+lineMemWireBytes)+tc.blocks*mem.BlockBytes; got != want {
				t.Errorf("WireBytes %d, want %d", got, want)
			}
			w := bin.NewWriter(nil)
			live.Walk(w, img)
			var d L1State
			r := bin.NewReader(w.Bytes())
			if d.Walk(r, nil); r.Err() != nil || r.Remaining() != 0 {
				t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
			}
			if !reflect.DeepEqual(d.arr.fromMem, tc.inMem) {
				t.Fatalf("lines read as memory's: %v, want %v", d.arr.fromMem, tc.inMem)
			}
			if err := d.BindTo(newL1("l1", tc.c.Core, tc.c.Vocal, 4<<10, &fakeBelow{}, false), img); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d.arr, live.arr) {
				t.Errorf("bound lines differ from the snapshot's:\n got %+v\nwant %+v", d.arr.lines, live.arr.lines)
			}
		})
	}
}

// descAt returns the offset and length in blob of cb's encoding, which a
// waiter writes after the waiterHead bytes ending in its descriptor flag.
func descAt(t *testing.T, blob []byte, cb CB) (at, n int) {
	t.Helper()
	cw := bin.NewWriter(nil)
	cb.Walk(cw)
	at = bytes.Index(blob, cw.Bytes())
	if at < waiterHead || blob[at-1] != 1 {
		t.Fatal("descriptor not found after its flag byte")
	}
	return at, len(cw.Bytes())
}

// waiterHead is the size of a waiter's encoding before its descriptor:
// store flag, atomic flag, word, data and descriptor flag.
const waiterHead = 1 + 1 + 8 + 8 + 1

// TestDecodeRejectsWaiterWithoutCompletion: a restored MSHR waiter must
// name the completion its core waits for. A waiter with no descriptor
// would complete nothing on fill and leave the core waiting forever, and
// flag bytes that contradict the descriptor's kind are a blob Walk
// never writes, so decoding either fails.
func TestDecodeRejectsWaiterWithoutCompletion(t *testing.T) {
	t.Run("no descriptor", func(t *testing.T) {
		c := newTestL1(&fakeBelow{})
		cb := load(0x5eed)
		c.Load(blk(3), 1, cb)
		blob := encodeL1(c)
		if !decodes(blob) {
			t.Fatal("intact blob does not decode")
		}
		// Clear the waiter's descriptor flag and drop the descriptor
		// bytes it announced, leaving a well-formed waiter without one.
		at, n := descAt(t, blob, cb)
		hostile := append(append(append([]byte(nil), blob[:at-1]...), 0), blob[at+n:]...)
		if decodes(hostile) {
			t.Fatal("decoded a waiter with no completion descriptor")
		}
	})
	// Each case sets one flag byte of an intact waiter to the value its
	// descriptor's kind contradicts.
	for _, tc := range []struct {
		name  string
		issue func(c *L1) CB
		flag  int // 0: store flag, 1: atomic flag
		value byte
	}{
		{"store flag on a load waiter", func(c *L1) CB {
			cb := load(0x5eed)
			c.Load(blk(3), 1, cb)
			return cb
		}, 0, 1},
		{"store waiter without store flag", func(c *L1) CB {
			cb := store(0x5eed)
			c.Store(blk(3), 1, 9, cb)
			return cb
		}, 0, 0},
		{"atomic flag on a synchronizing load", func(c *L1) CB {
			cb := CB{Kind: CBSyncWrap, Seq: 0x5eed, Inner: &CB{Kind: CBLoadDone}}
			c.SyncFill(blk(3), 1, 1, cb)
			return cb
		}, 1, 1},
		{"synchronizing atomic without atomic flag", func(c *L1) CB {
			cb := CB{Kind: CBSyncWrap, Seq: 0x5eed, Inner: &CB{Kind: CBAtomicFin}}
			c.SyncFill(blk(3), 1, 1, cb)
			return cb
		}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestL1(&fakeBelow{})
			cb := tc.issue(c)
			blob := encodeL1(c)
			if !decodes(blob) {
				t.Fatal("intact blob does not decode")
			}
			at, _ := descAt(t, blob, cb)
			flag := at - waiterHead + tc.flag
			if blob[flag] == tc.value {
				t.Fatalf("flag byte is already %d", tc.value)
			}
			blob[flag] = tc.value
			if decodes(blob) {
				t.Fatal("decoded a waiter whose flags contradict its descriptor")
			}
		})
	}
}
