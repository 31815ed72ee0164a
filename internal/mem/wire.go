package mem

import (
	"sort"

	"reunion/internal/bin"
)

// Wire codec for memory snapshots (checkpoint serialization). Pages are
// written in sorted page-number order so the encoding is deterministic —
// the same memory image always produces the same bytes, which the
// content-addressed checkpoint store and the golden-format tests rely on.

// pageWireBytes is one encoded page: its number, then its words.
const pageWireBytes = 8 + pageWords*8

// WireBytes returns the size of the pages Encode writes (all of its
// output but the leading count), so a caller can size its buffer once.
func (s *MemoryState) WireBytes() int { return len(s.pages) * pageWireBytes }

// Encode writes the snapshot.
func (s *MemoryState) Encode(w *bin.Writer) {
	nums := make([]uint64, 0, len(s.pages))
	for n := range s.pages {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	w.Uvarint(uint64(len(nums)))
	for _, n := range nums {
		w.U64(n)
		w.U64s(s.pages[n][:])
	}
}

// DecodeMemoryState reads a snapshot written by Encode.
func DecodeMemoryState(r *bin.Reader) *MemoryState {
	n := r.Len(pageWireBytes)
	s := &MemoryState{pages: make(map[uint64]*[pageWords]uint64, n)}
	frames := make([][pageWords]uint64, n)
	var prev uint64
	for i := range frames {
		num := r.U64()
		if i > 0 && num <= prev {
			r.Fail(errNonMonotonicPages)
			return nil
		}
		prev = num
		page := &frames[i]
		r.U64s(page[:])
		s.pages[num] = page
	}
	if r.Err() != nil {
		return nil
	}
	return s
}

var errNonMonotonicPages = errPages("mem: snapshot pages not in sorted order")

type errPages string

func (e errPages) Error() string { return string(e) }
