package mem

import (
	"maps"
	"slices"

	"reunion/internal/bin"
)

// Wire walk for memory snapshots (checkpoint serialization). Pages are
// written in sorted page-number order so the encoding is deterministic —
// the same memory image always produces the same bytes, which the
// content-addressed checkpoint store and the golden-format tests rely on.

// pageWireBytes is one encoded page: its number, then its words.
const pageWireBytes = 8 + pageWords*8

// WireBytes returns the size of the pages Walk writes (all of its output
// but the leading count), so a caller can size its buffer once.
func (s *MemoryState) WireBytes() int { return len(s.pages) * pageWireBytes }

// Walk walks the snapshot: the page count, then each page's number and
// words, the numbers strictly increasing. A reader's pages share one
// allocation.
func (s *MemoryState) Walk(c *bin.Codec) {
	nums := slices.AppendSeq(make([]uint64, 0, len(s.pages)), maps.Keys(s.pages))
	slices.Sort(nums)
	n := c.Len(len(nums), pageWireBytes)
	var frames [][pageWords]uint64
	if c.Reading() {
		nums, frames = make([]uint64, n), make([][pageWords]uint64, n)
		s.pages = make(map[uint64]*[pageWords]uint64, n)
	}
	for i := range nums {
		c.U64(&nums[i])
		if c.Reading() {
			if i > 0 && nums[i] <= nums[i-1] {
				c.Fail(errNonMonotonicPages)
			}
			s.pages[nums[i]] = &frames[i]
		}
		c.U64s(s.pages[nums[i]][:])
	}
}

var errNonMonotonicPages = errPages("mem: snapshot pages not in sorted order")

type errPages string

func (e errPages) Error() string { return string(e) }
