package mem

import (
	"errors"
	"slices"

	"reunion/internal/bin"
)

// Wire walk for memory snapshots (checkpoint serialization). A snapshot
// is written as a delta on the init image: the image the system held
// once its workload was loaded, before it ran, which anything holding
// the checkpoint's key can rebuild. Pages are written in sorted
// page-number order and a page is in the delta exactly when its contents
// differ from the init image's, so the encoding is deterministic — the
// same memory image always produces the same bytes, which the
// content-addressed checkpoint store and the golden-format tests rely on.

// pageWireBytes is one encoded page: its number, then its words.
const pageWireBytes = 8 + pageWords*8

// maxPage is the highest page number inside the 64-bit address space.
const maxPage = ^uint64(0) >> PageShift

// delta returns the numbers of the pages s writes against init, sorted:
// those init lacks and those whose words differ from init's. Pages the
// image never wrote are init's own arrays, so most compare by pointer.
func (s *MemoryState) delta(init *MemoryState) []uint64 {
	var nums []uint64
	for pn, p := range s.pages {
		if q := init.pages[pn]; q != p && (q == nil || *q != *p) {
			nums = append(nums, pn)
		}
	}
	slices.Sort(nums)
	return nums
}

// WireBytes returns the size of the pages Walk writes against init (all
// of its output but the leading count), so a caller can size its buffer
// once.
func (s *MemoryState) WireBytes(init *MemoryState) int {
	return len(s.delta(init)) * pageWireBytes
}

// Walk walks the snapshot as a delta on init: the count of pages that
// differ from init, then each one's number and words, the numbers
// strictly increasing. Memory never unmaps a page, so a writer fails on
// an init page s lacks: s is not a later state of that image. A reader
// ignores init and reads the delta alone, its pages sharing one
// allocation; Overlay lays it over the init image.
func (s *MemoryState) Walk(c *bin.Codec, init *MemoryState) {
	var nums []uint64
	if !c.Reading() {
		for pn := range init.pages {
			if s.pages[pn] == nil {
				c.Fail(errMissingInitPage)
				return
			}
		}
		nums = s.delta(init)
	}
	n := c.Len(len(nums), pageWireBytes)
	var frames [][pageWords]uint64
	if c.Reading() {
		nums, frames = make([]uint64, n), make([][pageWords]uint64, n)
		s.pages = make(map[uint64]*[pageWords]uint64, n)
	}
	for i := range nums {
		c.U64(&nums[i])
		if c.Reading() {
			if nums[i] > maxPage {
				c.Fail(errPageRange)
			}
			if i > 0 && nums[i] <= nums[i-1] {
				c.Fail(errNonMonotonicPages)
			}
			s.pages[nums[i]] = &frames[i]
		}
		c.U64s(s.pages[nums[i]][:])
	}
}

// Overlay completes a decoded delta: every page of init the delta does
// not replace joins the state, shared as any snapshot shares its pages.
// init is not modified.
func (s *MemoryState) Overlay(init *MemoryState) {
	for pn, p := range init.pages {
		if _, ok := s.pages[pn]; !ok {
			s.pages[pn] = p
		}
	}
}

// zeroBlock is what an unmapped block reads as.
var zeroBlock Block

// Block returns the block containing addr as the image this state was
// taken from held it; unmapped memory reads as zero. The block is the
// state's own, so the caller must not write through it.
func (s *MemoryState) Block(addr uint64) *Block {
	p := s.pages[addr>>PageShift]
	if p == nil {
		return &zeroBlock
	}
	off := (BlockAddr(addr) % PageBytes) / 8
	return (*Block)(p[off : off+BlockWords])
}

var (
	errNonMonotonicPages = errors.New("mem: snapshot pages not in sorted order")
	errPageRange         = errors.New("mem: snapshot page number outside the address space")
	errMissingInitPage   = errors.New("mem: snapshot lacks a page of the init image it is written against")
)
