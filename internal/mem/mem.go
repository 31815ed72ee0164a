// Package mem provides the flat physical memory image backing the
// simulated CMP, with word and cache-block granularity access.
//
// The simulator executes real values: registers, memory and branches are
// all functional, so input incoherence in the Reunion model arises from
// genuine data races rather than an injected random process. This package
// is the root of that value chain — cache lines are filled from here and
// dirty lines written back here.
//
// Memory is sparse (page-allocated) so 3 GB address spaces from Table 1
// cost only what workloads actually touch. Reads of unmapped memory return
// zero without allocating, which keeps speculative wrong-path wild loads
// cheap and harmless.
package mem

// Geometry constants shared across the cache hierarchy.
const (
	BlockBytes = 64             // cache line size (Table 1)
	BlockWords = BlockBytes / 8 // 64-bit words per line
	BlockShift = 6              // log2(BlockBytes)
	PageBytes  = 8192           // 8 KB pages (Table 1)
	PageShift  = 13             // log2(PageBytes)
	pageWords  = PageBytes / 8  // words per page
)

// BlockAddr returns the block-aligned address containing addr.
func BlockAddr(addr uint64) uint64 { return addr &^ (BlockBytes - 1) }

// PageOf returns the page number containing addr.
func PageOf(addr uint64) uint64 { return addr >> PageShift }

// Block is one cache line of data.
type Block [BlockWords]uint64

// Memory is a sparse physical memory image.
//
// Pages are copy-on-write with respect to checkpoints: a MemoryState
// holds the same page pointers as the image it was taken from, and a
// page array reachable from any MemoryState is never written in place.
// The first write to such a shared page copies it into a page the image
// owns. Restore of the base state (the one the image was last
// snapshotted as or restored to) therefore only re-points the pages
// written or mapped since then.
type Memory struct {
	pages map[uint64]frame
	base  *MemoryState //reunion:derived restore bookkeeping: the image equals this state except on the owned pages; reset by every Snapshot and Restore
	owned []uint64     //reunion:derived restore bookkeeping: pages copied or mapped since base, each once; emptied by every Snapshot and Restore
	// Last-page cache: accesses run in page-length bursts (sequential
	// fetch, block fills), so remembering the last hit skips the map
	// lookup for the whole run. lastP is nil when nothing is cached;
	// Restore invalidates it because the page pointers are rebuilt.
	// lastOwned says whether writes may go through lastP; a read caches a
	// shared page with lastOwned false, so the next write still copies.
	lastPN    uint64
	lastP     *[pageWords]uint64
	lastOwned bool
}

// frame is one mapped page. owned is true only for a page this image
// allocated or copied since its base state; every other page is shared
// with at least one MemoryState and must be copied before a write.
type frame struct {
	p     *[pageWords]uint64
	owned bool
}

// New returns an empty memory image.
func New() *Memory { return &Memory{pages: make(map[uint64]frame)} }

// page returns the page holding addr for reading, or nil if unmapped.
func (m *Memory) page(addr uint64) *[pageWords]uint64 {
	pn := addr >> PageShift
	if m.lastP != nil && m.lastPN == pn {
		return m.lastP
	}
	f := m.pages[pn]
	if f.p == nil {
		// Do not cache the miss: a later write may map the page.
		return nil
	}
	m.lastPN, m.lastP, m.lastOwned = pn, f.p, f.owned
	return f.p
}

// writable returns the page holding addr for writing, mapping a new page
// or copying a shared one first.
func (m *Memory) writable(addr uint64) *[pageWords]uint64 {
	pn := addr >> PageShift
	if m.lastOwned && m.lastP != nil && m.lastPN == pn {
		return m.lastP
	}
	f := m.pages[pn]
	if !f.owned {
		p := new([pageWords]uint64)
		if f.p != nil {
			*p = *f.p
		}
		f = frame{p: p, owned: true}
		m.pages[pn] = f
		m.owned = append(m.owned, pn)
	}
	m.lastPN, m.lastP, m.lastOwned = pn, f.p, true
	return f.p
}

// ReadWord returns the 64-bit word at the 8-byte-aligned address.
// Unmapped memory reads as zero.
func (m *Memory) ReadWord(addr uint64) uint64 {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[(addr%PageBytes)/8]
}

// WriteWord stores a 64-bit word at the 8-byte-aligned address.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	p := m.writable(addr)
	p[(addr%PageBytes)/8] = v
}

// ReadBlock copies the cache block containing addr into b.
func (m *Memory) ReadBlock(addr uint64, b *Block) {
	base := BlockAddr(addr)
	p := m.page(base)
	if p == nil {
		*b = Block{}
		return
	}
	off := (base % PageBytes) / 8
	copy(b[:], p[off:off+BlockWords])
}

// WriteBlock stores the cache block containing addr from b.
func (m *Memory) WriteBlock(addr uint64, b *Block) {
	base := BlockAddr(addr)
	p := m.writable(base)
	off := (base % PageBytes) / 8
	copy(p[off:off+BlockWords], b[:])
}

// MemoryState is a checkpoint of the memory image: the page-pointer map.
// The page arrays it points to are immutable — shared with the live image
// and with other states until a writer copies them — so a state restores
// any number of times.
type MemoryState struct {
	pages map[uint64]*[pageWords]uint64 // encoded as sorted (number, 1024 words) records
}

// Snapshot captures the memory image without copying page data: the
// state takes the page pointers, and every page becomes shared, so the
// image copies a page before its next write. Observably read-only.
func (m *Memory) Snapshot() *MemoryState {
	s := &MemoryState{pages: make(map[uint64]*[pageWords]uint64, len(m.pages))}
	for pn, f := range m.pages {
		s.pages[pn] = f.p
	}
	for _, pn := range m.owned {
		m.pages[pn] = frame{p: m.pages[pn].p}
	}
	m.owned = m.owned[:0]
	m.lastOwned = false
	m.base = s
	return s
}

// Restore rewrites the memory image from a snapshot: pages mapped since
// the snapshot are unmapped, and every snapshotted page gets its saved
// contents back. Only pointers move. Restoring the base state re-points
// just the pages written or mapped since it; any other state replaces the
// whole map. Either way the restored image shares every page with s.
func (m *Memory) Restore(s *MemoryState) {
	if s == m.base {
		for _, pn := range m.owned {
			if p := s.pages[pn]; p != nil {
				m.pages[pn] = frame{p: p}
			} else {
				delete(m.pages, pn)
			}
		}
	} else {
		clear(m.pages)
		for pn, p := range s.pages {
			m.pages[pn] = frame{p: p}
		}
		m.base = s
	}
	m.owned = m.owned[:0]
	m.lastP = nil // cached page may be a discarded copy
}
