// Package snap exercises the shallow-copy snapshot idiom: `*c` captures
// scalars, reference fields need explicit treatment or an annotation.
package snap

import "snapshotcomplete/wire"

type Config struct{ Ways int }

type inner struct {
	id  uint32
	ptr *uint32 // want `inner\.ptr`
}

type Core struct {
	tick uint64
	buf  []int
	lost []int // want `Core\.lost`
	// wake chains are rebuilt from serialized queue state on restore.
	// //reunion:derived
	wake []int
	cfg  *Config //reunion:shared config is immutable once built
	sets [2]inner
	// Nil'ing a field on the snapshot path drops it: only an annotation
	// says the drop is deliberate.
	memo    []int // want `Core\.memo`
	scratch []int //reunion:derived rebuilt on restore
	// Only the wire walk mentions sb: writing a field to the wire does
	// not copy it, so the snapshot shares sb's array with the machine.
	sb []int // want `Core\.sb`
	// A value of another package's struct type that holds references is
	// shared by the shallow copy unless Snapshot and Restore both copy it.
	tlb     wire.TLBState
	tlbHalf wire.TLBState // want `Core\.tlbHalf is neither deep-copied in both Snapshot and Restore`
	tlbNone wire.TLBState // want `Core\.tlbNone is neither deep-copied in both Snapshot and Restore`
	entry   wire.Entry    // holds no reference: the shallow copy captures it
}

type CoreState struct {
	core Core
}

func (c *Core) Snapshot() *CoreState {
	s := &CoreState{core: *c}
	s.core.buf = append([]int(nil), c.buf...)
	s.core.memo = nil
	s.core.scratch = nil
	s.core.tlb.Entries = append([]wire.Entry(nil), c.tlb.Entries...)
	s.core.tlbHalf.Entries = append([]wire.Entry(nil), c.tlbHalf.Entries...)
	return s
}

func (c *Core) Restore(s *CoreState) {
	*c = s.core
	c.buf = append([]int(nil), s.core.buf...)
	c.tlb.Entries = append([]wire.Entry(nil), s.core.tlb.Entries...)
}

func (s *CoreState) Walk(buf []byte) []byte {
	for _, v := range s.core.sb {
		buf = append(buf, byte(v))
	}
	return buf
}
