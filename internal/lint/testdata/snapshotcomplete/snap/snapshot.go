// Package snap exercises the shallow-copy snapshot idiom: `*c` captures
// scalars, reference fields need explicit treatment or an annotation.
package snap

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
}

type CoreState struct {
	core Core
}

func (c *Core) Snapshot() *CoreState {
	s := &CoreState{core: *c}
	s.core.buf = append([]int(nil), c.buf...)
	s.core.memo = nil
	s.core.scratch = nil
	return s
}

func (s *CoreState) Walk(buf []byte) []byte {
	for _, v := range s.core.sb {
		buf = append(buf, byte(v))
	}
	return buf
}
