// Package wire exercises the field-by-field wire walk idiom: nothing is
// captured automatically, so even scalars need evidence.
package wire

type Entry struct {
	Tag  uint64
	Data uint64
}

type TLBState struct {
	Entries []Entry
	Tick    uint64
	Hits    uint64 // want `TLBState\.Hits`
}

func (s *TLBState) Walk(buf []byte) []byte {
	for _, e := range s.Entries {
		buf = append(buf, byte(e.Tag), byte(e.Data))
	}
	return append(buf, byte(s.Tick))
}

// Req is walked by reference only: dereferencing a **Req copies a
// pointer, not a Req, so Req is no shallow-copied snapshot and its
// fields need nothing.
type Req struct {
	Owner *int
}

type Table struct {
	Reqs []*Req
}

func (t *Table) Walk(r **Req) {
	t.Reqs = append(t.Reqs, *r)
}
