package cache

import (
	"errors"
	"fmt"

	"reunion/internal/bin"
	"reunion/internal/mem"
)

// This file is the cache package's half of checkpoint serialization: wire
// walks for the array, the L1 (including MSHR waiters), and request
// bodies, the table that interns requests, plus the CB descriptor that
// names the completion an MSHR waiter owes its core.

// CBKind identifies which completion a CB describes.
type CBKind uint8

// Completion descriptor kinds. The core (cpu.Core.Complete) dispatches on
// the kind; a synchronizing fill's wrapper goes through the core's gate to
// its pair.
const (
	// CBIfetchDone completes an instruction-cache miss: clears the core's
	// icacheWait if the fetch epoch still matches.
	CBIfetchDone CBKind = iota + 1
	// CBLoadDone completes a load (normal or synchronizing): writes the
	// value into ROB entry Idx if (Seq, Epoch) still match.
	CBLoadDone
	// CBStoreDone completes a store-buffer drain for Seq.
	CBStoreDone
	// CBAtomicBegin completes an atomic-begin miss: the fill locks the line
	// (L1.fill), then the core finishes the CAS in ROB entry Idx.
	CBAtomicBegin
	// CBAtomicFin finishes a CAS in ROB entry Idx of a synchronizing fill
	// (the fill locks the line because the waiter is atomic).
	CBAtomicFin
	// CBSyncWrap is the pair-level wrapper around a synchronizing fill's
	// completion: counts the pair's done fills under a generation guard,
	// then completes Inner.
	CBSyncWrap
)

// CB is a completion descriptor: plain data naming the work an MSHR
// waiter owes its core. Which fields are meaningful depends on Kind.
type CB struct {
	Kind  CBKind
	Core  int   // global core index (owner of the ROB/fetch state)
	Idx   int   // ROB slot
	Seq   int64 // instruction sequence number guard
	Epoch int64 // squash epoch guard
	Block uint64
	Word  int
	Pair  int   // logical pair index (CBSyncWrap)
	Gen   int64 // recovery generation guard (CBSyncWrap)
	Inner *CB   // wrapped descriptor (CBSyncWrap)
}

// syncAtomic reports whether cb is a synchronizing wrapper around an
// atomic's finish, whose fill locks the line as AtomicBegin's does.
func (cb *CB) syncAtomic() bool {
	return cb.Kind == CBSyncWrap && cb.Inner != nil && cb.Inner.Kind == CBAtomicFin
}

// maxCBDepth bounds Inner nesting on decode; the deepest real chain is a
// CBSyncWrap around a leaf.
const maxCBDepth = 4

// Walk walks the descriptor and, behind a presence flag, its Inner.
func (cb *CB) Walk(c *bin.Codec) { cb.walk(c, 0) }

func (cb *CB) walk(c *bin.Codec, depth int) {
	if depth >= maxCBDepth {
		c.Fail(errors.New("cache: callback descriptor nested too deeply"))
		return
	}
	c.U8((*uint8)(&cb.Kind))
	c.Int(&cb.Core)
	c.Int(&cb.Idx)
	c.I64(&cb.Seq)
	c.I64(&cb.Epoch)
	c.U64(&cb.Block)
	c.Int(&cb.Word)
	c.Int(&cb.Pair)
	c.I64(&cb.Gen)
	if c.Reading() && (cb.Kind < CBIfetchDone || cb.Kind > CBSyncWrap) {
		c.Fail(fmt.Errorf("cache: unknown callback kind %d", cb.Kind))
	}
	inner := cb.Inner != nil
	if c.Bool(&inner); inner {
		if c.Reading() {
			cb.Inner = new(CB)
		}
		cb.Inner.walk(c, depth+1)
	}
}

// --- requests ---

// ReqTable interns the requests a checkpoint references. A request sits
// in many places at once (bank queues, parked sync slots, event
// descriptors) and the controllers compare requests by pointer, so a walk
// never writes one inline: Ref writes its index in the table and reads
// an index back as the one shared *Req.
type ReqTable struct {
	reqs []*Req
	idx  map[*Req]int
}

// Add interns r unless the table holds it already.
func (t *ReqTable) Add(r *Req) {
	if _, ok := t.idx[r]; ok {
		return
	}
	if t.idx == nil {
		t.idx = make(map[*Req]int)
	}
	t.idx[r] = len(t.reqs)
	t.reqs = append(t.reqs, r)
}

// Reqs returns the interned requests in table order.
func (t *ReqTable) Reqs() []*Req { return t.reqs }

// Walk walks the table: its length, then each request's every field but
// L1, which the checkpoint binder sets from (Kind, Core) (a request fills
// its core's L1I or L1D, and writebacks fill nothing).
func (t *ReqTable) Walk(c *bin.Codec) {
	bin.Slice(c, &t.reqs, 1+8+1+1+1+8+1, func(rp **Req) {
		if c.Reading() {
			*rp = new(Req)
		}
		r := *rp
		c.U8((*uint8)(&r.Kind))
		c.U64(&r.Block)
		c.Int(&r.Core)
		c.Int(&r.Pair)
		c.Bool(&r.Vocal)
		c.I64(&r.Token)
		if c.Reading() && r.Kind > Sync {
			c.Fail(fmt.Errorf("cache: unknown request kind %d", r.Kind))
		}
		data := r.Data != nil
		if c.Bool(&data); data {
			if c.Reading() {
				r.Data = new(mem.Block)
			}
			c.U64s(r.Data[:])
		}
	})
}

// Ref walks a reference to a request as its table index. A writer adds a
// request the table lacks, so walking into a scratch writer fills a table
// before its bytes are written; a reader fails on an index outside it.
func (t *ReqTable) Ref(c *bin.Codec, r **Req) {
	if !c.Reading() {
		t.Add(*r)
		i := t.idx[*r]
		c.Int(&i)
		return
	}
	var i int
	c.Int(&i)
	*r = nil
	if i >= 0 && i < len(t.reqs) {
		*r = t.reqs[i]
	} else {
		c.Fail(errors.New("cache: bad interned request reference"))
	}
}

// --- array ---

// lineWireBytes is the size of an encoded Line whose data is written;
// lineMemWireBytes of one whose data is memory's. The smaller bounds
// decoded lengths against remaining input.
const (
	lineMemWireBytes = 8 + 1 + 1 + 1 + 1 + 8
	lineWireBytes    = lineMemWireBytes + mem.BlockWords*8
)

// WireBytes returns the size of the lines Walk writes against m (all of
// its output but the tick and the count), so a caller can size its
// buffer once. With m nil every line counts with its data, the size the
// lines regain once decoded and bound.
func (s *ArrayState) WireBytes(m *mem.MemoryState) int {
	if m == nil {
		return len(s.idx) * (4 + lineWireBytes)
	}
	n := len(s.idx) * (4 + lineMemWireBytes)
	for i := range s.lines {
		if s.lines[i].Data != *m.Block(s.lines[i].Block) {
			n += mem.BlockWords * 8
		}
	}
	return n
}

// Walk walks the array snapshot: the tick, then each line after its flat
// index, the indices strictly increasing. m is the memory image of the
// same checkpoint. A line's flag says whether its data equals m's block;
// only a line whose data differs — dirty, or a mute core's stale copy —
// carries its words. A reader leaves the flagged lines' data to BindTo,
// which fills it from the bound memory image.
func (s *ArrayState) Walk(c *bin.Codec, m *mem.MemoryState) {
	c.I64(&s.tick)
	n := c.Len(len(s.idx), 4+lineMemWireBytes)
	if c.Reading() {
		s.idx, s.lines, s.fromMem = make([]int32, n), make([]Line, n), make([]bool, n)
	}
	for i := range s.idx {
		flat := uint32(s.idx[i])
		c.U32(&flat)
		l := &s.lines[i]
		c.U64(&l.Block)
		c.U8((*uint8)(&l.State))
		c.Bool(&l.Dirty)
		c.Bool(&l.Locked)
		var inMem bool
		if !c.Reading() {
			inMem = l.Data == *m.Block(l.Block)
		}
		if c.Bool(&inMem); !inMem {
			c.U64s(l.Data[:])
		}
		c.I64(&l.lru)
		if !c.Reading() {
			continue
		}
		s.idx[i], s.fromMem[i] = int32(flat), inMem
		if l.State == Invalid || l.State > Modified {
			c.Fail(fmt.Errorf("cache: snapshot line state %d is not a valid line's", l.State))
		}
		if i > 0 && s.idx[i] <= s.idx[i-1] {
			c.Fail(errors.New("cache: array snapshot indices not strictly increasing"))
		}
	}
}

// --- L1 ---

// WireBytes returns the size of the array lines Walk writes against m;
// the MSHRs and counters are a few hundred bytes more.
func (s *L1State) WireBytes(m *mem.MemoryState) int { return s.arr.WireBytes(m) }

// Walk walks the L1 snapshot; m is the checkpoint's memory image (see
// ArrayState.Walk).
func (s *L1State) Walk(c *bin.Codec, m *mem.MemoryState) {
	s.arr.Walk(c, m)
	bin.Slice(c, &s.mshrs, 1+8+1+1, func(m *mshr) {
		c.Bool(&m.valid)
		c.U64(&m.block)
		c.Bool(&m.forX)
		bin.Slice(c, &m.waiters, 1+1+8+8+1, func(wt *mshrWaiter) { wt.walk(c) })
	})
	c.Int(&s.free)
	c.I64(&s.hits)
	c.I64(&s.misses)
	c.I64(&s.merged)
	c.I64(&s.fills)
	c.I64(&s.wbSent)
	c.I64(&s.muteDrops)
	c.I64(&s.retries)
}

// walk walks a waiter. Its flag bytes repeat what its descriptor's kind
// says, and a flag announces the descriptor every waiter carries. A
// reader refuses a waiter without a descriptor, which would leave the
// core waiting on a completion that never comes, and one whose flags
// contradict its descriptor's kind, which a writer never writes.
func (wt *mshrWaiter) walk(c *bin.Codec) {
	isStore, isAtomic, hasCB := wt.cb.Kind == CBStoreDone, wt.cb.syncAtomic(), true
	c.Bool(&isStore)
	c.Bool(&isAtomic)
	c.Int(&wt.word)
	c.U64(&wt.data)
	if c.Bool(&hasCB); !hasCB {
		c.Fail(errors.New("cache: waiter has no completion descriptor"))
		return
	}
	wt.cb.Walk(c)
	if !c.Reading() {
		return
	}
	if wt.word < 0 || wt.word >= mem.BlockWords {
		c.Fail(fmt.Errorf("cache: waiter word %d out of range", wt.word))
	}
	if isStore != (wt.cb.Kind == CBStoreDone) || isAtomic != wt.cb.syncAtomic() {
		c.Fail(fmt.Errorf("cache: waiter flags store=%v atomic=%v contradict callback kind %d", isStore, isAtomic, wt.cb.Kind))
	}
}

// VisitWaiters calls fn with every waiter's descriptor, stopping at the
// first error. The checkpoint binder validates descriptors against the
// live system through it.
func (s *L1State) VisitWaiters(fn func(*CB) error) error {
	for i := range s.mshrs {
		for j := range s.mshrs[i].waiters {
			if err := fn(&s.mshrs[i].waiters[j].cb); err != nil {
				return err
			}
		}
	}
	return nil
}

// BindTo cross-checks decoded L1 invariants against the live cache
// geometry so a hostile blob cannot restore out-of-range structure, then
// binds the array (ArrayState.BindTo) to m, the checkpoint's bound
// memory image.
func (s *L1State) BindTo(c *L1, m *mem.MemoryState) error {
	if len(s.mshrs) != len(c.mshrs) {
		return fmt.Errorf("cache: snapshot has %d MSHRs, cache has %d", len(s.mshrs), len(c.mshrs))
	}
	used := 0
	for i := range s.mshrs {
		if s.mshrs[i].valid {
			used++
		}
	}
	if s.free != len(s.mshrs)-used {
		return fmt.Errorf("cache: snapshot free count %d inconsistent with %d valid MSHRs", s.free, used)
	}
	return s.arr.BindTo(c.Arr, m)
}

// BindTo validates a decoded array snapshot against the live array and
// fills the data of each line the walk flagged as memory's from m, the
// checkpoint's bound memory image.
func (s *ArrayState) BindTo(a *Array, m *mem.MemoryState) error {
	if err := s.Validate(a); err != nil {
		return err
	}
	for i, inMem := range s.fromMem {
		if inMem {
			s.lines[i].Data = *m.Block(s.lines[i].Block)
		}
	}
	s.fromMem = nil
	return nil
}

// Validate checks a decoded array snapshot against the live array's
// geometry: every line index in range and every line in its block's
// set. Restore relies on both.
func (s *ArrayState) Validate(a *Array) error {
	total := int32(a.Sets() * a.Ways())
	for _, flat := range s.idx {
		if flat < 0 || flat >= total {
			return fmt.Errorf("cache: snapshot line index %d out of range [0,%d)", flat, total)
		}
	}
	for i := range s.lines {
		l := &s.lines[i]
		if int((l.Block>>mem.BlockShift)&a.setMask) != int(s.idx[i])/a.Ways() {
			return fmt.Errorf("cache: snapshot line for block %#x mapped to wrong set", l.Block)
		}
	}
	return nil
}
