package cache

import (
	"errors"
	"fmt"

	"reunion/internal/bin"
	"reunion/internal/mem"
)

// This file is the cache package's half of checkpoint serialization: wire
// codecs for the array, the L1 (including MSHR waiters), and request
// bodies, plus the CB descriptor that names the completion an MSHR waiter
// owes its core.

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

// Encode writes the descriptor.
func (cb *CB) Encode(w *bin.Writer) {
	w.U8(uint8(cb.Kind))
	w.Int(cb.Core)
	w.Int(cb.Idx)
	w.I64(cb.Seq)
	w.I64(cb.Epoch)
	w.U64(cb.Block)
	w.Int(cb.Word)
	w.Int(cb.Pair)
	w.I64(cb.Gen)
	w.Bool(cb.Inner != nil)
	if cb.Inner != nil {
		cb.Inner.Encode(w)
	}
}

// DecodeCB reads a descriptor written by Encode.
func DecodeCB(r *bin.Reader) *CB {
	return decodeCB(r, 0)
}

func decodeCB(r *bin.Reader, depth int) *CB {
	if depth >= maxCBDepth {
		r.Fail(errors.New("cache: callback descriptor nested too deeply"))
		return nil
	}
	cb := &CB{
		Kind:  CBKind(r.U8()),
		Core:  r.Int(),
		Idx:   r.Int(),
		Seq:   r.I64(),
		Epoch: r.I64(),
		Block: r.U64(),
		Word:  r.Int(),
		Pair:  r.Int(),
		Gen:   r.I64(),
	}
	if cb.Kind < CBIfetchDone || cb.Kind > CBSyncWrap {
		r.Fail(fmt.Errorf("cache: unknown callback kind %d", cb.Kind))
		return nil
	}
	if r.Bool() {
		cb.Inner = decodeCB(r, depth+1)
	}
	if r.Err() != nil {
		return nil
	}
	return cb
}

// --- request bodies ---

// EncodeBody writes every Req field except L1 (which the checkpoint
// binder rebinds from (Kind, Core): a request fills its core's L1I or
// L1D, and writebacks fill nothing).
func (r *Req) EncodeBody(w *bin.Writer) {
	w.U8(uint8(r.Kind))
	w.U64(r.Block)
	w.Int(r.Core)
	w.Int(r.Pair)
	w.Bool(r.Vocal)
	w.I64(r.Token)
	w.Bool(r.Data != nil)
	if r.Data != nil {
		w.U64s(r.Data[:])
	}
}

// DecodeReqBody reads a request body; L1 is left nil for the checkpoint
// binder to fill in.
func DecodeReqBody(rd *bin.Reader) *Req {
	r := &Req{
		Kind:  ReqKind(rd.U8()),
		Block: rd.U64(),
		Core:  rd.Int(),
		Pair:  rd.Int(),
		Vocal: rd.Bool(),
		Token: rd.I64(),
	}
	if r.Kind > Sync {
		rd.Fail(fmt.Errorf("cache: unknown request kind %d", r.Kind))
		return nil
	}
	if rd.Bool() {
		var data mem.Block
		rd.U64s(data[:])
		r.Data = &data
	}
	if rd.Err() != nil {
		return nil
	}
	return r
}

// --- array ---

func encodeLine(w *bin.Writer, l *Line) {
	w.U64(l.Block)
	w.U8(uint8(l.State))
	w.Bool(l.Dirty)
	w.Bool(l.Locked)
	w.U64s(l.Data[:])
	w.I64(l.lru)
}

func decodeLine(r *bin.Reader) Line {
	var l Line
	l.Block = r.U64()
	l.State = State(r.U8())
	if l.State > Modified {
		r.Fail(fmt.Errorf("cache: unknown line state %d", l.State))
		return Line{}
	}
	l.Dirty = r.Bool()
	l.Locked = r.Bool()
	r.U64s(l.Data[:])
	l.lru = r.I64()
	return l
}

// lineWireBytes is the size of an encoded Line, used to bound decoded
// lengths against remaining input.
const lineWireBytes = 8 + 1 + 1 + 1 + mem.BlockWords*8 + 8

// WireBytes returns the size of the lines Encode writes (all of its
// output but the tick and the count), so a caller can size its buffer
// once.
func (s *ArrayState) WireBytes() int { return len(s.idx) * (4 + lineWireBytes) }

// Encode writes the array snapshot.
func (s *ArrayState) Encode(w *bin.Writer) {
	w.I64(s.tick)
	w.Uvarint(uint64(len(s.idx)))
	for i, flat := range s.idx {
		w.U32(uint32(flat))
		encodeLine(w, &s.lines[i])
	}
}

// DecodeArrayState reads an array snapshot written by Encode.
func DecodeArrayState(r *bin.Reader) ArrayState {
	var s ArrayState
	s.tick = r.I64()
	n := r.Len(4 + lineWireBytes)
	s.idx = make([]int32, 0, n)
	s.lines = make([]Line, 0, n)
	for i := 0; i < n; i++ {
		flat := int32(r.U32())
		line := decodeLine(r)
		if i > 0 && flat <= s.idx[len(s.idx)-1] {
			r.Fail(errors.New("cache: array snapshot indices not strictly increasing"))
			return ArrayState{}
		}
		s.idx = append(s.idx, flat)
		s.lines = append(s.lines, line)
	}
	if r.Err() != nil {
		return ArrayState{}
	}
	return s
}

// --- L1 ---

// WireBytes returns the size of the array lines Encode writes; the MSHRs
// and counters are a few hundred bytes more.
func (s *L1State) WireBytes() int { return s.arr.WireBytes() }

// Encode writes the L1 snapshot.
func (s *L1State) Encode(w *bin.Writer) {
	s.arr.Encode(w)
	w.Uvarint(uint64(len(s.mshrs)))
	for i := range s.mshrs {
		m := &s.mshrs[i]
		w.Bool(m.valid)
		w.U64(m.block)
		w.Bool(m.forX)
		w.Uvarint(uint64(len(m.waiters)))
		for j := range m.waiters {
			wt := &m.waiters[j]
			// The flag bytes repeat what the descriptor's kind says.
			w.Bool(wt.cb.Kind == CBStoreDone)
			w.Bool(wt.cb.syncAtomic())
			w.Int(wt.word)
			w.U64(wt.data)
			w.Bool(true) // every waiter carries a descriptor
			wt.cb.Encode(w)
		}
	}
	w.Int(s.free)
	w.I64(s.hits)
	w.I64(s.misses)
	w.I64(s.merged)
	w.I64(s.fills)
	w.I64(s.wbSent)
	w.I64(s.muteDrops)
	w.I64(s.retries)
}

// DecodeL1State reads an L1 snapshot written by Encode. It refuses a
// waiter without a descriptor, which would leave the core waiting on a
// completion that never comes, and one whose flag bytes contradict its
// descriptor's kind, which Encode never writes.
func DecodeL1State(r *bin.Reader) *L1State {
	s := &L1State{arr: DecodeArrayState(r)}
	nm := r.Len(1 + 8 + 1 + 1)
	for i := 0; i < nm; i++ {
		var m mshr
		m.valid = r.Bool()
		m.block = r.U64()
		m.forX = r.Bool()
		nw := r.Len(1 + 1 + 8 + 8 + 1)
		for j := 0; j < nw; j++ {
			var wt mshrWaiter
			isStore, isAtomic := r.Bool(), r.Bool()
			wt.word = r.Int()
			if wt.word < 0 || wt.word >= mem.BlockWords {
				r.Fail(fmt.Errorf("cache: waiter word %d out of range", wt.word))
				return nil
			}
			wt.data = r.U64()
			if !r.Bool() {
				r.Fail(errors.New("cache: waiter has no completion descriptor"))
				return nil
			}
			cb := DecodeCB(r)
			if cb == nil {
				return nil
			}
			if isStore != (cb.Kind == CBStoreDone) || isAtomic != cb.syncAtomic() {
				r.Fail(fmt.Errorf("cache: waiter flags store=%v atomic=%v contradict callback kind %d", isStore, isAtomic, cb.Kind))
				return nil
			}
			wt.cb = *cb
			m.waiters = append(m.waiters, wt)
		}
		s.mshrs = append(s.mshrs, m)
	}
	s.free = r.Int()
	s.hits = r.I64()
	s.misses = r.I64()
	s.merged = r.I64()
	s.fills = r.I64()
	s.wbSent = r.I64()
	s.muteDrops = r.I64()
	s.retries = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
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

// Validate cross-checks decoded L1 invariants against the live cache
// geometry so a hostile blob cannot restore out-of-range structure.
func (s *L1State) Validate(c *L1) error {
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
	return s.arr.Validate(c.Arr)
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
