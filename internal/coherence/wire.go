package coherence

import (
	"fmt"
	"sort"

	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
)

// This file is the coherence package's half of checkpoint serialization:
// plain-data descriptors for the controller's scheduled events (so pending
// crossbar traversals, reply deliveries, and off-chip fetches survive a
// process boundary) and a wire codec for L2State.
//
// Requests appear in many places at once — bank queues, parked sync slots,
// event descriptors — and processSync compares them by pointer, so the
// codec never serializes a *cache.Req inline. The root checkpoint encoder
// interns every request into a table and passes reqID/req translation
// hooks down; one table index always decodes to one shared *cache.Req.

// EvXbar describes a request in flight across the crossbar toward its
// bank.
type EvXbar struct{ R *cache.Req }

// EvReply describes a scheduled reply delivery (the fill-tracking
// increment is already in the snapshotted map).
type EvReply struct {
	R         *cache.Req
	Data      mem.Block
	Exclusive bool
	Track     bool
}

// ContKind names the continuation that resumes a request once its L2 line
// is resident.
type ContKind uint8

// Continuation kinds.
const (
	// ContIfetch replies with the line for an instruction fetch.
	ContIfetch ContKind = iota + 1
	// ContGetS finishes a vocal read (directory update, shared/exclusive
	// grant).
	ContGetS
	// ContGetX finishes a vocal read-exclusive (recall, invalidations,
	// exclusive grant).
	ContGetX
	// ContSync finishes a combined synchronizing transaction (coherent
	// write on the pair's behalf, atomic reply to both members).
	ContSync
)

// EvMemCont describes a pending off-chip fetch completion together with
// the continuation that resumes the request (the memInFlight increment is
// already in the snapshot). Vocal, Mute and the V* fields are meaningful
// only for ContSync.
type EvMemCont struct {
	R            *cache.Req
	Cont         ContKind
	Vocal, Mute  *cache.Req
	VHad, VDirty bool
	VData        mem.Block
}

// EvPhantomMem describes a pending phantom off-chip read.
type EvPhantomMem struct{ R *cache.Req }

// --- event descriptor codecs ---

// Encode writes the descriptor; reqID interns the request.
func (d *EvXbar) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
}

// DecodeEvXbar reads a descriptor written by Encode; req resolves interned
// request indices.
func DecodeEvXbar(r *bin.Reader, req func(int) *cache.Req) *EvXbar {
	d := &EvXbar{R: req(r.Int())}
	if r.Err() != nil || d.R == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

// Encode writes the descriptor; reqID interns the request.
func (d *EvReply) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
	w.U64s(d.Data[:])
	w.Bool(d.Exclusive)
	w.Bool(d.Track)
}

// DecodeEvReply reads a descriptor written by Encode.
func DecodeEvReply(r *bin.Reader, req func(int) *cache.Req) *EvReply {
	d := &EvReply{R: req(r.Int())}
	r.U64s(d.Data[:])
	d.Exclusive = r.Bool()
	d.Track = r.Bool()
	if r.Err() != nil || d.R == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

// Encode writes the descriptor; reqID interns the requests.
func (d *EvMemCont) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
	w.U8(uint8(d.Cont))
	if d.Cont == ContSync {
		w.Int(reqID(d.Vocal))
		w.Int(reqID(d.Mute))
		w.Bool(d.VHad)
		w.Bool(d.VDirty)
		w.U64s(d.VData[:])
	}
}

// DecodeEvMemCont reads a descriptor written by Encode.
func DecodeEvMemCont(r *bin.Reader, req func(int) *cache.Req) *EvMemCont {
	d := &EvMemCont{R: req(r.Int()), Cont: ContKind(r.U8())}
	if r.Err() == nil && (d.Cont < ContIfetch || d.Cont > ContSync) {
		r.Fail(fmt.Errorf("coherence: unknown continuation kind %d", d.Cont))
		return nil
	}
	if d.Cont == ContSync {
		d.Vocal = req(r.Int())
		d.Mute = req(r.Int())
		d.VHad = r.Bool()
		d.VDirty = r.Bool()
		r.U64s(d.VData[:])
		if r.Err() == nil && (d.Vocal == nil || d.Mute == nil) {
			r.Fail(errBadReqRef)
			return nil
		}
	}
	if r.Err() != nil || d.R == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

// Encode writes the descriptor; reqID interns the request.
func (d *EvPhantomMem) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
}

// DecodeEvPhantomMem reads a descriptor written by Encode.
func DecodeEvPhantomMem(r *bin.Reader, req func(int) *cache.Req) *EvPhantomMem {
	d := &EvPhantomMem{R: req(r.Int())}
	if r.Err() != nil || d.R == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

var errBadReqRef = errCoherence("coherence: bad interned request reference")

type errCoherence string

func (e errCoherence) Error() string { return string(e) }

// --- L2State ---

// VisitReqs calls fn for every request the snapshot references, in
// deterministic order (bank queues FIFO, then parked sync requests by
// pair id). The root encoder builds its interning table with this.
func (s *L2State) VisitReqs(fn func(*cache.Req)) {
	for i := range s.banks {
		s.banks[i].Each(func(it interconnect.Item, _ int64) {
			fn(it.(*cache.Req))
		})
	}
	pairs := sortedKeys(s.l2.pendingSync)
	for _, p := range pairs {
		fn(s.l2.pendingSync[p])
	}
}

func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}

// dirWireBytes is one encoded directory entry: block, sharers, owner.
const dirWireBytes = 8 + 4 + 8

// WireBytes returns the size of the array lines and directory entries
// Encode writes; the bank queues and counters are a few kilobytes more.
func (s *L2State) WireBytes() int { return s.arr.WireBytes() + len(s.dir)*dirWireBytes }

// Encode writes the snapshot; reqID interns queued and parked requests.
// Maps are written in sorted key order so the encoding is deterministic.
func (s *L2State) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	s.arr.Encode(w)

	blocks := make([]uint64, 0, len(s.dir))
	for b := range s.dir {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	w.Uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		d := s.dir[b]
		w.U64(b)
		w.U32(d.sharers)
		w.I64(int64(d.owner))
	}

	w.Uvarint(uint64(len(s.banks)))
	for i := range s.banks {
		bq := &s.banks[i]
		lastSrv, served, arrivals, totWait, maxDepth := bq.Meta()
		w.I64(lastSrv)
		w.Int(served)
		w.I64(arrivals)
		w.I64(totWait)
		w.Int(maxDepth)
		w.Uvarint(uint64(bq.Len()))
		bq.Each(func(it interconnect.Item, arrived int64) {
			w.Int(reqID(it.(*cache.Req)))
			w.I64(arrived)
		})
	}

	w.Uvarint(uint64(len(s.l2.memBankFree)))
	for _, t := range s.l2.memBankFree {
		w.I64(t)
	}
	w.Int(s.l2.memInFlight)

	pairs := sortedKeys(s.l2.pendingSync)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Int(p)
		w.Int(reqID(s.l2.pendingSync[p]))
	}
	pairs = sortedKeys(s.l2.syncMinToken)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Int(p)
		w.I64(s.l2.syncMinToken[p])
	}

	keys := make([]flightKey, 0, len(s.l2.fillsInFlight))
	for k := range s.l2.fillsInFlight {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].core != keys[j].core {
			return keys[i].core < keys[j].core
		}
		return keys[i].block < keys[j].block
	})
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Int(k.core)
		w.U64(k.block)
		w.Int(s.l2.fillsInFlight[k])
	}

	w.I64(s.l2.Reads)
	w.I64(s.l2.ReadX)
	w.I64(s.l2.Ifetches)
	w.I64(s.l2.HitsL2)
	w.I64(s.l2.MissesL2)
	w.I64(s.l2.Recalls)
	w.I64(s.l2.Invalidations)
	w.I64(s.l2.MemAccesses)
	w.I64(s.l2.PhantomReqs)
	w.I64(s.l2.PhantomGarbage)
	w.I64(s.l2.PhantomPeeks)
	w.I64(s.l2.PhantomMemReads)
	w.I64(s.l2.SyncRequests)
	w.I64(s.l2.WritebacksRecv)
	w.I64(s.l2.RetriesInternal)
	w.I64(s.l2.MemQueueWait)
}

// DecodeL2State reads a snapshot written by Encode; req resolves interned
// request indices. Pointer fields (event queue, array, memory, bank and
// L1 references) are left nil for BindTo.
func DecodeL2State(r *bin.Reader, req func(int) *cache.Req) *L2State {
	s := &L2State{arr: cache.DecodeArrayState(r)}

	nd := r.Len(dirWireBytes)
	s.dir = make(map[uint64]dirEntry, nd)
	var prevBlock uint64
	for i := 0; i < nd; i++ {
		b := r.U64()
		if i > 0 && b <= prevBlock {
			r.Fail(errCoherence("coherence: snapshot directory not in sorted order"))
			return nil
		}
		prevBlock = b
		sharers := r.U32()
		owner := r.I64()
		if owner < -1 || owner > 127 {
			r.Fail(fmt.Errorf("coherence: snapshot directory owner %d out of range", owner))
			return nil
		}
		s.dir[b] = dirEntry{sharers: sharers, owner: int8(owner)}
	}

	nb := r.Len(8 + 1 + 8 + 8 + 1 + 1)
	for i := 0; i < nb; i++ {
		lastSrv := r.I64()
		served := r.Int()
		arrivals := r.I64()
		totWait := r.I64()
		maxDepth := r.Int()
		nq := r.Len(1 + 8)
		items := make([]interconnect.Item, 0, nq)
		arrived := make([]int64, 0, nq)
		for j := 0; j < nq; j++ {
			rq := req(r.Int())
			at := r.I64()
			if r.Err() == nil && rq == nil {
				r.Fail(errBadReqRef)
				return nil
			}
			items = append(items, rq)
			arrived = append(arrived, at)
		}
		s.banks = append(s.banks,
			interconnect.NewBankQueueState(items, arrived, lastSrv, served, arrivals, totWait, maxDepth))
	}

	nf := r.Len(8)
	for i := 0; i < nf; i++ {
		s.l2.memBankFree = append(s.l2.memBankFree, r.I64())
	}
	s.l2.memInFlight = r.Int()
	if r.Err() == nil && s.l2.memInFlight < 0 {
		r.Fail(fmt.Errorf("coherence: snapshot memInFlight %d negative", s.l2.memInFlight))
		return nil
	}

	np := r.Len(1 + 1)
	s.l2.pendingSync = make(map[int]*cache.Req, np)
	prevPair := -1
	for i := 0; i < np; i++ {
		p := r.Int()
		rq := req(r.Int())
		if r.Err() == nil && (p <= prevPair || rq == nil) {
			r.Fail(errCoherence("coherence: snapshot pendingSync malformed"))
			return nil
		}
		prevPair = p
		s.l2.pendingSync[p] = rq
	}
	np = r.Len(1 + 8)
	s.l2.syncMinToken = make(map[int]int64, np)
	prevPair = -1
	for i := 0; i < np; i++ {
		p := r.Int()
		if r.Err() == nil && p <= prevPair {
			r.Fail(errCoherence("coherence: snapshot syncMinToken not in sorted order"))
			return nil
		}
		prevPair = p
		s.l2.syncMinToken[p] = r.I64()
	}

	nk := r.Len(1 + 8 + 1)
	s.l2.fillsInFlight = make(map[flightKey]int, nk)
	prev := flightKey{core: -1}
	for i := 0; i < nk; i++ {
		k := flightKey{core: r.Int(), block: r.U64()}
		n := r.Int()
		if r.Err() == nil &&
			(n <= 0 || k.core < 0 ||
				(i > 0 && (k.core < prev.core || (k.core == prev.core && k.block <= prev.block)))) {
			r.Fail(errCoherence("coherence: snapshot fillsInFlight malformed"))
			return nil
		}
		prev = k
		s.l2.fillsInFlight[k] = n
	}

	s.l2.Reads = r.I64()
	s.l2.ReadX = r.I64()
	s.l2.Ifetches = r.I64()
	s.l2.HitsL2 = r.I64()
	s.l2.MissesL2 = r.I64()
	s.l2.Recalls = r.I64()
	s.l2.Invalidations = r.I64()
	s.l2.MemAccesses = r.I64()
	s.l2.PhantomReqs = r.I64()
	s.l2.PhantomGarbage = r.I64()
	s.l2.PhantomPeeks = r.I64()
	s.l2.PhantomMemReads = r.I64()
	s.l2.SyncRequests = r.I64()
	s.l2.WritebacksRecv = r.I64()
	s.l2.RetriesInternal = r.I64()
	s.l2.MemQueueWait = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// BindTo validates the decoded snapshot against the live controller's
// geometry and fixes up the pointer fields Restore carries over (config,
// event queue, array, memory, banks, registered L1s), so Restore on a
// decoded snapshot behaves exactly like Restore on a live one.
func (s *L2State) BindTo(live *L2) error {
	if len(s.banks) != len(live.banks) {
		return fmt.Errorf("coherence: snapshot has %d banks, controller has %d", len(s.banks), len(live.banks))
	}
	if len(s.l2.memBankFree) != len(live.memBankFree) {
		return fmt.Errorf("coherence: snapshot has %d memory banks, controller has %d",
			len(s.l2.memBankFree), len(live.memBankFree))
	}
	if err := s.arr.Validate(live.arr); err != nil {
		return err
	}
	n := len(live.l1d)
	for b, d := range s.dir {
		if int(d.owner) >= n {
			return fmt.Errorf("coherence: snapshot directory owner %d out of range for %d cores", d.owner, n)
		}
		if n < 32 && d.sharers>>uint(n) != 0 {
			return fmt.Errorf("coherence: snapshot directory sharers %#x out of range for %d cores (block %#x)",
				d.sharers, n, b)
		}
	}
	for k := range s.l2.fillsInFlight {
		if k.core >= n {
			return fmt.Errorf("coherence: snapshot in-flight fill core %d out of range for %d cores", k.core, n)
		}
	}
	s.l2.cfg = live.cfg
	s.l2.eq = live.eq
	s.l2.arr = live.arr
	s.l2.dir = nil // Restore rebuilds from s.dir
	s.l2.mem = live.mem
	s.l2.banks = live.banks
	s.l2.bankMask = live.bankMask
	s.l2.l1d = live.l1d
	return nil
}
