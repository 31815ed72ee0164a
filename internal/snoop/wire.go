package snoop

import (
	"fmt"
	"sort"

	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
)

// Checkpoint serialization for the snoopy bus: plain-data descriptors for
// its scheduled events and a wire codec for BusState. Like the directory
// controller's codec, requests are never serialized inline — the root
// checkpoint encoder interns every *cache.Req and passes reqID/req
// translation hooks down so shared pointers stay shared on decode.

// EvReply describes a scheduled reply delivery. Release retires the fill-tracking entry keyed by the
// reply target's {core, block}; the increment is already in the
// snapshotted map.
type EvReply struct {
	R         *cache.Req
	Data      mem.Block
	Exclusive bool
	Release   bool
}

// EvMemFetch describes a pending coherent memory fetch.
type EvMemFetch struct {
	R         *cache.Req
	Exclusive bool
	Release   bool
}

// EvPhantomMem describes a pending phantom off-chip read.
type EvPhantomMem struct{ R *cache.Req }

// EvSyncMem describes a pair's pending combined synchronizing fetch.
type EvSyncMem struct{ V, M *cache.Req }

// --- event descriptor codecs ---

var errBadReqRef = errSnoop("snoop: bad interned request reference")

type errSnoop string

func (e errSnoop) Error() string { return string(e) }

// Encode writes the descriptor; reqID interns the request.
func (d *EvReply) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
	w.U64s(d.Data[:])
	w.Bool(d.Exclusive)
	w.Bool(d.Release)
}

// DecodeEvReply reads a descriptor written by Encode; req resolves
// interned request indices.
func DecodeEvReply(r *bin.Reader, req func(int) *cache.Req) *EvReply {
	d := &EvReply{R: req(r.Int())}
	r.U64s(d.Data[:])
	d.Exclusive = r.Bool()
	d.Release = r.Bool()
	if r.Err() != nil || d.R == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

// Encode writes the descriptor; reqID interns the request.
func (d *EvMemFetch) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.R))
	w.Bool(d.Exclusive)
	w.Bool(d.Release)
}

// DecodeEvMemFetch reads a descriptor written by Encode.
func DecodeEvMemFetch(r *bin.Reader, req func(int) *cache.Req) *EvMemFetch {
	d := &EvMemFetch{R: req(r.Int()), Exclusive: r.Bool(), Release: r.Bool()}
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

// Encode writes the descriptor; reqID interns both requests.
func (d *EvSyncMem) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	w.Int(reqID(d.V))
	w.Int(reqID(d.M))
}

// DecodeEvSyncMem reads a descriptor written by Encode.
func DecodeEvSyncMem(r *bin.Reader, req func(int) *cache.Req) *EvSyncMem {
	d := &EvSyncMem{V: req(r.Int()), M: req(r.Int())}
	if r.Err() != nil || d.V == nil || d.M == nil {
		r.Fail(errBadReqRef)
		return nil
	}
	return d
}

// --- BusState ---

// VisitReqs calls fn for every request the snapshot references, in
// deterministic order (bus queue FIFO, then parked sync requests by pair
// id). The root encoder builds its interning table with this.
func (s *BusState) VisitReqs(fn func(*cache.Req)) {
	s.q.Each(func(it interconnect.Item, _ int64) {
		fn(it.(*cache.Req))
	})
	pairs := make([]int, 0, len(s.bus.pendingSync))
	for p := range s.bus.pendingSync {
		pairs = append(pairs, p)
	}
	sort.Ints(pairs)
	for _, p := range pairs {
		fn(s.bus.pendingSync[p])
	}
}

// Encode writes the snapshot; reqID interns queued and parked requests.
// Maps are written in sorted key order so the encoding is deterministic.
func (s *BusState) Encode(w *bin.Writer, reqID func(*cache.Req) int) {
	lastSrv, served, arrivals, totWait, maxDepth := s.q.Meta()
	w.I64(lastSrv)
	w.Int(served)
	w.I64(arrivals)
	w.I64(totWait)
	w.Int(maxDepth)
	w.Uvarint(uint64(s.q.Len()))
	s.q.Each(func(it interconnect.Item, arrived int64) {
		w.Int(reqID(it.(*cache.Req)))
		w.I64(arrived)
	})

	w.Uvarint(uint64(len(s.bus.memBankFree)))
	for _, t := range s.bus.memBankFree {
		w.I64(t)
	}
	w.Int(s.bus.memInFlight)

	pairs := make([]int, 0, len(s.bus.pendingSync))
	for p := range s.bus.pendingSync {
		pairs = append(pairs, p)
	}
	sort.Ints(pairs)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Int(p)
		w.Int(reqID(s.bus.pendingSync[p]))
	}
	pairs = pairs[:0]
	for p := range s.bus.syncMinToken {
		pairs = append(pairs, p)
	}
	sort.Ints(pairs)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Int(p)
		w.I64(s.bus.syncMinToken[p])
	}

	keys := make([]flightKey, 0, len(s.bus.fillsInFlight))
	for k := range s.bus.fillsInFlight {
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
		w.Int(s.bus.fillsInFlight[k])
	}

	w.I64(s.bus.Transactions)
	w.I64(s.bus.Reads)
	w.I64(s.bus.ReadX)
	w.I64(s.bus.Ifetches)
	w.I64(s.bus.SnoopHits)
	w.I64(s.bus.MemAccesses)
	w.I64(s.bus.WritebacksRecv)
	w.I64(s.bus.PhantomReqs)
	w.I64(s.bus.PhantomGarbage)
	w.I64(s.bus.PhantomPeeks)
	w.I64(s.bus.PhantomMemReads)
	w.I64(s.bus.SyncRequests)
	w.I64(s.bus.Retries)
	w.I64(s.bus.MemQueueWait)
}

// DecodeBusState reads a snapshot written by Encode; req resolves
// interned request indices. Pointer fields are left nil for BindTo.
func DecodeBusState(r *bin.Reader, req func(int) *cache.Req) *BusState {
	s := &BusState{}
	lastSrv := r.I64()
	served := r.Int()
	arrivals := r.I64()
	totWait := r.I64()
	maxDepth := r.Int()
	nq := r.Len(1 + 8)
	items := make([]interconnect.Item, 0, nq)
	arrived := make([]int64, 0, nq)
	for i := 0; i < nq; i++ {
		rq := req(r.Int())
		at := r.I64()
		if r.Err() == nil && rq == nil {
			r.Fail(errBadReqRef)
			return nil
		}
		items = append(items, rq)
		arrived = append(arrived, at)
	}
	s.q = interconnect.NewBankQueueState(items, arrived, lastSrv, served, arrivals, totWait, maxDepth)

	nf := r.Len(8)
	for i := 0; i < nf; i++ {
		s.bus.memBankFree = append(s.bus.memBankFree, r.I64())
	}
	s.bus.memInFlight = r.Int()
	if r.Err() == nil && s.bus.memInFlight < 0 {
		r.Fail(fmt.Errorf("snoop: snapshot memInFlight %d negative", s.bus.memInFlight))
		return nil
	}

	np := r.Len(1 + 1)
	s.bus.pendingSync = make(map[int]*cache.Req, np)
	prevPair := -1
	for i := 0; i < np; i++ {
		p := r.Int()
		rq := req(r.Int())
		if r.Err() == nil && (p <= prevPair || rq == nil) {
			r.Fail(errSnoop("snoop: snapshot pendingSync malformed"))
			return nil
		}
		prevPair = p
		s.bus.pendingSync[p] = rq
	}
	np = r.Len(1 + 8)
	s.bus.syncMinToken = make(map[int]int64, np)
	prevPair = -1
	for i := 0; i < np; i++ {
		p := r.Int()
		if r.Err() == nil && p <= prevPair {
			r.Fail(errSnoop("snoop: snapshot syncMinToken not in sorted order"))
			return nil
		}
		prevPair = p
		s.bus.syncMinToken[p] = r.I64()
	}

	nk := r.Len(1 + 8 + 1)
	s.bus.fillsInFlight = make(map[flightKey]int, nk)
	prev := flightKey{core: -1}
	for i := 0; i < nk; i++ {
		k := flightKey{core: r.Int(), block: r.U64()}
		n := r.Int()
		if r.Err() == nil &&
			(n <= 0 || k.core < 0 ||
				(i > 0 && (k.core < prev.core || (k.core == prev.core && k.block <= prev.block)))) {
			r.Fail(errSnoop("snoop: snapshot fillsInFlight malformed"))
			return nil
		}
		prev = k
		s.bus.fillsInFlight[k] = n
	}

	s.bus.Transactions = r.I64()
	s.bus.Reads = r.I64()
	s.bus.ReadX = r.I64()
	s.bus.Ifetches = r.I64()
	s.bus.SnoopHits = r.I64()
	s.bus.MemAccesses = r.I64()
	s.bus.WritebacksRecv = r.I64()
	s.bus.PhantomReqs = r.I64()
	s.bus.PhantomGarbage = r.I64()
	s.bus.PhantomPeeks = r.I64()
	s.bus.PhantomMemReads = r.I64()
	s.bus.SyncRequests = r.I64()
	s.bus.Retries = r.I64()
	s.bus.MemQueueWait = r.I64()
	if r.Err() != nil {
		return nil
	}
	return s
}

// BindTo validates the decoded snapshot against the live bus geometry and
// fixes up the pointer fields Restore carries over, so Restore on a
// decoded snapshot behaves exactly like Restore on a live one.
func (s *BusState) BindTo(live *Bus) error {
	if len(s.bus.memBankFree) != len(live.memBankFree) {
		return fmt.Errorf("snoop: snapshot has %d memory banks, bus has %d",
			len(s.bus.memBankFree), len(live.memBankFree))
	}
	n := len(live.l1d)
	for k := range s.bus.fillsInFlight {
		if k.core >= n {
			return fmt.Errorf("snoop: snapshot in-flight fill core %d out of range for %d cores", k.core, n)
		}
	}
	s.bus.cfg = live.cfg
	s.bus.eq = live.eq
	s.bus.mem = live.mem
	s.bus.q = live.q
	s.bus.l1d = live.l1d
	return nil
}
