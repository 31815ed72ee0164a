package coherence

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
)

// This file is the coherence package's half of checkpoint serialization:
// plain-data descriptors for the controller's scheduled events (so pending
// crossbar traversals, reply deliveries, and off-chip fetches survive a
// process boundary) and wire walks for L2State and for the MemSide both
// topologies embed.
//
// Requests appear in many places at once — bank queues, parked sync slots,
// event descriptors — and processSync compares them by pointer, so the
// walks never serialize a *cache.Req inline: the root checkpoint walk
// interns every request into a cache.ReqTable, and one table index always
// decodes to one shared *cache.Req.

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

// EvPhantomMem describes a pending phantom off-chip read. The snoopy bus
// schedules the same descriptor: a phantom read is a memory-side
// operation (MemSide.StartMem/EndMem) both topologies share.
type EvPhantomMem struct{ R *cache.Req }

// --- event descriptor walks ---

// Walk walks the descriptor; rt interns its request.
func (d *EvXbar) Walk(c *bin.Codec, rt *cache.ReqTable) { rt.Ref(c, &d.R) }

// Walk walks the descriptor; rt interns its request.
func (d *EvReply) Walk(c *bin.Codec, rt *cache.ReqTable) {
	rt.Ref(c, &d.R)
	c.U64s(d.Data[:])
	c.Bool(&d.Exclusive)
	c.Bool(&d.Track)
}

// Walk walks the descriptor; rt interns its requests. Only a ContSync
// continuation carries the pair's requests and the vocal line.
func (d *EvMemCont) Walk(c *bin.Codec, rt *cache.ReqTable) {
	rt.Ref(c, &d.R)
	c.U8((*uint8)(&d.Cont))
	if c.Reading() && (d.Cont < ContIfetch || d.Cont > ContSync) {
		c.Fail(fmt.Errorf("coherence: unknown continuation kind %d", d.Cont))
	}
	if d.Cont == ContSync {
		rt.Ref(c, &d.Vocal)
		rt.Ref(c, &d.Mute)
		c.Bool(&d.VHad)
		c.Bool(&d.VDirty)
		c.U64s(d.VData[:])
	}
}

// Walk walks the descriptor; rt interns its request.
func (d *EvPhantomMem) Walk(c *bin.Codec, rt *cache.ReqTable) { rt.Ref(c, &d.R) }

// --- MemSide ---

// VisitReqs calls fn for each parked sync request in Walk's order.
func (m *MemSide) VisitReqs(fn func(*cache.Req)) {
	for _, p := range slices.Sorted(maps.Keys(m.pendingSync)) {
		fn(m.pendingSync[p])
	}
}

// Walk walks the five fields both controllers' snapshots hold in a row,
// maps in ascending key order; rt interns the parked sync requests. Each
// controller walks the counters, in its own order.
func (m *MemSide) Walk(c *bin.Codec, rt *cache.ReqTable) {
	bin.Slice(c, &m.memBankFree, 8, c.I64)
	c.Int(&m.memInFlight)
	if c.Reading() && m.memInFlight < 0 {
		c.Fail(fmt.Errorf("coherence: snapshot memInFlight %d negative", m.memInFlight))
	}
	bin.Map(c, &m.pendingSync, 1+1, cmp.Compare, func(p *int, r **cache.Req) {
		c.Int(p)
		rt.Ref(c, r)
		if c.Reading() && *p < 0 {
			c.Fail(errors.New("coherence: snapshot pendingSync malformed"))
		}
	})
	bin.Map(c, &m.syncMinToken, 1+8, cmp.Compare, func(p *int, tok *int64) {
		c.Int(p)
		c.I64(tok)
		if c.Reading() && *p < 0 {
			c.Fail(errors.New("coherence: snapshot syncMinToken malformed"))
		}
	})
	bin.Map(c, &m.fillsInFlight, 1+8+1, flightKey.cmp, func(k *flightKey, n *int) {
		c.Int(&k.core)
		c.U64(&k.block)
		c.Int(n)
		if c.Reading() && (*n <= 0 || k.core < 0) {
			c.Fail(errors.New("coherence: snapshot fillsInFlight malformed"))
		}
	})
}

// cmp orders in-flight fills by core, then block.
func (k flightKey) cmp(o flightKey) int {
	return cmp.Or(cmp.Compare(k.core, o.core), cmp.Compare(k.block, o.block))
}

// BindTo checks decoded state against the live controller's memory banks
// and its cores, and takes the configuration the wire does not carry.
func (m *MemSide) BindTo(live *MemSide, cores int) error {
	if len(m.memBankFree) != len(live.memBankFree) {
		return fmt.Errorf("coherence: snapshot has %d memory banks, controller has %d",
			len(m.memBankFree), len(live.memBankFree))
	}
	for k := range m.fillsInFlight {
		if k.core >= cores {
			return fmt.Errorf("coherence: snapshot in-flight fill core %d out of range for %d cores", k.core, cores)
		}
	}
	m.cfg = live.cfg
	return nil
}

// --- L2State ---

// VisitReqs calls fn for every request the snapshot references, in the
// order Walk references them (bank queues FIFO, then parked sync requests
// by pair id). The root walk fills its request table with this.
func (s *L2State) VisitReqs(fn func(*cache.Req)) {
	for i := range s.banks {
		s.banks[i].Each(func(it interconnect.Item) { fn(it.(*cache.Req)) })
	}
	s.l2.MemSide.VisitReqs(fn)
}

// dirWireBytes is one encoded directory entry: block, sharers, owner.
const dirWireBytes = 8 + 4 + 8

// WireBytes returns the size of the array lines and directory entries
// Walk writes against m; the bank queues and counters are a few
// kilobytes more.
func (s *L2State) WireBytes(m *mem.MemoryState) int {
	return s.arr.WireBytes(m) + len(s.dir)*dirWireBytes
}

// Walk walks the snapshot; rt interns queued and parked requests. Maps
// go in ascending key order, so the encoding is deterministic. A reader
// leaves the pointer fields (event queue, array, memory, bank and L1
// references) nil for BindTo. m is the checkpoint's memory image, against
// which the array lines are written (cache.ArrayState.Walk).
func (s *L2State) Walk(c *bin.Codec, rt *cache.ReqTable, m *mem.MemoryState) {
	s.arr.Walk(c, m)
	bin.Map(c, &s.dir, dirWireBytes, cmp.Compare, func(b *uint64, d *dirEntry) {
		owner := int64(d.owner)
		c.U64(b)
		c.U32(&d.sharers)
		c.I64(&owner)
		if c.Reading() {
			d.owner = int8(owner)
			if owner < -1 || owner > 127 {
				c.Fail(fmt.Errorf("coherence: snapshot directory owner %d out of range", owner))
			}
		}
	})
	bin.Slice(c, &s.banks, 8+1+8+8+1+1, func(bq *interconnect.BankQueueState) {
		bq.Walk(c, func(it *interconnect.Item) {
			r, _ := (*it).(*cache.Req)
			if rt.Ref(c, &r); c.Reading() {
				*it = r
			}
		})
	})
	s.l2.MemSide.Walk(c, rt)
	l2 := &s.l2
	for _, v := range []*int64{&l2.Reads, &l2.ReadX, &l2.Ifetches, &l2.HitsL2,
		&l2.MissesL2, &l2.Recalls, &l2.Invalidations, &l2.MemAccesses,
		&l2.PhantomReqs, &l2.PhantomGarbage, &l2.PhantomPeeks, &l2.PhantomMemReads,
		&l2.SyncRequests, &l2.WritebacksRecv, &l2.RetriesInternal, &l2.MemQueueWait} {
		c.I64(v)
	}
}

// BindTo validates the decoded snapshot against the live controller's
// geometry and fixes up the pointer fields Restore carries over (config,
// event queue, array, memory, banks, registered L1s), so Restore on a
// decoded snapshot behaves exactly like Restore on a live one. m is the
// checkpoint's bound memory image, which fills the array lines written
// as memory's.
func (s *L2State) BindTo(live *L2, m *mem.MemoryState) error {
	if len(s.banks) != len(live.banks) {
		return fmt.Errorf("coherence: snapshot has %d banks, controller has %d", len(s.banks), len(live.banks))
	}
	if err := s.l2.MemSide.BindTo(&live.MemSide, len(live.l1d)); err != nil {
		return err
	}
	if err := s.arr.BindTo(live.arr, m); err != nil {
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
