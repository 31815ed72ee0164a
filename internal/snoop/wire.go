package snoop

import (
	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/interconnect"
	"reunion/internal/mem"
)

// Checkpoint serialization for the snoopy bus: plain-data descriptors for
// its scheduled events and a wire walk for BusState. Like the directory
// controller's walks, these never serialize a request inline: the root
// checkpoint walk interns every *cache.Req into a cache.ReqTable, so
// shared pointers stay shared on decode.

// EvReply describes a scheduled reply delivery. Release retires the
// fill-tracking entry keyed by the reply target's {core, block}; the
// increment is already in the snapshotted map.
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

// EvSyncMem describes a pair's pending combined synchronizing fetch.
type EvSyncMem struct{ V, M *cache.Req }

// --- event descriptor walks ---

// Walk walks the descriptor; rt interns its request.
func (d *EvReply) Walk(c *bin.Codec, rt *cache.ReqTable) {
	rt.Ref(c, &d.R)
	c.U64s(d.Data[:])
	c.Bool(&d.Exclusive)
	c.Bool(&d.Release)
}

// Walk walks the descriptor; rt interns its request.
func (d *EvMemFetch) Walk(c *bin.Codec, rt *cache.ReqTable) {
	rt.Ref(c, &d.R)
	c.Bool(&d.Exclusive)
	c.Bool(&d.Release)
}

// Walk walks the descriptor; rt interns both requests.
func (d *EvSyncMem) Walk(c *bin.Codec, rt *cache.ReqTable) {
	rt.Ref(c, &d.V)
	rt.Ref(c, &d.M)
}

// --- BusState ---

// VisitReqs calls fn for every request the snapshot references, in the
// order Walk references them (bus queue FIFO, then parked sync requests
// by pair id). The root walk fills its request table with this.
func (s *BusState) VisitReqs(fn func(*cache.Req)) {
	s.q.Each(func(it interconnect.Item) { fn(it.(*cache.Req)) })
	s.bus.MemSide.VisitReqs(fn)
}

// Walk walks the snapshot; rt interns queued and parked requests. A
// reader leaves the pointer fields nil for BindTo.
func (s *BusState) Walk(c *bin.Codec, rt *cache.ReqTable) {
	s.q.Walk(c, func(it *interconnect.Item) {
		r, _ := (*it).(*cache.Req)
		if rt.Ref(c, &r); c.Reading() {
			*it = r
		}
	})
	s.bus.MemSide.Walk(c, rt)
	b := &s.bus
	for _, v := range []*int64{&b.Transactions, &b.Reads, &b.ReadX, &b.Ifetches,
		&b.SnoopHits, &b.MemAccesses, &b.WritebacksRecv, &b.PhantomReqs,
		&b.PhantomGarbage, &b.PhantomPeeks, &b.PhantomMemReads, &b.SyncRequests,
		&b.Retries, &b.MemQueueWait} {
		c.I64(v)
	}
}

// BindTo validates the decoded snapshot against the live bus geometry and
// fixes up the pointer fields Restore carries over, so Restore on a
// decoded snapshot behaves exactly like Restore on a live one.
func (s *BusState) BindTo(live *Bus) error {
	if err := s.bus.MemSide.BindTo(&live.MemSide, len(live.l1d)); err != nil {
		return err
	}
	s.bus.cfg = live.cfg
	s.bus.eq = live.eq
	s.bus.mem = live.mem
	s.bus.q = live.q
	s.bus.l1d = live.l1d
	return nil
}
