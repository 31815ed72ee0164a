package interconnect

import "reunion/internal/bin"

// Wire walk for queue snapshots (checkpoint serialization). The queue
// items are requests, which the checkpoint interns, so the caller walks
// each item.

// Walk walks the snapshot: service bookkeeping and counters, then each
// queued item through item, followed by its arrival cycle, in FIFO order.
func (s *BankQueueState) Walk(c *bin.Codec, item func(*Item)) {
	c.I64(&s.lastSrv)
	c.Int(&s.served)
	c.I64(&s.arrivals)
	c.I64(&s.totWait)
	c.Int(&s.maxDepth)
	bin.Slice(c, &s.q, 1+8, func(e *queued) {
		item(&e.item)
		c.I64(&e.arrived)
	})
}

// Each calls fn for every queued item in FIFO order.
func (s *BankQueueState) Each(fn func(Item)) {
	for _, e := range s.q {
		fn(e.item)
	}
}
