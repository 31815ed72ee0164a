package coherence

import (
	"fmt"

	"reunion/internal/cache"
	"reunion/internal/mem"
	"reunion/internal/sim"
)

// PhantomStrength selects how diligently a phantom request searches for
// coherent data (paper §4.2).
type PhantomStrength uint8

// Phantom request strengths. Global — the paper's default and the only
// strength that keeps input incoherence rare — is the zero value, so a
// zero Config gets the sensible configuration.
const (
	// PhantomGlobal checks the shared cache, peeks private vocal caches,
	// and issues non-coherent reads to main memory for off-chip misses.
	PhantomGlobal PhantomStrength = iota
	// PhantomShared checks the shared cache and returns arbitrary values
	// only on L2 misses.
	PhantomShared
	// PhantomNull returns arbitrary data on any request.
	PhantomNull
)

// String names the strength as in the paper's tables.
func (p PhantomStrength) String() string {
	switch p {
	case PhantomNull:
		return "null"
	case PhantomShared:
		return "shared"
	case PhantomGlobal:
		return "global"
	}
	return "?"
}

// Valid reports whether p is one of the three strengths.
func (p PhantomStrength) Valid() bool { return p <= PhantomNull }

// Reach says where a phantom request of strength p looks for coherent
// data, in both topologies: onChip, the shared cache (directory) or the
// other private caches (snoopy bus); global, also the vocal owner's
// private copy (directory) and main memory. A request that finds nothing
// where it looks returns arbitrary data. An unknown strength panics.
func (p PhantomStrength) Reach() (onChip, global bool) {
	switch p {
	case PhantomNull:
		return false, false
	case PhantomShared:
		return true, false
	case PhantomGlobal:
		return true, true
	}
	panic(fmt.Sprintf("coherence: unknown phantom strength %d", p))
}

type flightKey struct {
	core  int
	block uint64
}

// MemSide is the memory-side protocol state both topologies share (paper
// §4.1: phantom and synchronizing requests carry over unchanged from a
// directory to a snoopy interface). The directory L2 and the snoopy bus
// each embed one by value and keep what their topology owns: the
// directory, banked array, recalls and continuations, or the snoops and
// the bus queue, plus their counter order, event descriptors and the
// points where they track fills.
type MemSide struct {
	cfg Config // only the memory parameters are read

	memInFlight  int
	memBankFree  []int64 // next free cycle per memory bank; nil disables bank contention
	MemQueueWait int64   // cycles memory requests waited on busy banks

	// Stats
	MemAccesses     int64
	PhantomReqs     int64
	PhantomGarbage  int64
	PhantomPeeks    int64
	PhantomMemReads int64
	SyncRequests    int64

	pendingSync  map[int]*cache.Req // pair id -> first-arrived sync request
	syncMinToken map[int]int64      // pair id -> minimum valid sync token

	// fillsInFlight tracks replies that grant a copy to an L1 and have
	// been decided but not yet delivered. A vocal cache the protocol
	// expects to hold a line but that has neither the line nor an
	// in-flight fill has silently evicted a clean line; with an in-flight
	// fill the prober must retry (the fill lands within a bounded reply
	// latency, so retries terminate).
	fillsInFlight map[flightKey]int
}

// NewMemSide returns the shared state for a controller with cfg's memory
// parameters (MemLatency, MemBanks, MemBankBusy and MemMSHRs).
func NewMemSide(cfg Config) MemSide {
	m := MemSide{
		cfg:           cfg,
		pendingSync:   make(map[int]*cache.Req),
		syncMinToken:  make(map[int]int64),
		fillsInFlight: make(map[flightKey]int),
	}
	if cfg.MemBanks > 0 {
		m.memBankFree = make([]int64, cfg.MemBanks)
	}
	return m
}

// ResetStats zeroes the shared counters (measurement-window boundary).
func (m *MemSide) ResetStats() {
	m.MemQueueWait, m.MemAccesses, m.SyncRequests = 0, 0, 0
	m.PhantomReqs, m.PhantomGarbage, m.PhantomPeeks, m.PhantomMemReads = 0, 0, 0, 0
}

// Garbage counts a phantom reply that found no coherent copy and returns
// its arbitrary data: a deterministic function of the block, mixed with a
// per-topology salt.
func (m *MemSide) Garbage(block, salt uint64) mem.Block {
	m.PhantomGarbage++
	var b mem.Block
	for i := range b {
		b[i] = sim.Mix64(block ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ salt)
	}
	return b
}

// MemFull reports whether every off-chip MSHR is taken.
func (m *MemSide) MemFull() bool { return m.memInFlight >= m.cfg.MemMSHRs }

// StartMem takes an off-chip MSHR for an access to block at cycle now
// and returns the access latency, including the wait for the block's
// memory bank (banks are interleaved by block address). Doubling miss
// traffic — as relaxed input replication does — shows up here as
// queueing delay. EndMem completes the access.
func (m *MemSide) StartMem(now int64, block uint64) int64 {
	m.MemAccesses++
	m.memInFlight++
	if m.memBankFree == nil {
		return m.cfg.MemLatency
	}
	bank := (block >> mem.BlockShift) % uint64(len(m.memBankFree))
	start := now
	if m.memBankFree[bank] > start {
		start = m.memBankFree[bank]
		m.MemQueueWait += start - now
	}
	m.memBankFree[bank] = start + m.cfg.MemBankBusy
	return start - now + m.cfg.MemLatency
}

// EndMem releases the MSHR of a completed off-chip access and returns
// the block's memory image.
func (m *MemSide) EndMem(mm *mem.Memory, block uint64) mem.Block {
	m.memInFlight--
	var data mem.Block
	mm.ReadBlock(block, &data)
	return data
}

// TrackFill marks a fill granted to core's cache in flight until Deliver.
func (m *MemSide) TrackFill(core int, block uint64) {
	m.fillsInFlight[flightKey{core: core, block: block}]++
}

// Deliver hands a scheduled reply to the requesting L1; release retires
// the fill TrackFill marked for it.
func (m *MemSide) Deliver(r *cache.Req, data *mem.Block, exclusive, release bool) {
	r.Deliver(cache.Resp{Data: *data, Exclusive: exclusive})
	if !release {
		return
	}
	key := flightKey{core: r.Core, block: r.Block}
	if m.fillsInFlight[key]--; m.fillsInFlight[key] == 0 {
		delete(m.fillsInFlight, key)
	}
}

// FillInFlight reports whether a fill of block to core's cache is pending.
func (m *MemSide) FillInFlight(core int, block uint64) bool {
	return m.fillsInFlight[flightKey{core: core, block: block}] > 0
}

// CancelSync invalidates every synchronizing request of the pair with a
// token below minToken: a parked request is dropped and in-flight ones are
// discarded on arrival. Recovery escalation uses this so stale sync
// requests can never pair with the re-executed ones.
func (m *MemSide) CancelSync(pair int, minToken int64) {
	if r := m.pendingSync[pair]; r != nil && r.Token < minToken {
		delete(m.pendingSync, pair)
	}
	if m.syncMinToken[pair] < minToken {
		m.syncMinToken[pair] = minToken
	}
}

// PairSync collects a logical pair's synchronizing requests (paper §4.4):
// r is parked until its partner with the same token arrives, then both are
// unparked, counted and returned for the controller's flush and coherent
// transaction. retry asks the caller to requeue r, its partner staying
// parked: a stale pre-recovery fill to either member's cache is still in
// flight and would land over the synchronizing fill.
func (m *MemSide) PairSync(r *cache.Req) (vocal, mute *cache.Req, retry bool) {
	if r.Token < m.syncMinToken[r.Pair] {
		return nil, nil, false // cancelled by recovery escalation; the L1 MSHR was aborted
	}
	first, ok := m.pendingSync[r.Pair]
	if !ok {
		m.pendingSync[r.Pair] = r
		return nil, nil, false
	}
	if first.Token != r.Token {
		// A stale partner survived cancellation bookkeeping; keep the
		// newer request parked and drop the older one.
		if first.Token < r.Token {
			m.pendingSync[r.Pair] = r
		}
		return nil, nil, false
	}
	if first.Block != r.Block {
		panic(fmt.Sprintf("coherence: pair %d sync requests disagree on block: %#x vs %#x",
			r.Pair, first.Block, r.Block))
	}
	vocal, mute = first, r
	if !vocal.Vocal {
		vocal, mute = r, first
	}
	if m.FillInFlight(vocal.Core, r.Block) || m.FillInFlight(mute.Core, r.Block) {
		return nil, nil, true
	}
	delete(m.pendingSync, r.Pair)
	m.SyncRequests++
	return vocal, mute, false
}

// ReparkSync parks r's partner after the caller requeued r on a transient
// conflict, so the retried request finds it and the pair combines again.
func (m *MemSide) ReparkSync(r, vocal, mute *cache.Req) {
	m.pendingSync[r.Pair] = syncPartner(r, vocal, mute)
}

// syncPartner returns the member of the pair that is not r.
func syncPartner(r, vocal, mute *cache.Req) *cache.Req {
	if r == vocal {
		return mute
	}
	return vocal
}
