package reunion

import (
	"errors"
	"fmt"
	"sync"

	"reunion/internal/cache"
	"reunion/internal/ckptstore"
	"reunion/internal/coherence"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/mem"
	"reunion/internal/obs"
	"reunion/internal/sim"
	"reunion/internal/snoop"
)

// Checkpoint is a copy of a System's complete mutable state: the
// event queue (clock, pending events), scheduler counters, backing
// memory (its pages shared copy-on-write with the live image, so never
// written while the checkpoint exists), every core pipeline with its
// private caches/TLBs/predictor, the execution-model gates, the
// memory-system topology (directory L2 or snoopy bus) and the liveness
// watchdog. The interrupt-delivery chain is a pending event like any
// other; the kernel and the interrupt schedule are the system's Config,
// which never changes, so a checkpoint holds neither.
//
// A Checkpoint restores only onto the System it was taken from: pending
// events and in-flight requests point at that system's component
// objects (an event's runner, a request's L1), and Restore rewrites
// those objects' state in place so the pending work replays exactly. Restore after arbitrary further
// execution (a fault trial, a different measurement window) yields a
// machine bit-identical to the moment of Snapshot — the invariant the
// snapshot equivalence tests prove.
//
// Not captured: the pair observer hooks' *own* state (OnFaultDetected,
// OnMismatch, OnRecovery: the hook function values are restored, so
// per-run hooks installed after a snapshot are unwound).
//
// A checkpoint decoded from a blob (DecodeCheckpoint) has no owner and no
// runner on any pending event until Bind attaches it to a system.
type Checkpoint struct {
	owner *System

	// key and reqs are a decoded checkpoint's: the options fingerprint its
	// blob was encoded under, and its interned requests, whose L1s Bind
	// sets.
	key  uint64
	reqs []*cache.Req

	eq     sim.EventQueueState
	sched  sim.SchedulerState
	mem    *mem.MemoryState
	cores  []*cpu.CoreState
	pairs  []*core.PairState
	nr     []*core.NonRedundantGateState
	strict []*core.StrictGateState
	l2     *coherence.L2State
	bus    *snoop.BusState

	watchLast, watchSince int64
	watchHalted           bool
}

// Snapshot captures the complete machine state. It is read-only — a run
// that snapshots and continues is bit-identical to one that never
// snapshotted — and may be taken at any cycle, including with memory
// responses, comparison decisions, and interrupt boundaries in flight.
func (s *System) Snapshot() *Checkpoint {
	cp := &Checkpoint{
		owner: s,
		eq:    s.EQ.Snapshot(),
		sched: s.Sched.Snapshot(),
		mem:   s.Mem.Snapshot(),

		watchLast:   s.watchLast,
		watchSince:  s.watchSince,
		watchHalted: s.watchHalted,
	}
	for _, c := range s.Cores {
		cp.cores = append(cp.cores, c.Snapshot())
	}
	for _, p := range s.Pairs {
		cp.pairs = append(cp.pairs, p.Snapshot())
	}
	if len(s.Pairs) == 0 {
		for _, g := range s.gates {
			switch g := g.(type) {
			case *core.NonRedundantGate:
				cp.nr = append(cp.nr, g.Snapshot())
			case *core.StrictGate:
				cp.strict = append(cp.strict, g.Snapshot())
			}
		}
	}
	if s.L2 != nil {
		cp.l2 = s.L2.Snapshot()
	}
	if s.Bus != nil {
		cp.bus = s.Bus.Snapshot()
	}
	return cp
}

// Restore rewrites the system's state from a checkpoint taken on this
// same system, rewinding the clock, the pending-event set, and every
// component to the snapshotted cycle. A checkpoint restores any number
// of times; each restored run re-executes bit-identically. Restoring the
// checkpoint the system was last snapshotted as or restored to rewrites
// only the memory pages and cache sets used since; any other checkpoint
// rewrites them all.
func (s *System) Restore(cp *Checkpoint) {
	if cp.owner != s {
		panic("reunion: Restore with a checkpoint from a different System")
	}
	s.EQ.Restore(cp.eq)
	s.Sched.Restore(cp.sched)
	s.Mem.Restore(cp.mem)
	for i, c := range s.Cores {
		c.Restore(cp.cores[i])
	}
	for i, p := range s.Pairs {
		p.Restore(cp.pairs[i])
	}
	if len(s.Pairs) == 0 {
		ni, si := 0, 0
		for _, g := range s.gates {
			switch g := g.(type) {
			case *core.NonRedundantGate:
				g.Restore(cp.nr[ni])
				ni++
			case *core.StrictGate:
				g.Restore(cp.strict[si])
				si++
			}
		}
	}
	if s.L2 != nil {
		s.L2.Restore(cp.l2)
	}
	if s.Bus != nil {
		s.Bus.Restore(cp.bus)
	}
	s.watchLast = cp.watchLast
	s.watchSince = cp.watchSince
	s.watchHalted = cp.watchHalted
}

// WarmCache reuses checkpointed warm state across measured runs (see
// Options.Warm). Entries are keyed by the snapshot-invariant axes — every
// option that shapes the simulation from construction through the warmup
// window: mode, workload profile, seed, warm window and the whole machine
// Config (thread count, comparison latency, phantom strength, TLB
// discipline, consistency model, fingerprint interval, geometry,
// kernel, interrupts). Options that only shape the measurement phase
// (measure window, commit target, trial deadline, injection, tracing)
// are deliberately excluded: runs differing only there share one warmed
// system, restoring its checkpoint instead of re-warming from cycle 0 —
// the dominant host-time cost of a fault-injection campaign, where
// hundreds of trials share one cell's warm state.
type WarmCache struct {
	mu sync.Mutex
	m  map[string]*warmEntry

	// maxEntries bounds the resident warmed systems (each holds a full
	// machine image). At the cap, runs with new keys fall back to fresh
	// warmup without caching — results are identical either way.
	maxEntries int

	// store, when set (UseStore), backs the in-memory cache with a
	// persistent content-addressed checkpoint store: a key's first run
	// here tries a fetch+restore before warming from cycle 0, and a
	// locally-computed warmup is written back for other processes. Every
	// store-path failure — miss, I/O error, corrupt blob, format or
	// fingerprint mismatch — silently falls back to local warmup:
	// results never depend on the store, only host time does.
	store ckptstore.Store

	// obsTrace (Observe) is a pure observer: the cached systems, the
	// checkpoints, and every Result are byte-identical with or without
	// a tracer attached.
	obsTrace *obs.Tracer
}

type warmEntry struct {
	mu   sync.Mutex
	init bool
	sys  *System
	cp   *Checkpoint
}

// NewWarmCache returns an empty warm-state cache safe for concurrent use.
// The default capacity keeps a few dozen warmed machines resident — sized
// for a campaign's cell matrix; a full machine image is tens of MB.
func NewWarmCache() *WarmCache {
	return &WarmCache{m: make(map[string]*warmEntry), maxEntries: 32}
}

// warmKey fingerprints every option the warm phase depends on. It must
// include anything that changes the machine, the program, or the warmup
// execution — a missed field would let two differing configurations share
// warm state and silently diverge from their straight-through runs.
func warmKey(o Options) string {
	return fmt.Sprintf("%v|%+v|%d|%d|%+v", o.Mode, o.Workload, o.Seed, o.WarmCycles, o.Config)
}

// run serves one measured run from the cache: the first run for a key
// warms and snapshots, later runs restore. The entry stays locked through
// the measurement phase (one system, single-threaded), so two runs of one
// key never overlap while distinct keys proceed in parallel. A campaign
// dispatches trials of different cells to concurrent workers, so two
// runs queue here only when no other cell has work left; the wait shows
// as a warm/wait span.
func (w *WarmCache) run(o Options) (Result, error) {
	e := w.entry(warmKey(o))
	if e == nil {
		return measure(warmSystem(o), o) // cache full: fresh, uncached run
	}
	if !e.mu.TryLock() {
		sp := w.obsTrace.StartSpan("warm", "wait",
			obs.Arg{Key: "workload", Val: o.Workload.Name}, obs.Arg{Key: "mode", Val: o.Mode.String()})
		e.mu.Lock()
		sp.End()
	}
	defer e.mu.Unlock()
	if !e.init && w.store != nil {
		w.tryFetch(e, o)
	}
	if !e.init {
		// Mark the entry initialized only once the snapshot exists: if
		// warmup panics (e.g. the liveness watchdog), the next run for the
		// key must retry the warmup — and hit the original diagnostic —
		// rather than restore from a half-built entry.
		sp := w.obsTrace.StartSpan("warm", "warmup",
			obs.Arg{Key: "workload", Val: o.Workload.Name}, obs.Arg{Key: "mode", Val: o.Mode.String()})
		e.sys = warmSystem(o)
		e.cp = e.sys.Snapshot()
		e.init = true
		sp.End()
		if w.store != nil {
			w.storePut(e.cp, CheckpointKey(o))
		}
	} else {
		sp := w.obsTrace.StartSpan("warm", "restore",
			obs.Arg{Key: "workload", Val: o.Workload.Name}, obs.Arg{Key: "mode", Val: o.Mode.String()})
		e.sys.Restore(e.cp)
		sp.End()
	}
	return measure(e.sys, o)
}

// storePut encodes a fresh warmup's checkpoint and writes it back to
// the store under a warm/store_put span; the store/put span inside it
// times the write alone. A failed encode or write only costs other
// processes their reuse.
func (w *WarmCache) storePut(cp *Checkpoint, key uint64) {
	sp := w.obsTrace.StartSpan("warm", "store_put", obs.Arg{Key: "key", Val: ckptstore.KeyName(key)})
	defer sp.End()
	blob, err := EncodeCheckpoint(cp, key)
	if err != nil {
		return
	}
	put := w.obsTrace.StartSpan("store", "put",
		obs.Arg{Key: "key", Val: ckptstore.KeyName(key)}, obs.Arg{Key: "bytes", Val: len(blob)})
	err = w.store.Put(key, blob)
	put.End(obs.Arg{Key: "err", Val: err != nil})
}

// Observe attaches a tracer to the cache: spans for warmups, restores,
// waits for a busy entry, store fetches and write-backs, and the
// store/get and store/put operations inside them. Call before the
// first run.
func (w *WarmCache) Observe(tr *obs.Tracer) { w.obsTrace = tr }

// UseStore backs the cache with a persistent checkpoint store (a local
// or shared directory). Call before the first run.
func (w *WarmCache) UseStore(s ckptstore.Store) { w.store = s }

// tryFetch attempts to initialize a warm entry from the persistent
// store: fetch, decode, bind onto a freshly built cold system, restore.
// Every failure leaves the entry uninitialized — the caller warms
// locally, exactly as if the store did not exist. The decoder's
// checksum and structural validation plus Bind's key and geometry
// checks stand between a hostile or stale blob and a restore; a blob
// encoded under a different format version or options fingerprint is a
// recompute, never an error.
func (w *WarmCache) tryFetch(e *warmEntry, o Options) {
	key := CheckpointKey(o)
	sp := w.obsTrace.StartSpan("warm", "store_fetch", obs.Arg{Key: "key", Val: ckptstore.KeyName(key)})
	get := w.obsTrace.StartSpan("store", "get", obs.Arg{Key: "key", Val: ckptstore.KeyName(key)})
	blob, err := w.store.Get(key)
	outcome := "hit"
	switch {
	case errors.Is(err, ckptstore.ErrNotFound):
		outcome = "miss"
	case err != nil:
		outcome = "error"
	}
	get.End(obs.Arg{Key: "outcome", Val: outcome}, obs.Arg{Key: "bytes", Val: len(blob)})
	if err != nil {
		sp.End(obs.Arg{Key: "outcome", Val: outcome})
		return
	}
	d, err := DecodeCheckpoint(blob)
	if err != nil {
		sp.End(obs.Arg{Key: "outcome", Val: "poisoned"})
		return
	}
	sys := buildSystem(o)
	cp, err := d.Bind(sys, key)
	if err != nil {
		sp.End(obs.Arg{Key: "outcome", Val: "poisoned"})
		return
	}
	sys.Restore(cp)
	e.sys, e.cp, e.init = sys, cp, true
	sp.End(obs.Arg{Key: "outcome", Val: "hit"})
}

// Len returns the number of warm keys the cache holds (entries are
// created on a key's first run). A sharded campaign's per-worker cache
// holds only the keys of that shard's own cells — the warm-locality
// property the distributed-execution tests assert.
func (w *WarmCache) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.m)
}

// entry returns the (possibly new) entry for a key, or nil when the cache
// is at capacity and the key is new.
func (w *WarmCache) entry(key string) *warmEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.m[key]
	if !ok {
		if len(w.m) >= w.maxEntries {
			return nil
		}
		e = &warmEntry{}
		w.m[key] = e
	}
	return e
}
