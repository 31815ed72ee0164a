package reunion

import (
	"errors"
	"fmt"
	"hash/crc64"

	"reunion/internal/bin"
	"reunion/internal/cache"
	"reunion/internal/coherence"
	"reunion/internal/core"
	"reunion/internal/cpu"
	"reunion/internal/dist"
	"reunion/internal/mem"
	"reunion/internal/sim"
	"reunion/internal/snoop"
)

// Binary checkpoint serialization: EncodeCheckpoint writes a Checkpoint
// to a self-describing byte blob and DecodeCheckpoint + Bind rebuild one
// onto a freshly constructed System, so warm state crosses process (and
// machine) boundaries — the persistent checkpoint store's substrate.
//
// Format:
//
//	magic "RNCK" | u16 version | u64 options key | payload | u64 CRC-64
//
// The options key is the snapshot-invariant fingerprint of the Options
// that built the system (same hashing discipline as the dist journal
// header); Bind refuses a blob whose key disagrees with the target
// system's options, which is how a store can never hand warm state to a
// configuration it does not match. The CRC-64 (ECMA, as in dist.Journal)
// seals everything before it; DecodeCheckpoint refuses a blob whose
// checksum disagrees. Beyond the checksum, every decoder validates
// structure — enum ranges, index bounds, sorted-map order — so even a
// blob with a forged checksum cannot produce a restorable Checkpoint.
//
// Deferred work is plain data, so the blob holds it as it is: every
// pending event is a descriptor (sim.Event.Desc), every MSHR waiter a
// completion descriptor (cache.CB), and every in-flight request is
// interned into a table so pointer identity — which processSync compares
// — survives the round trip. Bind validates each descriptor against the
// live system and attaches its owner: the pair, L2, bus or system runs an
// event, the core a waiter, the L1 a request. It then validates component
// geometry before handing back a Checkpoint that System.Restore accepts
// exactly like a live snapshot.

// ckptMagic identifies a Reunion checkpoint blob.
const ckptMagic = "RNCK"

// ckptFormatVersion is bumped on any change to the encoding. Decoders
// read exactly one version; the golden-format tests pin the byte layout
// so an accidental change fails loudly instead of corrupting stores.
// Version 2: the issue-stage memo stamps (Core.execStamp and the
// per-entry pollStamp) changed dynamics when the memo narrowed from
// any-progress to readiness-affecting changes; encoded values differ
// even though the byte layout is unchanged.
// Version 3: the per-entry pollStamp left the wire — the issue stage's
// park memos became fully derived state (per-producer wait pairs
// reconstructed from the unready flags), so ROB entries no longer carry
// a memo field.
const ckptFormatVersion uint16 = 3

// ckptCRCTable is the CRC-64 (ECMA) table sealing checkpoint blobs,
// matching the dist journal's footer discipline.
var ckptCRCTable = crc64.MakeTable(crc64.ECMA)

// ckptHeaderBytes is magic + version + options key.
const ckptHeaderBytes = 4 + 2 + 8

// ckptCoreSlack covers one core's encoding beyond its L1 array lines —
// window, store buffer, TLBs, predictor — at the default geometry (about
// 88 KB, most of it the 256-entry ROB); ckptSlack covers the header,
// request table, events, gates, bank queues and counters. A larger
// geometry costs EncodeCheckpoint one more growth of its buffer.
const (
	ckptCoreSlack = 96 << 10
	ckptSlack     = 64 << 10
)

// ckptSizeHint is the buffer EncodeCheckpoint sizes once: exact for the
// bulk of a blob (memory pages, cache array lines, directory entries)
// plus slack for the rest.
func ckptSizeHint(cp *Checkpoint) int {
	n := ckptSlack + cp.mem.WireBytes()
	for _, cs := range cp.cores {
		n += ckptCoreSlack + cs.WireBytes()
	}
	if cp.l2 != nil {
		n += cp.l2.WireBytes()
	}
	return n
}

// CheckpointKey fingerprints the snapshot-invariant options — everything
// warmKey covers, including the kernel and any config override — into
// the content-address a checkpoint store files the blob under.
func CheckpointKey(o Options) uint64 {
	return dist.Fingerprint("reunion-ckpt", warmKey(o.withDefaults()))
}

// event descriptor type tags (wire values; append only).
const (
	tagEvDecide uint8 = iota + 1
	tagCohXbar
	tagCohReply
	tagCohMemCont
	tagCohPhantomMem
	tagSnoopReply
	tagSnoopMemFetch
	tagSnoopPhantomMem
	tagSnoopSyncMem
	tagInterrupt
)

// visitDescReqs calls fn for every request a descriptor references, in
// field order.
func visitDescReqs(desc any, fn func(*cache.Req)) {
	switch d := desc.(type) {
	case *coherence.EvXbar:
		fn(d.R)
	case *coherence.EvReply:
		fn(d.R)
	case *coherence.EvMemCont:
		fn(d.R)
		if d.Cont == coherence.ContSync {
			fn(d.Vocal)
			fn(d.Mute)
		}
	case *coherence.EvPhantomMem:
		fn(d.R)
	case *snoop.EvReply:
		fn(d.R)
	case *snoop.EvMemFetch:
		fn(d.R)
	case *snoop.EvPhantomMem:
		fn(d.R)
	case *snoop.EvSyncMem:
		fn(d.V)
		fn(d.M)
	}
}

// EncodeCheckpoint serializes a checkpoint into a store-ready blob keyed
// by the options fingerprint. It fails on a pending event whose
// descriptor has no wire form (an armed fault shot: trial-time events do
// not cross process boundaries by design).
func EncodeCheckpoint(cp *Checkpoint, key uint64) ([]byte, error) {
	w := &bin.Writer{}
	w.Grow(ckptSizeHint(cp))
	w.Raw([]byte(ckptMagic))
	w.U16(ckptFormatVersion)
	w.U64(key)

	// Intern every request reachable from event descriptors and the
	// memory-system snapshot, in deterministic visit order.
	reqIdx := make(map[*cache.Req]int)
	var reqs []*cache.Req
	intern := func(r *cache.Req) {
		if _, ok := reqIdx[r]; !ok {
			reqIdx[r] = len(reqs)
			reqs = append(reqs, r)
		}
	}
	events := cp.eq.Events()
	for _, ev := range events {
		visitDescReqs(ev.Desc, intern)
	}
	if cp.l2 != nil {
		cp.l2.VisitReqs(intern)
	}
	if cp.bus != nil {
		cp.bus.VisitReqs(intern)
	}
	reqID := func(r *cache.Req) int { return reqIdx[r] }

	w.Uvarint(uint64(len(reqs)))
	for _, r := range reqs {
		r.EncodeBody(w)
	}

	now, order := cp.eq.Clock()
	w.I64(now)
	w.I64(order)
	w.Uvarint(uint64(len(events)))
	for _, ev := range events {
		w.I64(ev.At)
		w.I64(ev.Order)
		switch d := ev.Desc.(type) {
		case *core.EvDecide:
			w.U8(tagEvDecide)
			d.Encode(w)
		case *coherence.EvXbar:
			w.U8(tagCohXbar)
			d.Encode(w, reqID)
		case *coherence.EvReply:
			w.U8(tagCohReply)
			d.Encode(w, reqID)
		case *coherence.EvMemCont:
			w.U8(tagCohMemCont)
			d.Encode(w, reqID)
		case *coherence.EvPhantomMem:
			w.U8(tagCohPhantomMem)
			d.Encode(w, reqID)
		case *snoop.EvReply:
			w.U8(tagSnoopReply)
			d.Encode(w, reqID)
		case *snoop.EvMemFetch:
			w.U8(tagSnoopMemFetch)
			d.Encode(w, reqID)
		case *snoop.EvPhantomMem:
			w.U8(tagSnoopPhantomMem)
			d.Encode(w, reqID)
		case *snoop.EvSyncMem:
			w.U8(tagSnoopSyncMem)
			d.Encode(w, reqID)
		case *evInterrupt:
			w.U8(tagInterrupt)
			w.I64(d.gen)
			w.I64(d.every)
		default:
			return nil, fmt.Errorf("reunion: pending event has unknown descriptor type %T", ev.Desc)
		}
	}

	steps, ffs, skipped := cp.sched.Counters()
	w.I64(steps)
	w.I64(ffs)
	w.I64(skipped)

	cp.mem.Encode(w)

	w.Uvarint(uint64(len(cp.cores)))
	for _, cs := range cp.cores {
		cs.Encode(w)
	}
	w.Uvarint(uint64(len(cp.pairs)))
	for _, ps := range cp.pairs {
		ps.Encode(w)
	}
	w.Uvarint(uint64(len(cp.nr)))
	for _, gs := range cp.nr {
		gs.Encode(w)
	}
	w.Uvarint(uint64(len(cp.strict)))
	for _, gs := range cp.strict {
		gs.Encode(w)
	}
	w.Bool(cp.l2 != nil)
	if cp.l2 != nil {
		cp.l2.Encode(w, reqID)
	}
	w.Bool(cp.bus != nil)
	if cp.bus != nil {
		cp.bus.Encode(w, reqID)
	}

	w.U8(uint8(cp.kernel))
	w.U8(uint8(cp.appliedKernel))
	w.Bool(cp.kernelApplied)
	w.I64(cp.interruptEvery)
	w.I64(cp.interruptCost)
	w.I64(cp.intArmed)
	w.I64(cp.intGen)
	w.I64(cp.watchLast)
	w.I64(cp.watchSince)
	w.Bool(cp.watchHalted)

	w.U64(crc64.Checksum(w.Bytes(), ckptCRCTable))
	return w.Bytes(), nil
}

// decodedEvent is one pending event's plain-data form: schedule position
// plus descriptor; Bind attaches the descriptor's owner as its runner.
type decodedEvent struct {
	at, order int64
	desc      any
}

// DecodedCheckpoint is a checkpoint parsed from bytes but not yet bound
// to a System: pure data, no component pointers. Bind
// validates it against a live system and produces a restorable
// Checkpoint. Keeping decode and bind separate makes decoding cheap and
// total (the fuzz target's property) and lets golden tests deep-compare
// decoded state without a machine.
type DecodedCheckpoint struct {
	// Key is the options fingerprint the blob was encoded under.
	Key uint64

	reqs   []*cache.Req
	now    int64
	order  int64
	events []decodedEvent

	steps, ffs, skipped int64

	mem    *mem.MemoryState
	cores  []*cpu.CoreState
	pairs  []*core.PairState
	nr     []*core.NonRedundantGateState
	strict []*core.StrictGateState
	l2     *coherence.L2State
	bus    *snoop.BusState

	kernel, appliedKernel Kernel
	kernelApplied         bool

	interruptEvery, interruptCost int64
	intArmed, intGen              int64

	watchLast, watchSince int64
	watchHalted           bool
}

// DecodeCheckpoint parses a checkpoint blob: header, checksum, then every
// component snapshot with full structural validation. It never panics on
// arbitrary input and never returns a DecodedCheckpoint alongside an
// error.
func DecodeCheckpoint(data []byte) (*DecodedCheckpoint, error) {
	if len(data) < ckptHeaderBytes+8 {
		return nil, errors.New("reunion: checkpoint blob truncated before header")
	}
	if string(data[:4]) != ckptMagic {
		return nil, errors.New("reunion: not a checkpoint blob (bad magic)")
	}
	hr := bin.NewReader(data[4:ckptHeaderBytes])
	version := hr.U16()
	key := hr.U64()
	if version != ckptFormatVersion {
		return nil, fmt.Errorf("reunion: checkpoint format version %d; this build reads version %d",
			version, ckptFormatVersion)
	}
	payload, footer := data[:len(data)-8], data[len(data)-8:]
	want := bin.NewReader(footer).U64()
	if got := crc64.Checksum(payload, ckptCRCTable); got != want {
		return nil, fmt.Errorf("reunion: checkpoint checksum mismatch (blob %016x, computed %016x)", want, got)
	}

	r := bin.NewReader(payload[ckptHeaderBytes:])
	d := &DecodedCheckpoint{Key: key}

	nreq := r.Len(1 + 8 + 1 + 1 + 1 + 8 + 1)
	d.reqs = make([]*cache.Req, 0, nreq)
	for i := 0; i < nreq; i++ {
		rq := cache.DecodeReqBody(r)
		if rq == nil {
			return nil, fmt.Errorf("reunion: checkpoint request table: %w", r.Err())
		}
		d.reqs = append(d.reqs, rq)
	}
	req := func(i int) *cache.Req {
		if i < 0 || i >= len(d.reqs) {
			return nil
		}
		return d.reqs[i]
	}

	d.now = r.I64()
	d.order = r.I64()
	nev := r.Len(8 + 8 + 1 + 1)
	d.events = make([]decodedEvent, 0, nev)
	for i := 0; i < nev; i++ {
		ev := decodedEvent{at: r.I64(), order: r.I64()}
		tag := r.U8()
		if r.Err() != nil {
			return nil, fmt.Errorf("reunion: checkpoint events: %w", r.Err())
		}
		switch tag {
		case tagEvDecide:
			ev.desc = core.DecodeEvDecide(r)
		case tagCohXbar:
			ev.desc = coherence.DecodeEvXbar(r, req)
		case tagCohReply:
			ev.desc = coherence.DecodeEvReply(r, req)
		case tagCohMemCont:
			ev.desc = coherence.DecodeEvMemCont(r, req)
		case tagCohPhantomMem:
			ev.desc = coherence.DecodeEvPhantomMem(r, req)
		case tagSnoopReply:
			ev.desc = snoop.DecodeEvReply(r, req)
		case tagSnoopMemFetch:
			ev.desc = snoop.DecodeEvMemFetch(r, req)
		case tagSnoopPhantomMem:
			ev.desc = snoop.DecodeEvPhantomMem(r, req)
		case tagSnoopSyncMem:
			ev.desc = snoop.DecodeEvSyncMem(r, req)
		case tagInterrupt:
			ev.desc = &evInterrupt{gen: r.I64(), every: r.I64()}
		default:
			return nil, fmt.Errorf("reunion: checkpoint event %d has unknown descriptor tag %d", i, tag)
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("reunion: checkpoint event %d: %w", i, r.Err())
		}
		d.events = append(d.events, ev)
	}

	d.steps = r.I64()
	d.ffs = r.I64()
	d.skipped = r.I64()

	if d.mem = mem.DecodeMemoryState(r); d.mem == nil {
		return nil, fmt.Errorf("reunion: checkpoint memory: %w", r.Err())
	}

	ncores := r.Len(64)
	d.cores = make([]*cpu.CoreState, 0, ncores)
	for i := 0; i < ncores; i++ {
		cs := cpu.DecodeCoreState(r)
		if cs == nil {
			return nil, fmt.Errorf("reunion: checkpoint core %d: %w", i, r.Err())
		}
		d.cores = append(d.cores, cs)
	}
	npairs := r.Len(32)
	for i := 0; i < npairs; i++ {
		ps := core.DecodePairState(r)
		if ps == nil {
			return nil, fmt.Errorf("reunion: checkpoint pair %d: %w", i, r.Err())
		}
		d.pairs = append(d.pairs, ps)
	}
	nnr := r.Len(8)
	for i := 0; i < nnr; i++ {
		gs := core.DecodeNonRedundantGateState(r)
		if gs == nil {
			return nil, fmt.Errorf("reunion: checkpoint gate %d: %w", i, r.Err())
		}
		d.nr = append(d.nr, gs)
	}
	nstrict := r.Len(8)
	for i := 0; i < nstrict; i++ {
		gs := core.DecodeStrictGateState(r)
		if gs == nil {
			return nil, fmt.Errorf("reunion: checkpoint gate %d: %w", i, r.Err())
		}
		d.strict = append(d.strict, gs)
	}
	if r.Bool() {
		if d.l2 = coherence.DecodeL2State(r, req); d.l2 == nil {
			return nil, fmt.Errorf("reunion: checkpoint L2: %w", r.Err())
		}
	}
	if r.Bool() {
		if d.bus = snoop.DecodeBusState(r, req); d.bus == nil {
			return nil, fmt.Errorf("reunion: checkpoint bus: %w", r.Err())
		}
	}

	d.kernel = Kernel(r.U8())
	d.appliedKernel = Kernel(r.U8())
	if r.Err() == nil && (d.kernel > KernelNaive || d.appliedKernel > KernelNaive) {
		return nil, errors.New("reunion: checkpoint names an unknown kernel")
	}
	d.kernelApplied = r.Bool()
	d.interruptEvery = r.I64()
	d.interruptCost = r.I64()
	d.intArmed = r.I64()
	d.intGen = r.I64()
	d.watchLast = r.I64()
	d.watchSince = r.I64()
	d.watchHalted = r.Bool()

	if r.Err() != nil {
		return nil, fmt.Errorf("reunion: checkpoint trailer: %w", r.Err())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("reunion: checkpoint has %d trailing bytes", r.Remaining())
	}
	return d, nil
}

// checkCB validates a decoded MSHR waiter descriptor against the live
// system before anything can fire: every index in range, and the
// descriptor owned by the core whose L1 holds it (the L1 completes its
// waiters into that core, and a CBSyncWrap goes through that core's pair).
func (s *System) checkCB(cb *cache.CB, owner *cpu.Core, depth int) error {
	if depth > 1 {
		return errors.New("reunion: checkpoint callback descriptor nested too deeply")
	}
	if cb.Core < 0 || cb.Core >= len(s.Cores) {
		return fmt.Errorf("reunion: checkpoint callback core %d out of range [0,%d)", cb.Core, len(s.Cores))
	}
	switch cb.Kind {
	case cache.CBIfetchDone, cache.CBStoreDone:
	case cache.CBLoadDone, cache.CBAtomicBegin, cache.CBAtomicFin:
		if cb.Idx < 0 || cb.Idx >= owner.ROBLen() {
			return fmt.Errorf("reunion: checkpoint callback ROB slot %d out of range [0,%d)", cb.Idx, owner.ROBLen())
		}
		if cb.Word < 0 || cb.Word >= mem.BlockWords {
			return fmt.Errorf("reunion: checkpoint callback word %d out of range", cb.Word)
		}
	case cache.CBSyncWrap:
		if cb.Pair < 0 || cb.Pair >= len(s.Pairs) {
			return fmt.Errorf("reunion: checkpoint callback pair %d out of range [0,%d)", cb.Pair, len(s.Pairs))
		}
		if cb.Pair != owner.Pair {
			return fmt.Errorf("reunion: checkpoint callback for pair %d held by core %d of pair %d", cb.Pair, owner.ID, owner.Pair)
		}
		if cb.Inner == nil {
			return errors.New("reunion: checkpoint sync-wrap callback has no inner callback")
		}
		if cb.Inner.Kind == cache.CBStoreDone {
			return errors.New("reunion: checkpoint sync-wrap callback wraps a store callback")
		}
		return s.checkCB(cb.Inner, owner, depth+1)
	default:
		return fmt.Errorf("reunion: checkpoint callback has unknown kind %d", cb.Kind)
	}
	if cb.Core != owner.ID {
		return fmt.Errorf("reunion: checkpoint callback for core %d held by core %d", cb.Core, owner.ID)
	}
	return nil
}

// Bind validates a decoded checkpoint against a live system, attaches
// every descriptor's owner (the L1 a request fills, the component that
// runs an event), and returns a Checkpoint restorable onto that system.
// key is the fingerprint of the options that built sys; a mismatch —
// different geometry, workload, seed, or anything else the warm key
// covers — is an error, never a silent cross-restore.
func (d *DecodedCheckpoint) Bind(sys *System, key uint64) (*Checkpoint, error) {
	if d.Key != key {
		return nil, fmt.Errorf("reunion: checkpoint keyed %016x, system options key %016x", d.Key, key)
	}
	if len(d.cores) != len(sys.Cores) {
		return nil, fmt.Errorf("reunion: checkpoint has %d cores, system has %d", len(d.cores), len(sys.Cores))
	}
	if len(d.pairs) != len(sys.Pairs) {
		return nil, fmt.Errorf("reunion: checkpoint has %d pairs, system has %d", len(d.pairs), len(sys.Pairs))
	}
	if (d.l2 != nil) != (sys.L2 != nil) || (d.bus != nil) != (sys.Bus != nil) {
		return nil, errors.New("reunion: checkpoint topology does not match system")
	}
	var liveNR []*core.NonRedundantGate
	var liveStrict []*core.StrictGate
	if len(sys.Pairs) == 0 {
		for _, g := range sys.gates {
			switch g := g.(type) {
			case *core.NonRedundantGate:
				liveNR = append(liveNR, g)
			case *core.StrictGate:
				liveStrict = append(liveStrict, g)
			}
		}
	}
	if len(d.nr) != len(liveNR) || len(d.strict) != len(liveStrict) {
		return nil, errors.New("reunion: checkpoint gate roster does not match system")
	}

	// Rebind each request to the cache its reply fills: fills resolve their
	// L1 MSHR by block at fire time, so (Kind, Core) names the cache.
	for i, rq := range d.reqs {
		if rq.Core < 0 || rq.Core >= len(sys.Cores) {
			return nil, fmt.Errorf("reunion: checkpoint request %d core %d out of range [0,%d)", i, rq.Core, len(sys.Cores))
		}
		if rq.Pair < 0 || rq.Pair >= len(sys.Cores) {
			return nil, fmt.Errorf("reunion: checkpoint request %d pair %d out of range", i, rq.Pair)
		}
		switch rq.Kind {
		case cache.Writeback:
			rq.L1 = nil
		case cache.Ifetch:
			rq.L1 = sys.Cores[rq.Core].L1I
		default:
			rq.L1 = sys.Cores[rq.Core].L1D
		}
	}

	for i, cs := range d.cores {
		if err := cs.BindTo(sys.Cores[i]); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint core %d: %w", i, err)
		}
		owner := sys.Cores[i]
		if err := cs.VisitWaiters(func(cb *cache.CB) error { return sys.checkCB(cb, owner, 0) }); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint core %d: %w", i, err)
		}
	}
	for i, ps := range d.pairs {
		if err := ps.BindTo(sys.Pairs[i]); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint pair %d: %w", i, err)
		}
	}
	for i, gs := range d.nr {
		gs.BindTo(liveNR[i])
	}
	for i, gs := range d.strict {
		gs.BindTo(liveStrict[i])
	}
	if d.l2 != nil {
		if err := d.l2.BindTo(sys.L2); err != nil {
			return nil, err
		}
	}
	if d.bus != nil {
		if err := d.bus.BindTo(sys.Bus); err != nil {
			return nil, err
		}
	}

	events := make([]*sim.Event, 0, len(d.events))
	for i, de := range d.events {
		var run sim.EventRunner
		switch desc := de.desc.(type) {
		case *core.EvDecide:
			if desc.PairID < 0 || desc.PairID >= len(sys.Pairs) {
				return nil, fmt.Errorf("reunion: checkpoint event %d pair %d out of range [0,%d)", i, desc.PairID, len(sys.Pairs))
			}
			run = sys.Pairs[desc.PairID]
		case *coherence.EvXbar, *coherence.EvReply, *coherence.EvMemCont, *coherence.EvPhantomMem:
			if sys.L2 == nil {
				return nil, fmt.Errorf("reunion: checkpoint event %d targets the directory L2 on a snoopy system", i)
			}
			run = sys.L2
		case *snoop.EvReply, *snoop.EvMemFetch, *snoop.EvPhantomMem, *snoop.EvSyncMem:
			if sys.Bus == nil {
				return nil, fmt.Errorf("reunion: checkpoint event %d targets the snoopy bus on a directory system", i)
			}
			run = sys.Bus
		case *evInterrupt:
			run = sys
		default:
			return nil, fmt.Errorf("reunion: checkpoint event %d has unknown descriptor type %T", i, de.desc)
		}
		events = append(events, &sim.Event{At: de.at, Order: de.order, Desc: de.desc, Run: run})
	}

	cp := &Checkpoint{
		owner: sys,
		eq:    sim.NewEventQueueState(d.now, d.order, events),
		sched: sim.NewSchedulerState(d.steps, d.ffs, d.skipped),
		mem:   d.mem,

		cores:  d.cores,
		pairs:  d.pairs,
		nr:     d.nr,
		strict: d.strict,
		l2:     d.l2,
		bus:    d.bus,

		kernel:        d.kernel,
		appliedKernel: d.appliedKernel,
		kernelApplied: d.kernelApplied,

		interruptEvery: d.interruptEvery,
		interruptCost:  d.interruptCost,
		intArmed:       d.intArmed,
		intGen:         d.intGen,

		watchLast:   d.watchLast,
		watchSince:  d.watchSince,
		watchHalted: d.watchHalted,
	}
	return cp, nil
}
