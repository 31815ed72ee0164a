package reunion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"reflect"

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
// to a self-describing byte blob, and DecodeCheckpoint + Bind rebuild one
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
// checksum disagrees. Beyond the checksum, every walk validates what it
// reads — enum ranges, index bounds, sorted-map order — so even a blob
// with a forged checksum cannot produce a restorable Checkpoint.
//
// The payload is one walk (Checkpoint.walk, and each component's Walk
// below it) that writes or reads through a bin.Codec, so the layout is
// written down once. Deferred work is plain data, so the blob holds it
// as it is: every pending event is a descriptor (sim.Event.Desc), every
// MSHR waiter a completion descriptor (cache.CB), and every in-flight
// request is interned into a cache.ReqTable so pointer identity — which
// processSync compares — survives the round trip. A decoded Checkpoint is
// unbound: no owner, and no runner on any event. Bind validates each
// descriptor against the live system and attaches its owner: the pair,
// L2, bus or system runs an event, the core a waiter, the L1 a request.
// It then validates component geometry before handing back a Checkpoint
// that System.Restore accepts exactly like a live snapshot.

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
// Version 4: a blob holds only what its key cannot rebuild. Memory is a
// delta on the system's init image, and a cache line's data is written
// only when it differs from memory's block (a flag says which). The
// snoopy bus's phantom reads share the directory's EvPhantomMem tag, and
// a sent interval lost its always-empty debug string.
// Version 5: the kernel and the interrupt schedule are Config, fixed
// when the system is built and covered by the key, so the system's
// kernel, interrupt and re-arm fields and each core's polling flag left
// the wire, and an interrupt chain link carries no fields. The key
// renders the whole Config.
const ckptFormatVersion uint16 = 5

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
// bulk of a blob (memory delta pages, cache array lines, directory
// entries) plus slack for the rest.
func ckptSizeHint(cp *Checkpoint) int {
	n := ckptSlack + cp.mem.WireBytes(cp.owner.initMem)
	for _, cs := range cp.cores {
		n += ckptCoreSlack + cs.WireBytes(cp.mem)
	}
	if cp.l2 != nil {
		n += cp.l2.WireBytes(cp.mem)
	}
	return n
}

// CheckpointKey fingerprints the snapshot-invariant options — everything
// warmKey covers, the whole Config included — into the content-address a
// checkpoint store files the blob under.
func CheckpointKey(o Options) uint64 {
	return dist.Fingerprint("reunion-ckpt", warmKey(o))
}

// ckptDesc is a pending event's descriptor as the wire sees it: a walk
// over its fields, with the checkpoint's request table for the requests
// it references.
type ckptDesc interface {
	Walk(c *bin.Codec, rt *cache.ReqTable)
}

// newDesc makes an empty descriptor of type *T for a reader to fill.
func newDesc[T any, P interface {
	*T
	ckptDesc
}]() ckptDesc {
	return P(new(T))
}

// ckptDescs is the descriptor table: an event's wire tag is its
// descriptor type's index here plus one, so within a format version the
// table is append only. Both topologies schedule coherence.EvPhantomMem.
// The two EvReply types stay apart because their fields differ: the
// directory's reply tracks a fill (Track), the bus's releases one
// (Release).
var ckptDescs = []func() ckptDesc{
	newDesc[core.EvDecide],
	newDesc[coherence.EvXbar],
	newDesc[coherence.EvReply],
	newDesc[coherence.EvMemCont],
	newDesc[coherence.EvPhantomMem],
	newDesc[snoop.EvReply],
	newDesc[snoop.EvMemFetch],
	newDesc[snoop.EvSyncMem],
	newDesc[evInterrupt],
}

// ckptTags maps each descriptor type in ckptDescs to its wire tag.
var ckptTags = func() map[reflect.Type]uint8 {
	tags := make(map[reflect.Type]uint8, len(ckptDescs))
	for i, desc := range ckptDescs {
		tags[reflect.TypeOf(desc())] = uint8(i + 1)
	}
	return tags
}()

// Walk walks the interrupt chain's descriptor, which has no fields: the
// interval is the system's Config.
func (*evInterrupt) Walk(*bin.Codec, *cache.ReqTable) {}

// EncodeCheckpoint serializes a checkpoint into a store-ready blob keyed
// by the options fingerprint. The checkpoint must belong to a system (a
// snapshot, or a decoded checkpoint once bound): its memory is written
// against that system's init image. It fails on a pending event whose
// descriptor has no wire form (an armed fault shot: trial-time events do
// not cross process boundaries by design).
func EncodeCheckpoint(cp *Checkpoint, key uint64) ([]byte, error) {
	if cp.owner == nil {
		return nil, errors.New("reunion: checkpoint: encoding an unbound checkpoint")
	}
	buf := append(make([]byte, 0, ckptSizeHint(cp)), ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ckptFormatVersion)
	c := bin.NewWriter(binary.LittleEndian.AppendUint64(buf, key))
	cp.walk(c)
	if c.Err() != nil {
		return nil, fmt.Errorf("reunion: checkpoint: %w", c.Err())
	}
	return binary.LittleEndian.AppendUint64(c.Bytes(), crc64.Checksum(c.Bytes(), ckptCRCTable)), nil
}

// DecodeCheckpoint parses a checkpoint blob: header, checksum, then every
// component snapshot with full structural validation. It never panics on
// arbitrary input and never returns a Checkpoint alongside an error. The
// Checkpoint is unbound: only Bind makes it restorable.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < ckptHeaderBytes+8 {
		return nil, errors.New("reunion: checkpoint blob truncated before header")
	}
	if string(data[:4]) != ckptMagic {
		return nil, errors.New("reunion: not a checkpoint blob (bad magic)")
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != ckptFormatVersion {
		return nil, fmt.Errorf("reunion: checkpoint format version %d; this build reads version %d",
			version, ckptFormatVersion)
	}
	payload := data[:len(data)-8]
	want := binary.LittleEndian.Uint64(data[len(payload):])
	if got := crc64.Checksum(payload, ckptCRCTable); got != want {
		return nil, fmt.Errorf("reunion: checkpoint checksum mismatch (blob %016x, computed %016x)", want, got)
	}
	cp := &Checkpoint{key: binary.LittleEndian.Uint64(data[6:])}
	c := bin.NewReader(payload[ckptHeaderBytes:])
	cp.walk(c)
	if c.Err() != nil {
		return nil, fmt.Errorf("reunion: checkpoint: %w", c.Err())
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("reunion: checkpoint has %d trailing bytes", c.Remaining())
	}
	return cp, nil
}

// walk walks the payload in its fixed order: request table, clock,
// pending events as tagged descriptors, scheduler counters, memory image
// (as a delta on the owner's init image), cores, pairs, gates, the L2
// and the bus each behind a presence flag, then the liveness watchdog.
// Cache lines are written against the checkpoint's memory image. A
// reader fills an unbound checkpoint.
func (cp *Checkpoint) walk(c *bin.Codec) {
	rt := &cache.ReqTable{}
	if !c.Reading() {
		// Fill the table in the order the walk references requests: the
		// descriptors (walked into a scratch writer, which adds what
		// they reference), then the L2's or bus's queues and parked slots.
		scratch := bin.NewWriter(nil)
		for _, ev := range cp.eq.Events() {
			if desc, ok := ev.Desc.(ckptDesc); ok {
				desc.Walk(scratch, rt)
			}
		}
		if cp.l2 != nil {
			cp.l2.VisitReqs(rt.Add)
		}
		if cp.bus != nil {
			cp.bus.VisitReqs(rt.Add)
		}
	}
	nreqs := len(rt.Reqs())
	rt.Walk(c)

	now, order := cp.eq.Clock()
	events := cp.eq.Events()
	c.I64(&now)
	c.I64(&order)
	bin.Slice(c, &events, 8+8+1+1, func(evp **sim.Event) {
		if c.Reading() {
			*evp = new(sim.Event)
		}
		ev := *evp
		c.I64(&ev.At)
		c.I64(&ev.Order)
		tag := ckptTags[reflect.TypeOf(ev.Desc)]
		if !c.Reading() && tag == 0 {
			c.Fail(fmt.Errorf("pending event has unknown descriptor type %T", ev.Desc))
			return
		}
		if c.U8(&tag); c.Reading() {
			if tag == 0 || int(tag) > len(ckptDescs) {
				c.Fail(fmt.Errorf("event has unknown descriptor tag %d", tag))
				return
			}
			ev.Desc = ckptDescs[tag-1]()
		}
		ev.Desc.(ckptDesc).Walk(c, rt)
	})
	steps, ffs, skipped := cp.sched.Counters()
	c.I64(&steps)
	c.I64(&ffs)
	c.I64(&skipped)
	if c.Reading() {
		cp.reqs = rt.Reqs()
		cp.eq = sim.NewEventQueueState(now, order, events)
		cp.sched = sim.NewSchedulerState(steps, ffs, skipped)
		cp.mem = new(mem.MemoryState)
	}

	var init *mem.MemoryState
	if !c.Reading() {
		init = cp.owner.initMem
	}
	cp.mem.Walk(c, init)
	bin.Slice(c, &cp.cores, 64, func(p **cpu.CoreState) {
		if c.Reading() {
			*p = new(cpu.CoreState)
		}
		(*p).Walk(c, cp.mem)
	})
	walkStates(c, &cp.pairs, 32)
	walkStates(c, &cp.nr, 8)
	walkStates(c, &cp.strict, 8)
	hasL2, hasBus := cp.l2 != nil, cp.bus != nil
	if c.Bool(&hasL2); hasL2 {
		if c.Reading() {
			cp.l2 = new(coherence.L2State)
		}
		cp.l2.Walk(c, rt, cp.mem)
	}
	if c.Bool(&hasBus); hasBus {
		if c.Reading() {
			cp.bus = new(snoop.BusState)
		}
		cp.bus.Walk(c, rt)
	}

	c.I64(&cp.watchLast)
	c.I64(&cp.watchSince)
	c.Bool(&cp.watchHalted)
	if !c.Reading() && len(rt.Reqs()) != nreqs {
		c.Fail(errors.New("references a request missing from its request table"))
	}
}

// walkStates walks a slice of component snapshots, a reader making each.
func walkStates[T any, P interface {
	*T
	Walk(*bin.Codec)
}](c *bin.Codec, s *[]P, elemSize int) {
	bin.Slice(c, s, elemSize, func(p *P) {
		if c.Reading() {
			*p = new(T)
		}
		(*p).Walk(c)
	})
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
// runs an event), and returns the checkpoint, now restorable onto that
// system. key is the fingerprint of the options that built sys; a
// mismatch — different geometry, workload, seed, or anything else the
// warm key covers — is an error, never a silent cross-restore. A
// checkpoint binds once: a bound one, or a live snapshot, is an error.
func (cp *Checkpoint) Bind(sys *System, key uint64) (*Checkpoint, error) {
	if cp.owner != nil {
		return nil, errors.New("reunion: checkpoint is already bound to a system")
	}
	if cp.key != key {
		return nil, fmt.Errorf("reunion: checkpoint keyed %016x, system options key %016x", cp.key, key)
	}
	if len(cp.cores) != len(sys.Cores) {
		return nil, fmt.Errorf("reunion: checkpoint has %d cores, system has %d", len(cp.cores), len(sys.Cores))
	}
	if len(cp.pairs) != len(sys.Pairs) {
		return nil, fmt.Errorf("reunion: checkpoint has %d pairs, system has %d", len(cp.pairs), len(sys.Pairs))
	}
	if (cp.l2 != nil) != (sys.L2 != nil) || (cp.bus != nil) != (sys.Bus != nil) {
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
	if len(cp.nr) != len(liveNR) || len(cp.strict) != len(liveStrict) {
		return nil, errors.New("reunion: checkpoint gate roster does not match system")
	}
	// The decoded memory is the pages that differ from the init image;
	// the cache lines that equal memory fill from the completed image.
	cp.mem.Overlay(sys.initMem)

	// Rebind each request to the cache its reply fills: fills resolve their
	// L1 MSHR by block at fire time, so (Kind, Core) names the cache.
	for i, rq := range cp.reqs {
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

	for i, cs := range cp.cores {
		if err := cs.BindTo(sys.Cores[i], cp.mem); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint core %d: %w", i, err)
		}
		owner := sys.Cores[i]
		if err := cs.VisitWaiters(func(cb *cache.CB) error { return sys.checkCB(cb, owner, 0) }); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint core %d: %w", i, err)
		}
	}
	for i, ps := range cp.pairs {
		if err := ps.BindTo(sys.Pairs[i]); err != nil {
			return nil, fmt.Errorf("reunion: checkpoint pair %d: %w", i, err)
		}
	}
	for i, gs := range cp.nr {
		gs.BindTo(liveNR[i])
	}
	for i, gs := range cp.strict {
		gs.BindTo(liveStrict[i])
	}
	if cp.l2 != nil {
		if err := cp.l2.BindTo(sys.L2, cp.mem); err != nil {
			return nil, err
		}
	}
	if cp.bus != nil {
		if err := cp.bus.BindTo(sys.Bus); err != nil {
			return nil, err
		}
	}

	for i, ev := range cp.eq.Events() {
		switch desc := ev.Desc.(type) {
		case *core.EvDecide:
			if desc.PairID < 0 || desc.PairID >= len(sys.Pairs) {
				return nil, fmt.Errorf("reunion: checkpoint event %d pair %d out of range [0,%d)", i, desc.PairID, len(sys.Pairs))
			}
			ev.Run = sys.Pairs[desc.PairID]
		case *coherence.EvPhantomMem:
			ev.Run = sys.msys
		case *coherence.EvXbar, *coherence.EvReply, *coherence.EvMemCont:
			if sys.L2 == nil {
				return nil, fmt.Errorf("reunion: checkpoint event %d targets the directory L2 on a snoopy system", i)
			}
			ev.Run = sys.L2
		case *snoop.EvReply, *snoop.EvMemFetch, *snoop.EvSyncMem:
			if sys.Bus == nil {
				return nil, fmt.Errorf("reunion: checkpoint event %d targets the snoopy bus on a directory system", i)
			}
			ev.Run = sys.Bus
		case *evInterrupt:
			if sys.Cfg.InterruptEvery <= 0 {
				return nil, fmt.Errorf("reunion: checkpoint event %d is an interrupt on a system without interrupts", i)
			}
			ev.Run = sys
		default:
			return nil, fmt.Errorf("reunion: checkpoint event %d has unknown descriptor type %T", i, ev.Desc)
		}
	}
	cp.owner = sys
	return cp, nil
}
