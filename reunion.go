// Package reunion is a cycle-level chip-multiprocessor simulator
// reproducing "Reunion: Complexity-Effective Multicore Redundancy"
// (Smolens, Gold, Falsafi, Hoe — MICRO-39, 2006).
//
// The library simulates a CMP of out-of-order cores with private L1
// caches, a shared banked L2 with directory coherence, TLBs and branch
// predictors, running multithreaded shared-memory programs with real
// values. On top of that substrate it implements three execution models:
//
//   - ModeNonRedundant: the baseline CMP (one core per logical processor).
//   - ModeStrict: the oracle model of strict input replication — output
//     comparison with a configurable comparison latency but zero input-
//     replication cost (an idealized LVQ).
//   - ModeReunion: the paper's execution model — each logical processor is
//     a vocal/mute core pair with relaxed input replication (phantom
//     requests), fingerprint-based output comparison, and the two-phase
//     re-execution protocol with synchronizing requests.
//
// Quick start:
//
//	o := reunion.DefaultOptions()
//	o.Mode, o.Workload = reunion.ModeReunion, workload.Apache()
//	o.Config.CompareLatency = 20 // the machine is o.Config
//	res, err := reunion.Run(o)
//	fmt.Println(res.UserIPC, res.IncoherenceEvents)
//
// See README.md for an overview and the CLI commands, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the reproduction of every
// table and figure in the paper's evaluation. The evaluation matrix runs
// in parallel through the internal/sweep engine (cmd/reunion-sweep), and
// the soft-error detection story the paper assumes is measured by the
// Monte-Carlo fault-injection campaign engine (internal/campaign,
// cmd/reunion-inject): single-bit datapath flips classified as masked,
// detected (with latency), SDC, or DUE against fault-free golden runs.
package reunion

import (
	"reunion/internal/coherence"
	"reunion/internal/cpu"
	"reunion/internal/fingerprint"
	"reunion/internal/tlb"
)

// Mode selects the execution model.
type Mode int

// Execution models.
const (
	// ModeNonRedundant runs one core per logical processor, no checking.
	ModeNonRedundant Mode = iota
	// ModeStrict runs the strict-input-replication oracle.
	ModeStrict
	// ModeReunion runs vocal/mute pairs under the Reunion model.
	ModeReunion
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeNonRedundant:
		return "non-redundant"
	case ModeStrict:
		return "strict"
	case ModeReunion:
		return "reunion"
	}
	return "?"
}

// Phantom re-exports the phantom request strength (paper §4.2).
type Phantom = coherence.PhantomStrength

// Phantom request strengths.
const (
	PhantomNull   = coherence.PhantomNull
	PhantomShared = coherence.PhantomShared
	PhantomGlobal = coherence.PhantomGlobal
)

// TLBMode re-exports the TLB management discipline (paper §5.5).
type TLBMode = tlb.Mode

// TLB management modes.
const (
	TLBHardware = tlb.Hardware
	TLBSoftware = tlb.Software
)

// Consistency re-exports the memory consistency model.
type Consistency = cpu.Consistency

// Consistency models.
const (
	TSO = cpu.TSO
	SC  = cpu.SC
)

// ConsistencyName names the consistency model in the lowercase form the
// sweep labels and CLI flags use (Consistency.String names it uppercase).
func ConsistencyName(c Consistency) string {
	if c == SC {
		return "sc"
	}
	return "tso"
}

// FingerprintMode re-exports the fingerprint compression pipeline.
type FingerprintMode = fingerprint.Mode

// Fingerprint modes.
const (
	FPDirect   = fingerprint.Direct
	FPTwoStage = fingerprint.TwoStage
)

// Topology selects the memory-system organization.
type Topology int

// Memory-system topologies.
const (
	// TopologyDirectory is the Piranha-style baseline of Table 1: private
	// L1s behind an inclusive shared L2 with a directory (the default).
	TopologyDirectory Topology = iota
	// TopologySnoopy is the Montecito-style variant of §4.1: private
	// caches on a broadcast bus in front of memory, no shared cache.
	TopologySnoopy
)

// String names the topology.
func (t Topology) String() string {
	if t == TopologySnoopy {
		return "snoopy"
	}
	return "directory"
}

// Config is the one description of the machine: every knob the paper's
// evaluation sweeps (comparison latency, phantom strength, TLB
// discipline, consistency, fingerprint interval, ROB window, topology)
// and the simulation kernel and interrupt schedule. NewSystem reads it
// once; a built System never changes it. DefaultConfig returns the
// paper's Table 1 parameters.
type Config struct {
	LogicalProcessors int

	// Topology selects directory (shared L2) or snoopy (bus) memory.
	Topology Topology

	// SnoopLatency is the bus transaction latency under TopologySnoopy.
	SnoopLatency int64

	Core cpu.Config

	L1Bytes int
	L1Ways  int
	L1MSHRs int

	L2 coherence.Config

	ITLBEntries, ITLBWays int
	DTLBEntries, DTLBWays int

	// CompareLatency is the one-way fingerprint exchange latency between
	// the members of a pair (the x-axis of Figure 6).
	CompareLatency int64
	// PairTimeout is the divergence watchdog: how long one side of a pair
	// may keep sending fingerprints with the partner silent before forced
	// recovery.
	PairTimeout int64

	// Kernel selects the simulation kernel. Both kernels are bit-identical
	// in results; KernelNaive ticks every component every cycle and exists
	// for A/B verification and as a reference for new tickable components.
	Kernel Kernel
	// InterruptEvery delivers an external interrupt to every logical
	// processor each time this many cycles elapse (0 = off). Interrupts
	// are replicated to both members of a pair and serviced at the same
	// comparison boundary (§4.3).
	InterruptEvery int64
	// InterruptCost is the handler service time in cycles (DefaultConfig:
	// 150; 0 is a zero-cycle handler, and NewSystem panics on a negative
	// cost).
	InterruptCost int64
}

// DefaultConfig returns the simulated baseline CMP of Table 1: 4 logical
// processors, 4 GHz 12-stage 4-wide out-of-order cores with a 256-entry
// RUU and 64-entry store buffer; 64 KB 2-way L1s with 32 MSHRs; a 16 MB
// 4-bank 8-way shared L2 with 35-cycle hits; 60 ns memory; 128/512-entry
// 2-way I/D TLBs with 8 KB pages.
func DefaultConfig() Config {
	return Config{
		LogicalProcessors: 4,
		Core: cpu.Config{
			FetchWidth:    4,
			DispatchWidth: 4,
			IssueWidth:    4,
			RetireWidth:   4,
			ROBSize:       256,
			SBSize:        64,
			FetchQCap:     16,
			CheckQCap:     256, // checked instructions buffer in the RUU itself
			LoadToUse:     2,
			FrontDepth:    8, // 12-stage pipeline's fetch-to-dispatch depth
			L1LoadPorts:   2,
			L1StorePorts:  1,
			TrapLatency:   25,
			DevLatency:    20,
			Consistency:   cpu.TSO,
			FPMode:        fingerprint.TwoStage,
			FPInterval:    1, // the paper compares fingerprints every instruction
			TLB: cpu.TLBPolicy{
				Mode:               tlb.Hardware,
				WalkLatency:        30,
				HandlerBody:        30,
				HandlerSerializers: 5, // 2 traps + 3 non-idempotent MMU accesses
			},
		},
		L1Bytes: 64 << 10,
		L1Ways:  2,
		L1MSHRs: 32,
		L2: coherence.Config{
			CapacityBytes: 16 << 20,
			Ways:          8,
			Banks:         4,
			HitLatency:    35,
			XBarLatency:   4,
			RecallLatency: 16,
			MemLatency:    240, // 60 ns at 4 GHz
			MemBanks:      64,
			MemBankBusy:   24, // bank occupancy per access (row cycle time)
			MemMSHRs:      64,
			PortsPerBank:  1, // scaled with core count at system build
			Phantom:       coherence.PhantomGlobal,
		},
		ITLBEntries: 128, ITLBWays: 2,
		DTLBEntries: 512, DTLBWays: 2,
		SnoopLatency:   20,
		CompareLatency: 10,
		PairTimeout:    20000,
		InterruptCost:  150,
	}
}

// newFPGen exposes fingerprint generation to the benchmark harness.
func newFPGen(m FingerprintMode) *fingerprint.Gen { return fingerprint.NewGen(m) }
