package reunion_test

import (
	"fmt"
	"log"

	"reunion"
	"reunion/internal/fault"
	"reunion/internal/workload"
)

// Run one workload under all three execution models and compare the
// cost of redundancy with strict input replication against Reunion's
// relaxed input replication.
func ExampleRun() {
	p := workload.Apache()
	fmt.Printf("workload: %s (%s)\n\n", p.Name, p.Class)

	o := reunion.DefaultOptions()
	o.Mode, o.Workload = reunion.ModeNonRedundant, p
	base, err := reunion.Run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-redundant baseline: %.3f aggregate user IPC\n", base.UserIPC)

	o.Mode = reunion.ModeStrict
	strict, err := reunion.Run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("strict input replication: %.3f IPC (%.1f%% overhead)\n",
		strict.UserIPC, 100*(1-strict.UserIPC/base.UserIPC))

	o.Mode = reunion.ModeReunion
	reun, err := reunion.Run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Reunion (relaxed input replication): %.3f IPC (%.1f%% overhead)\n",
		reun.UserIPC, 100*(1-reun.UserIPC/base.UserIPC))
	fmt.Printf("\nReunion events over %d instructions:\n", reun.Committed)
	fmt.Printf("  fingerprint comparisons: %d\n", reun.Compares)
	fmt.Printf("  input incoherence:       %d (%.1f per million instructions)\n",
		reun.IncoherenceEvents, reun.IncoherencePerM)
	fmt.Printf("  synchronizing requests:  %d\n", reun.SyncRequests)
	fmt.Printf("  TLB misses (reference):  %.0f per million\n", reun.TLBMissPerM)
	// Output:
	// workload: apache (Web)
	//
	// non-redundant baseline: 1.438 aggregate user IPC
	// strict input replication: 1.405 IPC (2.3% overhead)
	// Reunion (relaxed input replication): 1.331 IPC (7.5% overhead)
	//
	// Reunion events over 66557 instructions:
	//   fingerprint comparisons: 66551
	//   input incoherence:       0 (0.0 per million instructions)
	//   synchronizing requests:  0
	//   TLB misses (reference):  2750 per million
}

// The same fingerprint compare and rollback that handle input
// incoherence also handle soft errors. Inject single-bit transients into
// instruction results on random cores of a Reunion system running the
// lock-protected counter, then check that every fired fault was
// recovered and the program still computed the correct count.
func ExampleNewSystem() {
	const threads, iters = 4, 200
	w := workload.MicroCounter(threads, iters)
	sys := reunion.NewSystem(reunion.DefaultConfig(), reunion.ModeReunion, w, 42)
	campaign := fault.NewCampaign(99, 3_000, sys.Cores)

	var cycles int64
	for cycles = 0; cycles < 30_000_000; cycles++ {
		sys.Step()
		campaign.Tick(cycles)
		done := true
		for _, c := range sys.Cores {
			if !c.Halted() {
				done = false
				break
			}
		}
		if done {
			break
		}
	}
	if sys.Failed() {
		log.Fatal("unrecoverable failure signalled for a transient fault")
	}

	counter, _ := sys.CoherentWord(workload.CounterAddr)
	var recoveries, faultEvents, incoherence, phase2 int64
	for _, p := range sys.Pairs {
		recoveries += p.Stats.Recoveries
		faultEvents += p.Stats.FaultEvents
		incoherence += p.Stats.IncoherenceEvents
		phase2 += p.Stats.Phase2
	}
	fmt.Printf("ran %d cycles with fault injection\n", cycles)
	fmt.Printf("faults armed:    %d\n", campaign.Injected)
	fmt.Printf("faults fired:    %d\n", campaign.Fired)
	fmt.Printf("recoveries:      %d (%d attributed to faults, %d to incoherence, %d phase-2)\n",
		recoveries, faultEvents, incoherence, phase2)
	fmt.Printf("final counter:   %d (want %d)\n", counter, threads*iters)
	// Output:
	// ran 210216 cycles with fault injection
	// faults armed:    60
	// faults fired:    60
	// recoveries:      1541 (60 attributed to faults, 1481 to incoherence, 31 phase-2)
	// final counter:   800 (want 800)
}
