// Command reunion-bench regenerates every table and figure of the paper's
// evaluation section (plus the §4.3 fingerprint-interval ablation and the
// §5.5 sequential-consistency result).
//
// Usage:
//
//	reunion-bench [-experiment all|config|workloads|fig5|fig6a|fig6b|table3|fig7a|fig7b|sc|interval|rob|topology] [-full]
//
// -full uses the paper-scale sampling methodology (3 matched seeds,
// 100k/50k-cycle windows, 400k-cycle event windows); the default quick
// campaign finishes in a few minutes. Host performance is measured by the
// repository benchmark in bench/, not here.
//
// Exit codes: 0 success, 1 an experiment failed, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"reunion"
	"reunion/internal/cliconf"
	"reunion/internal/obs"
	"reunion/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reunion-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all", "which experiment to run")
	full := fs.Bool("full", false, "paper-scale campaign (slower)")
	obsFlags := cliconf.RegisterObs(fs).WithHeartbeat(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	cfg := reunion.QuickExp(stdout)
	if *full {
		cfg = reunion.FullExp(stdout)
	}
	// The tables and figures, in the order -experiment all runs them.
	experiments := []struct {
		name string
		run  func() error
	}{
		{"config", func() error { printConfig(stdout); return nil }},
		{"workloads", func() error { printWorkloads(stdout); return nil }},
		{"fig5", func() error { _, err := cfg.Figure5(); return err }},
		{"fig6a", func() error { _, err := cfg.Figure6(reunion.ModeStrict); return err }},
		{"fig6b", func() error { _, err := cfg.Figure6(reunion.ModeReunion); return err }},
		{"table3", func() error { _, err := cfg.Table3(); return err }},
		{"fig7a", func() error { _, err := cfg.Figure7a(); return err }},
		{"fig7b", func() error { _, err := cfg.Figure7b(); return err }},
		{"sc", func() error { _, err := cfg.SCExperiment(); return err }},
		{"interval", func() error { _, err := cfg.FPIntervalAblation(); return err }},
		{"rob", func() error { _, err := cfg.ROBSweep(); return err }},
		{"topology", func() error { _, err := cfg.TopologyAblation(); return err }},
	}
	selected := experiments
	if *exp != "all" {
		selected = nil
		var names []string
		for _, e := range experiments {
			if e.name == *exp {
				selected = append(selected, e)
			}
			names = append(names, e.name)
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (valid: %s, or 'all')\n", *exp, strings.Join(names, ", "))
			return 2
		}
	}

	// Telemetry is a pure observer: experiment tables are byte-identical
	// with or without these flags.
	tr := obsFlags.Tracer()
	cfg.Observe(tr)

	hb := obsFlags.Heartbeat("bench", 0)
	stopHeartbeat := hb.Start()
	code := 0
	for _, e := range selected {
		sp := tr.StartSpan("bench", e.name)
		start := time.Now()
		if err := e.run(); err != nil {
			sp.End(obs.Arg{Key: "err", Val: err.Error()})
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			code = 1
			break
		}
		sp.End()
		hb.Tick()
		fmt.Fprintf(stdout, "(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	stopHeartbeat()
	if err := obsFlags.WriteTrace(tr); err != nil {
		fmt.Fprintf(stderr, "bench: telemetry: %v\n", err)
		code = 1
	}
	return code
}

func printConfig(w io.Writer) {
	c := reunion.DefaultConfig()
	fmt.Fprintln(w, "Table 1: simulated baseline CMP parameters")
	fmt.Fprintf(w, "  logical processors   %d (+%d mute cores under Reunion)\n",
		c.LogicalProcessors, c.LogicalProcessors)
	fmt.Fprintf(w, "  pipeline             %d-wide dispatch/retire, %d-entry RUU, %d-entry store buffer\n",
		c.Core.DispatchWidth, c.Core.ROBSize, c.Core.SBSize)
	fmt.Fprintf(w, "  L1 I/D               %d KB, %d-way, %d-cycle load-to-use, %d MSHRs, %d rd / %d wr ports\n",
		c.L1Bytes>>10, c.L1Ways, c.Core.LoadToUse, c.L1MSHRs, c.Core.L1LoadPorts, c.Core.L1StorePorts)
	fmt.Fprintf(w, "  shared L2            %d MB, %d banks, %d-way, %d-cycle hit\n",
		c.L2.CapacityBytes>>20, c.L2.Banks, c.L2.Ways, c.L2.HitLatency)
	fmt.Fprintf(w, "  memory               %d-cycle access, %d banks\n", c.L2.MemLatency, c.L2.MemBanks)
	fmt.Fprintf(w, "  ITLB/DTLB            %d / %d entries, %d-way, 8K pages\n",
		c.ITLBEntries, c.DTLBEntries, c.ITLBWays)
	fmt.Fprintf(w, "  comparison latency   %d cycles (default)\n", c.CompareLatency)
	fmt.Fprintln(w)
}

func printWorkloads(w io.Writer) {
	fmt.Fprintln(w, "Table 2: application suite (synthetic profiles; see DESIGN.md)")
	fmt.Fprintf(w, "  %-12s %-10s %10s %10s %8s %8s %8s\n",
		"workload", "class", "private", "scan", "locks", "crit", "traps")
	for _, p := range workload.Suite() {
		fmt.Fprintf(w, "  %-12s %-10s %9dK %9dK %8d 1/%-6d 1/%-6d\n",
			p.Name, p.Class, p.PrivateBytes>>10, p.ScanBytes>>10,
			p.Locks, p.CritEvery, p.TrapEvery)
	}
	fmt.Fprintln(w)
}
