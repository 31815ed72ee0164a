package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"reunion"
	"reunion/internal/cliconf"
	"reunion/internal/obs"
	"reunion/internal/workload"
)

// experiment is one paper table or figure behind -experiment.
type experiment struct {
	name string
	run  func(c reunion.ExpConfig) error
}

// experiments are the tables and figures, in the order -experiment all
// runs them.
var experiments = []experiment{
	{"config", func(c reunion.ExpConfig) error { printConfig(c.Out); return nil }},
	{"workloads", func(c reunion.ExpConfig) error { printWorkloads(c.Out); return nil }},
	{"fig5", func(c reunion.ExpConfig) error { _, err := c.Figure5(); return err }},
	{"fig6a", func(c reunion.ExpConfig) error { _, err := c.Figure6(reunion.ModeStrict); return err }},
	{"fig6b", func(c reunion.ExpConfig) error { _, err := c.Figure6(reunion.ModeReunion); return err }},
	{"table3", func(c reunion.ExpConfig) error { _, err := c.Table3(); return err }},
	{"fig7a", func(c reunion.ExpConfig) error { _, err := c.Figure7a(); return err }},
	{"fig7b", func(c reunion.ExpConfig) error { _, err := c.Figure7b(); return err }},
	{"sc", func(c reunion.ExpConfig) error { _, err := c.SCExperiment(); return err }},
	{"interval", func(c reunion.ExpConfig) error { _, err := c.FPIntervalAblation(); return err }},
	{"rob", func(c reunion.ExpConfig) error { _, err := c.ROBSweep(); return err }},
	{"topology", func(c reunion.ExpConfig) error { _, err := c.TopologyAblation(); return err }},
}

// matrixFlags shape the matrix or its results file. An experiment fixes
// both itself, so passing one with -experiment is a usage error rather
// than a flag silently ignored.
var matrixFlags = map[string]bool{
	"modes": true, "workloads": true, "latencies": true, "phantoms": true,
	"tlbs": true, "consistencies": true, "intervals": true, "seeds": true,
	"warm": true, "measure": true, "out": true, "format": true,
	"shard": true, "journal": true, "resume": true, "ckpt-store": true,
}

// selectExperiments resolves -experiment and -full against the other
// flags set on fs; every error it returns is a usage error (exit 2).
func selectExperiments(fs *flag.FlagSet, name string, full bool) ([]experiment, error) {
	if name == "" {
		if full {
			return nil, fmt.Errorf("sweep: -full requires -experiment")
		}
		return nil, nil
	}
	var conflict string
	fs.Visit(func(f *flag.Flag) {
		if matrixFlags[f.Name] && conflict == "" {
			conflict = f.Name
		}
	})
	if conflict != "" {
		return nil, fmt.Errorf("sweep: -%s does not apply to -experiment (each experiment fixes its own matrix and prints its table to stdout)", conflict)
	}
	if name == "all" {
		return experiments, nil
	}
	var names []string
	for _, e := range experiments {
		if e.name == name {
			return []experiment{e}, nil
		}
		names = append(names, e.name)
	}
	return nil, fmt.Errorf("sweep: unknown experiment %q (valid: %s, or 'all')", name, strings.Join(names, ", "))
}

// runExperiments prints the selected tables to stdout and each one's
// timing to stderr, so stdout is byte-identical at any -parallel and
// with or without telemetry.
func runExperiments(selected []experiment, cfg reunion.ExpConfig, obsFlags *cliconf.ObsFlags, stdout, stderr io.Writer) int {
	tr := obsFlags.Tracer()
	cfg.Observe(tr)
	hb := obsFlags.Heartbeat("experiments", int64(len(selected)))
	stopHeartbeat := hb.Start()
	code := 0
	for _, e := range selected {
		sp := tr.StartSpan("experiment", e.name)
		start := time.Now()
		if err := e.run(cfg); err != nil {
			sp.End(obs.Arg{Key: "err", Val: err.Error()})
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			code = 1
			break
		}
		sp.End()
		hb.Tick()
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s finished in %v)\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	stopHeartbeat()
	if err := obsFlags.WriteTrace(tr); err != nil {
		fmt.Fprintf(stderr, "sweep: telemetry: %v\n", err)
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
