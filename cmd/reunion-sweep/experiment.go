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
)

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
func selectExperiments(fs *flag.FlagSet, name string, full bool) ([]reunion.Experiment, error) {
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
		return reunion.Experiments, nil
	}
	var names []string
	for _, e := range reunion.Experiments {
		if e.Name == name {
			return []reunion.Experiment{e}, nil
		}
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("sweep: unknown experiment %q (valid: %s, or 'all')", name, strings.Join(names, ", "))
}

// runExperiments prints the selected tables and their claims to stdout
// and each one's timing to stderr, so stdout is byte-identical at any
// -parallel and with or without telemetry.
func runExperiments(selected []reunion.Experiment, cfg reunion.ExpConfig, obsFlags *cliconf.ObsFlags, stdout, stderr io.Writer) int {
	tr := obsFlags.Tracer()
	cfg.Observe(tr)
	hb := obsFlags.Heartbeat("experiments", int64(len(selected)))
	stopHeartbeat := hb.Start()
	code := 0
	for _, e := range selected {
		sp := tr.StartSpan("experiment", e.Name)
		start := time.Now()
		claims, err := e.Run(cfg)
		if err != nil {
			sp.End(obs.Arg{Key: "err", Val: err.Error()})
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			code = 1
			break
		}
		for _, c := range claims {
			fmt.Fprintln(stdout, c)
		}
		sp.End()
		hb.Tick()
		fmt.Fprintln(stdout)
		fmt.Fprintf(stderr, "(%s finished in %v)\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	stopHeartbeat()
	if err := obsFlags.WriteTrace(tr); err != nil {
		fmt.Fprintf(stderr, "sweep: telemetry: %v\n", err)
		code = 1
	}
	return code
}
