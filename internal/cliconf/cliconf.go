// Package cliconf is the shared flag-parsing and validation layer of
// the reunion CLIs. Three commands (sweep, inject, merge) accept
// overlapping flag families — axis CSVs with duplicate-value warnings
// and fail-fast unknown-value listing, the telemetry flags, the
// checkpoint-store directory, the -cpuprofile profile, and the range
// flags (-parallel, -out, -format, -shard, -journal, -resume, -quiet)
// with the range lifecycle behind them (RangeFlags, Range): each rule
// lives here once, so it cannot drift apart between the CLIs. The CLIs
// keep their own flags, their specs and their exit-code choices.
package cliconf

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"reunion"
	"reunion/internal/ckptstore"
	"reunion/internal/obs"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

// SplitCSV splits a comma-separated flag value, trimming whitespace and
// dropping empty fields.
func SplitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Int64s parses a CSV of int64s.
func Int64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range SplitCSV(s) {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Uint64s parses a CSV of uint64s (0x… accepted).
func Uint64s(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range SplitCSV(s) {
		v, err := strconv.ParseUint(f, 0, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseRange parses "lo-hi" (inclusive) or a single value "n" (= n-n);
// the empty string yields the defaults.
func ParseRange(s string, defLo, defHi int64) (lo, hi int64, err error) {
	if s == "" {
		return defLo, defHi, nil
	}
	parts := strings.SplitN(s, "-", 2)
	lo, err = strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		return 0, 0, err
	}
	hi = lo
	if len(parts) == 2 {
		hi, err = strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return 0, 0, err
		}
	}
	if hi < lo {
		return 0, 0, fmt.Errorf("range %q is empty", s)
	}
	return lo, hi, nil
}

// Kernel resolves a -kernel flag value. Both kernels are bit-identical
// in results (CI byte-compares their journals), so the choice never
// enters a run fingerprint.
func Kernel(name string) (reunion.Kernel, error) {
	switch name {
	case "fastforward", "fast-forward":
		return reunion.KernelFastForward, nil
	case "naive":
		return reunion.KernelNaive, nil
	}
	return 0, fmt.Errorf("unknown kernel %q (valid: fastforward, naive)", name)
}

// named parses an axis CSV of named values — each value's name is its
// label, name(v) — and dedupes it, rejecting an unknown name with the
// valid ones listed. what names the axis in that error.
func named[T comparable](w io.Writer, tool, axis, what, csv string, name func(T) string, valid ...T) ([]T, error) {
	var out []T
	var names []string
	for _, v := range valid {
		names = append(names, name(v))
	}
	for _, f := range SplitCSV(csv) {
		i := slices.Index(names, f)
		if i < 0 {
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", what, f, strings.Join(names, ", "))
		}
		out = append(out, valid[i])
	}
	return sweep.Dedupe(w, tool, axis, out, name), nil
}

// Modes parses an execution-model axis CSV. allowStrict selects the
// sweep form; inject passes false, because its strict oracle simulates
// comparison timing only and a fault campaign against it would
// mislabel the unprotected substrate.
func Modes(w io.Writer, tool, csv string, allowStrict bool) ([]reunion.Mode, error) {
	if allowStrict {
		return named(w, tool, "mode", "mode", csv, reunion.Mode.String,
			reunion.ModeNonRedundant, reunion.ModeStrict, reunion.ModeReunion)
	}
	if slices.Contains(SplitCSV(csv), "strict") {
		return nil, fmt.Errorf("mode strict models comparison timing only (no simulated partner); inject supports reunion,non-redundant")
	}
	return named(w, tool, "mode", "mode", csv, reunion.Mode.String, reunion.ModeReunion, reunion.ModeNonRedundant)
}

// Phantoms parses a phantom-strength axis CSV.
func Phantoms(w io.Writer, tool, csv string) ([]reunion.Phantom, error) {
	return named(w, tool, "phantom", "phantom strength", csv, reunion.Phantom.String,
		reunion.PhantomGlobal, reunion.PhantomShared, reunion.PhantomNull)
}

// TLBs parses a TLB-discipline axis CSV.
func TLBs(w io.Writer, tool, csv string) ([]reunion.TLBMode, error) {
	return named(w, tool, "tlb", "TLB discipline", csv, reunion.TLBMode.String, reunion.TLBHardware, reunion.TLBSoftware)
}

// Consistencies parses a memory-consistency axis CSV.
func Consistencies(w io.Writer, tool, csv string) ([]reunion.Consistency, error) {
	return named(w, tool, "consistency", "consistency model", csv, reunion.ConsistencyName, reunion.TSO, reunion.SC)
}

// Workloads parses a workload axis CSV ("all" = the full suite),
// listing every valid name on an unknown value.
func Workloads(w io.Writer, tool, csv string) ([]workload.Params, error) {
	var ps []workload.Params
	if csv == "all" {
		ps = workload.Suite()
	} else {
		for _, name := range SplitCSV(csv) {
			p, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q (valid: %s, or 'all')",
					name, strings.Join(workload.Names(), ", "))
			}
			ps = append(ps, p)
		}
	}
	return sweep.Dedupe(w, tool, "workload", ps, func(p workload.Params) string { return p.Name }), nil
}

// Seeds parses a workload-seed axis CSV.
func Seeds(w io.Writer, tool, csv string) ([]uint64, error) {
	sds, err := Uint64s(csv)
	if err != nil {
		return nil, err
	}
	return sweep.Dedupe(w, tool, "seed", sds, func(s uint64) string { return strconv.FormatUint(s, 10) }), nil
}

// Latencies parses a comparison-latency axis CSV in cycles (0 = a
// zero-cycle latency).
func Latencies(w io.Writer, tool, csv string) ([]int64, error) {
	lats, err := Int64s(csv)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return sweep.Dedupe(w, tool, "latency", lats, func(v int64) string { return strconv.FormatInt(v, 10) }), nil
}

// Intervals parses a fingerprint-interval axis CSV in instructions.
func Intervals(w io.Writer, tool, csv string) ([]int, error) {
	var ivs []int
	for _, f := range SplitCSV(csv) {
		iv, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("interval: %w", err)
		}
		ivs = append(ivs, iv)
	}
	return sweep.Dedupe(w, tool, "interval", ivs, strconv.Itoa), nil
}

// ValidatePoints runs check on every point of spec and names the first
// that fails: the CLIs' one range check, so a flag value that cannot run
// exits 2 before anything runs, and one that can runs under its label.
func ValidatePoints(spec sweep.Spec[reunion.Options], check func(reunion.Options) error) error {
	for i := range spec.Size() {
		pt := spec.Point(i)
		if err := check(pt.Config); err != nil {
			return fmt.Errorf("%s: %w", pt.Name(), err)
		}
	}
	return nil
}

// AtLeast defines a flag on fs that refuses a value below min as it is
// parsed: fs.Parse fails and the CLI exits 2 before anything runs,
// instead of running a stand-in under the flag's label.
func AtLeast[T int | time.Duration](fs *flag.FlagSet, name string, value, min T, parse func(string) (T, error), usage string) *T {
	if value != 0 {
		usage += fmt.Sprintf(" (default %v)", value)
	}
	p := &value
	fs.Func(name, usage, func(s string) error {
		v, err := parse(s)
		if err == nil && v < min {
			err = fmt.Errorf("%v is below %v", v, min)
		}
		if err == nil {
			*p = v
		}
		return err
	})
	return p
}

// CkptFlags is the shared checkpoint-store flag.
type CkptFlags struct {
	Dir *string
}

// RegisterCkpt registers -ckpt-store on fs.
func RegisterCkpt(fs *flag.FlagSet) *CkptFlags {
	return &CkptFlags{
		Dir: fs.String("ckpt-store", "", "directory of a shared warm-checkpoint store (content-addressed; written and read in place)"),
	}
}

// Open opens the disk store the flag names, or returns nil when it is
// unset.
func (c *CkptFlags) Open() (ckptstore.Store, error) {
	if *c.Dir == "" {
		return nil, nil
	}
	return ckptstore.NewDisk(*c.Dir)
}

// ObsFlags is the shared telemetry flag family. Telemetry is a pure
// observer everywhere these flags appear: results and journal bytes
// are byte-identical with or without them.
type ObsFlags struct {
	TraceOut       *string
	HeartbeatEvery *time.Duration
}

// RegisterObs registers -trace-out on fs.
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	return &ObsFlags{
		TraceOut: fs.String("trace-out", "", "write spans as Chrome trace-event JSON to this file at exit ('-' = stdout; open in Perfetto)"),
	}
}

// WithHeartbeat additionally registers -heartbeat for the CLIs with a
// progress loop.
func (o *ObsFlags) WithHeartbeat(fs *flag.FlagSet) *ObsFlags {
	o.HeartbeatEvery = AtLeast(fs, "heartbeat", 0, 0, time.ParseDuration,
		"print a progress heartbeat (done/total, rate, ETA, lag) to stderr at this `interval` (0 = off)")
	return o
}

// Tracer returns the run's span tracer, or nil (telemetry off) when
// -trace-out is unset.
func (o *ObsFlags) Tracer() *obs.Tracer {
	if *o.TraceOut == "" {
		return nil
	}
	return obs.NewTracer(0)
}

// Heartbeat builds the stderr heartbeat, or nil when the flag is off
// (obs.Heartbeat is nil-safe).
func (o *ObsFlags) Heartbeat(label string, total int64) *obs.Heartbeat {
	if o.HeartbeatEvery == nil || *o.HeartbeatEvery == 0 {
		return nil
	}
	return &obs.Heartbeat{Label: label, Total: total, Every: *o.HeartbeatEvery, W: os.Stderr}
}

// WriteTrace flushes tr to -trace-out at exit; a nil tracer writes
// nothing.
func (o *ObsFlags) WriteTrace(tr *obs.Tracer) error {
	if tr == nil {
		return nil
	}
	return tr.WriteFile(*o.TraceOut)
}

// StartCPUProfile starts the -cpuprofile CPU profile into path and
// returns the function that stops it and closes the file; with an empty
// path it starts nothing and stop is a no-op. os.Exit skips deferred
// calls, so a CLI must run stop on every exit after this point — a
// failed run's profile is often the one wanted.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// FlagWasSet reports whether the named flag was passed explicitly to
// fs.
func FlagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// CheckJournalFlags enforces the -format/-journal/-resume/-out rules
// the sharded CLIs share; the returned error is a usage error (exit 2).
// outSet reports whether -out was passed explicitly (FlagWasSet): -out
// has a non-empty default, so presence can't be read from the value.
func CheckJournalFlags(tool, journal, format string, resume, outSet bool) error {
	if format != "jsonl" && format != "csv" {
		return fmt.Errorf("%s: unknown format %q (valid: jsonl, csv)", tool, format)
	}
	if journal != "" {
		if format != "jsonl" {
			return fmt.Errorf("%s: a -journal is jsonl-only (merge output is byte-identical to a jsonl run)", tool)
		}
		if outSet {
			return fmt.Errorf("%s: -journal and -out are mutually exclusive (merge shard journals with reunion-merge)", tool)
		}
		return nil
	}
	if resume {
		return fmt.Errorf("%s: -resume requires -journal", tool)
	}
	return nil
}
