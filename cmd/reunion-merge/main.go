// Command reunion-merge validates and reassembles the -shard journals of
// a distributed reunion-sweep or reunion-inject run into one results
// stream byte-identical to the single-process run.
//
//	reunion-merge -out sweep.jsonl shard-0.jsonl shard-1.jsonl shard-2.jsonl
//	reunion-merge -out - shard-*.jsonl > merged.jsonl
//	reunion-merge -manifest m.json -out partial.jsonl shard-*.jsonl
//
// The journals may be given in any order. Every journal is verified
// before a byte is written — header against the run, each record's index
// against the journal's range, payload bytes against the footer CRC —
// and the verified ranges must not overlap. By default the merge is
// strict: the journals must tile the whole run, each sealed by its
// checksummed footer (an interrupted shard must be finished with -resume
// first), so a merge that exits 0 has proven the output is the exact
// single-process stream. File output goes through a temporary file and a
// rename, so a failed merge never leaves a half-written results file.
// The merged stream's SHA-256 is printed to stderr for comparison
// against a reference run's digest.
//
// With -manifest the merge writes whatever verifies and a
// machine-readable manifest accounting for every index — merged,
// missing, or failed and why. The exit code distinguishes the verdicts
// an operator acts on:
//
//	0  every index verified and merged (the manifest says "success")
//	3  a verified subset was merged (-manifest only; the manifest lists
//	   the holes)
//	1  nothing trustworthy: an incomplete set without -manifest, no
//	   verified record, journals from different runs, overlapping
//	   verified ranges, or an I/O failure
//	2  usage error
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"reunion/internal/cliconf"
	"reunion/internal/dist"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reunion-merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "merged.jsonl", "merged results file ('-' = stdout)")
	manifest := fs.String("manifest", "", "partial mode: merge every journal that verifies and write the index-accounting manifest to this file (exit 0 complete, 3 partial, 1 corrupt)")
	quiet := fs.Bool("quiet", false, "suppress the summary on stderr")
	obsFlags := cliconf.RegisterObs(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	paths := append([]string(nil), fs.Args()...)
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "merge: no journals given\nusage: reunion-merge -out merged.jsonl shard-0.jsonl shard-1.jsonl ...")
		return 2
	}
	// Stable order for globbed inputs; Merge itself accepts any order.
	sort.Strings(paths)

	// Telemetry is a pure observer: the merged stream (and its digest) is
	// byte-identical with or without these flags.
	tr := obsFlags.Tracer()
	digest := sha256.New()
	var tee io.Writer = digest
	var bw *bufio.Writer
	dest := *out
	if dest == "-" {
		bw = bufio.NewWriter(stdout)
		tee, dest = io.MultiWriter(bw, digest), ""
	}
	m, err := dist.Merge(dest, paths, *manifest == "", tee, tr)
	if err == nil && bw != nil {
		err = bw.Flush()
	}
	if err == nil && *manifest != "" {
		err = m.WriteFile(*manifest)
	}
	if werr := obsFlags.WriteTrace(tr); werr != nil {
		fmt.Fprintf(stderr, "merge: telemetry: %v\n", werr)
		if err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "merge: %v\n", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stderr, "merge: %s: %s — %d of %d records from %d journals, sha256 %x\n",
			m.Spec, m.Outcome, m.Records, m.Total, len(paths), digest.Sum(nil))
		for _, f := range m.Failed {
			fmt.Fprintf(stderr, "merge:   %s [%d,%d): %s\n", f.Path, f.Range.Lo, f.Range.Hi, f.Err)
		}
		for _, r := range m.Missing {
			fmt.Fprintf(stderr, "merge:   missing [%d,%d)\n", r.Lo, r.Hi)
		}
	}
	return dist.ExitCode(m.Outcome)
}
