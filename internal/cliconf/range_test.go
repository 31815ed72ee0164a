package cliconf

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"reunion/internal/dist"
	"reunion/internal/sweep"
)

// rangeRecord is the record of index i in the range tests; index 4 is
// a failed run.
func rangeRecord(i int) sweep.Record {
	var err error
	if i == 4 {
		err = errors.New("boom")
	}
	return sweep.NewRecord("t", i, map[string]string{"i": strconv.Itoa(i)}, map[string]float64{"v": float64(i)}, err)
}

// rangeBytes is what a sink writes for the records of indices [3,6).
func rangeBytes(t *testing.T, sink func(io.Writer) sweep.Sink) []byte {
	t.Helper()
	var b bytes.Buffer
	s := sink(&b)
	for i := 3; i < 6; i++ {
		if err := s.Write(rangeRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// Each way of opening a range hands out the indices still to run and
// leaves the output sealed with the whole range's records: the results
// file in either format on a file or stdout, a fresh journal, a torn
// journal resumed, and a complete journal resumed, which hands out
// nothing and is left as it was.
func TestRange(t *testing.T) {
	dir := t.TempDir()
	plan := dist.Plan{Spec: "t", Fingerprint: dist.Fingerprint("a", "b"), Total: 6, Lo: 3, Hi: 6}
	sealed := filepath.Join(dir, "sealed.jsonl")
	jnl, err := dist.Create(sealed, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := jnl.Write(rangeRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Finish(); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := rangeBytes(t, func(w io.Writer) sweep.Sink { return sweep.NewJSONL(w) })
	csv := rangeBytes(t, func(w io.Writer) sweep.Sink { return sweep.NewCSV(w) })
	// The torn journal keeps the header, the first record and part of the
	// second: -resume recomputes from index 4.
	lines := bytes.SplitAfter(journal, []byte("\n"))
	torn := journal[:len(lines[0])+len(lines[1])+10]

	cases := []struct {
		name     string
		args     []string
		existing []byte // the file at path before Open; nil for none
		stdout   bool   // the output goes to stdout, not path
		indices  []int
		complete bool
		want     []byte
	}{
		{name: "out file jsonl", args: []string{"-out", "PATH"}, indices: []int{3, 4, 5}, want: jsonl},
		{name: "out file csv", args: []string{"-out", "PATH", "-format", "csv"}, indices: []int{3, 4, 5}, want: csv},
		{name: "stdout jsonl", args: []string{"-out", "-"}, stdout: true, indices: []int{3, 4, 5}, want: jsonl},
		{name: "stdout csv", args: []string{"-out", "-", "-format", "csv"}, stdout: true, indices: []int{3, 4, 5}, want: csv},
		{name: "fresh journal", args: []string{"-journal", "PATH"}, existing: torn, indices: []int{3, 4, 5}, want: journal},
		{name: "torn journal", args: []string{"-journal", "PATH", "-resume"}, existing: torn, indices: []int{4, 5}, want: journal},
		{name: "complete journal", args: []string{"-journal", "PATH", "-resume"}, existing: journal, indices: []int{}, complete: true, want: journal},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "range.out")
			if c.existing != nil {
				if err := os.WriteFile(path, c.existing, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			rf := RegisterRange(fs, "t", "run", "unused.jsonl", false)
			o := RegisterObs(fs)
			args := append([]string{"-shard", "1/2"}, c.args...)
			for i, a := range args {
				if a == "PATH" {
					args[i] = path
				}
			}
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			got, err := rf.Plan("t", 6, "a", "b")
			if err != nil || got != plan {
				t.Fatalf("Plan = %v, %v; want %v", got, err, plan)
			}
			var stdout, stderr bytes.Buffer
			rng, err := rf.Open(plan, o, nil, &stdout, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rng.Indices(), c.indices) || rng.Complete() != c.complete {
				t.Fatalf("indices %v complete %v, want %v %v", rng.Indices(), rng.Complete(), c.indices, c.complete)
			}
			if c.complete {
				if !strings.Contains(stderr.String(), "already complete (3 runs, 1 failed)") {
					t.Errorf("stderr %q does not report the complete journal", stderr.String())
				}
			} else if err := rng.Run(func(_ context.Context, indices []int, sink sweep.Sink) error {
				for _, i := range indices {
					if err := sink.Write(rangeRecord(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if rng.Failed() != 1 {
				t.Errorf("Failed() = %d, want 1", rng.Failed())
			}
			out := stdout.Bytes()
			if !c.stdout {
				if out, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(out, c.want) {
				t.Errorf("output:\n%s\nwant:\n%s", out, c.want)
			}
		})
	}
}

// An empty -out means no results file only where the CLI says so;
// elsewhere it is a file name that cannot be created. Flag misuse is a
// usage error from Plan.
func TestRangeFlagErrors(t *testing.T) {
	open := func(optionalOut bool, args ...string) (*Range, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		rf := RegisterRange(fs, "t", "trial", "unused.jsonl", optionalOut)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		plan, err := rf.Plan("t", 2)
		if err != nil {
			return nil, err
		}
		return rf.Open(plan, RegisterObs(fs), nil, io.Discard, io.Discard)
	}
	rng, err := open(true, "-out", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := rng.Run(func(_ context.Context, indices []int, sink sweep.Sink) error {
		return sink.Write(sweep.NewRecord("t", indices[0], nil, nil, errors.New("x")))
	}); err != nil || rng.Failed() != 1 {
		t.Fatalf("-out '' run: err %v, failed %d", err, rng.Failed())
	}
	if _, err := open(false, "-out", ""); err == nil {
		t.Error("-out '' accepted where it names a file")
	}
	for _, args := range [][]string{
		{"-shard", "2/2"},
		{"-resume"},
		{"-journal", "j", "-format", "csv"},
		{"-journal", "j", "-out", "o"},
	} {
		if _, err := open(false, args...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
