package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reunion/internal/dist"
	"reunion/internal/sweep"
)

// writeJournal seals a journal of range [lo,hi) of a total-record run.
func writeJournal(t *testing.T, path string, total, lo, hi int) {
	t.Helper()
	plan, err := dist.NewPlan("m", total, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	j, err := dist.Create(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if err := j.Write(sweep.Record{Sweep: "m", Index: i, Labels: map[string]string{"i": fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
}

// journals writes a 3-journal tiling of a 9-record run into dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	for s := 0; s < 3; s++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", s))
		writeJournal(t, path, 9, 3*s, 3*s+3)
		paths = append(paths, path)
	}
	return paths
}

func runMerge(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stderr.String()
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	paths := journals(t, dir)
	out := filepath.Join(dir, "out.jsonl")

	if code, stderr := runMerge(t, append([]string{"-out", out}, paths...)...); code != 0 || !strings.Contains(stderr, "sha256") {
		t.Fatalf("complete set: exit %d, stderr %q", code, stderr)
	}
	if code, _ := runMerge(t, append([]string{"-out", out, "-manifest", filepath.Join(dir, "m.json")}, paths...)...); code != 0 {
		t.Fatalf("complete set with -manifest: exit %d", code)
	}

	partial := []string{"-out", filepath.Join(dir, "p.jsonl"), "-manifest", filepath.Join(dir, "p.json"), paths[0], paths[2]}
	if code, stderr := runMerge(t, partial...); code != 3 || !strings.Contains(stderr, "sha256") || !strings.Contains(stderr, "missing [3,6)") {
		t.Fatalf("partial set with -manifest: exit %d, stderr %q", code, stderr)
	}
	if code, _ := runMerge(t, "-out", filepath.Join(dir, "i.jsonl"), paths[0], paths[2]); code != 1 {
		t.Fatalf("incomplete set without -manifest: exit %d", code)
	}

	overlap := filepath.Join(dir, "overlap.jsonl")
	writeJournal(t, overlap, 9, 2, 5)
	if code, _ := runMerge(t, "-out", filepath.Join(dir, "c.jsonl"), "-manifest", filepath.Join(dir, "c.json"), paths[0], overlap); code != 1 {
		t.Fatalf("corrupt (overlapping) set: exit %d", code)
	}

	if code, _ := runMerge(t, "-out", out); code != 2 {
		t.Fatalf("no journals: exit %d", code)
	}
	if code, _ := runMerge(t, "-no-such-flag", paths[0]); code != 2 {
		t.Fatalf("unknown flag: exit %d", code)
	}
	if code, _ := runMerge(t, "-h"); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
}

// The trace is written whether the merge is strict or writes a
// manifest.
func TestTelemetryInBothModes(t *testing.T) {
	dir := t.TempDir()
	paths := journals(t, dir)
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{"strict", nil},
		{"manifest", []string{"-manifest", filepath.Join(dir, "m.json")}},
	} {
		trace := filepath.Join(dir, mode.name+".trace.json")
		args := append([]string{"-quiet", "-out", filepath.Join(dir, mode.name+".jsonl"),
			"-trace-out", trace}, mode.extra...)
		if code, stderr := runMerge(t, append(args, paths...)...); code != 0 {
			t.Fatalf("%s: exit %d: %s", mode.name, code, stderr)
		}
		if !exists(trace) {
			t.Errorf("%s mode wrote no %s", mode.name, filepath.Base(trace))
		}
	}
}

// A failed strict merge leaves no output file behind, and a pre-existing
// one untouched.
func TestFailedStrictMergeLeavesNoOutput(t *testing.T) {
	dir := t.TempDir()
	paths := journals(t, dir)
	out := filepath.Join(dir, "out.jsonl")
	if code, _ := runMerge(t, "-out", out, paths[0], paths[1]); code != 1 {
		t.Fatalf("incomplete strict merge: exit %d", code)
	}
	if exists(out) {
		t.Fatal("failed strict merge left an output file")
	}

	// A footerless journal fails the strict merge the same way.
	torn := filepath.Join(dir, "torn.jsonl")
	b, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, b[:bytes.LastIndexByte(b[:len(b)-1], '\n')+1], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stderr := runMerge(t, "-out", out, paths[0], paths[1], torn); code != 1 || !strings.Contains(stderr, "no footer") {
		t.Fatalf("footerless journal: exit %d, stderr %q", code, stderr)
	}
	if exists(out) {
		t.Fatal("failed strict merge left an output file")
	}
	if matches, _ := filepath.Glob(out + ".tmp-*"); len(matches) != 0 {
		t.Fatalf("failed strict merge left temp files: %v", matches)
	}
}
