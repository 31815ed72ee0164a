package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestLintBadFixture: the deliberately-bad module must fail with exit 1
// and name both planted violations.
func TestLintBadFixture(t *testing.T) {
	var out, errb bytes.Buffer
	code := Main([]string{"-C", "testdata/lintbad", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, needle := range []string{"ungated", "snapshot path", "[obsgated]", "[snapshotcomplete]"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("output missing %q:\n%s", needle, out.String())
		}
	}
}

// TestRepoIsClean: the acceptance criterion — the final tree passes the
// full suite with exit 0.
func TestRepoIsClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := Main([]string{"-C", "../.."}, &out, &errb)
	if code != 0 {
		t.Fatalf("reunion-lint on the repo: exit %d\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
}

// TestUsageErrors: unknown analyzers and unloadable directories are
// usage errors (exit 2), not findings.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-run", "nosuch", "./..."}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
	// Every unknown name is reported, in sorted order, whatever order
	// the map of requested names yields them in.
	for i := 0; i < 20; i++ {
		out.Reset()
		errb.Reset()
		if code := Main([]string{"-run", "determinism,nosuch", "./..."}, &out, &errb); code != 2 {
			t.Fatalf("two unknown analyzers: exit %d, want 2", code)
		}
		if want := `unknown analyzers ["determinism" "nosuch"]`; !strings.Contains(errb.String(), want) {
			t.Fatalf("two unknown analyzers: stderr %q, want it to contain %q", errb.String(), want)
		}
		if out.Len() != 0 {
			t.Fatalf("two unknown analyzers: stdout %q, want empty", out.String())
		}
	}
	if code := Main([]string{"-C", "testdata/nosuchdir", "./..."}, &out, &errb); code != 2 {
		t.Errorf("bad directory: exit %d, want 2", code)
	}
}
