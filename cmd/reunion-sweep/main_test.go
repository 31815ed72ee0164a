package main

import (
	"bytes"
	"strings"
	"testing"

	"reunion"
)

// The axis-flag parsers must reject malformed input and deduplicate
// repeated values (a duplicated seed or latency would silently run every
// matching cell twice and skew class averages).

func captureWarnings(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := warnOut
	warnOut = &buf
	t.Cleanup(func() { warnOut = old })
	return &buf
}

func TestBuildSpecDedupesAxisValues(t *testing.T) {
	warnings := captureWarnings(t)
	spec, err := buildSpec("reunion,reunion", "apache,apache,ocean", "10,10,20",
		"global,global", "hardware,hardware", "tso,tso", "1,1", "1,1,2", 100, 100, reunion.KernelFastForward)
	if err != nil {
		t.Fatal(err)
	}
	// workload {apache,ocean} × mode {reunion} × latency {10,20} ×
	// phantom {global} × tlb {hardware} × consistency {tso} ×
	// interval {1} × seed {1,2}
	if got, want := spec.Size(), 2*1*2*1*1*1*1*2; got != want {
		t.Errorf("matrix size %d, want %d", got, want)
	}
	for _, axis := range []string{"mode", "workload", "latency", "phantom", "tlb", "consistency", "interval", "seed"} {
		if !strings.Contains(warnings.String(), "duplicate "+axis) {
			t.Errorf("no duplicate warning for axis %s in %q", axis, warnings.String())
		}
	}
}

func TestBuildSpecNoWarningsWithoutDuplicates(t *testing.T) {
	warnings := captureWarnings(t)
	spec, err := buildSpec("reunion,strict", "apache", "0,10", "global", "hardware", "tso", "1", "1,2", 100, 100, reunion.KernelFastForward)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Size(), 1*2*2*1*1*1*1*2; got != want {
		t.Errorf("matrix size %d, want %d", got, want)
	}
	if warnings.Len() != 0 {
		t.Errorf("unexpected warnings: %q", warnings.String())
	}
}

func TestBuildSpecRejectsBadValues(t *testing.T) {
	cases := []struct {
		name                                                                    string
		modes, workloads, lats, phantoms, tlbs, consistencies, intervals, seeds string
	}{
		{"mode", "warp", "apache", "10", "global", "hardware", "tso", "1", "1"},
		{"workload", "reunion", "nope", "10", "global", "hardware", "tso", "1", "1"},
		{"latency", "reunion", "apache", "ten", "global", "hardware", "tso", "1", "1"},
		{"phantom", "reunion", "apache", "10", "ghost", "hardware", "tso", "1", "1"},
		{"tlb", "reunion", "apache", "10", "global", "firmware", "tso", "1", "1"},
		{"consistency", "reunion", "apache", "10", "global", "hardware", "weak", "1", "1"},
		{"interval", "reunion", "apache", "10", "global", "hardware", "tso", "one", "1"},
		{"seed", "reunion", "apache", "10", "global", "hardware", "tso", "1", "-1x"},
	}
	for _, c := range cases {
		if _, err := buildSpec(c.modes, c.workloads, c.lats, c.phantoms, c.tlbs,
			c.consistencies, c.intervals, c.seeds, 100, 100, reunion.KernelFastForward); err == nil {
			t.Errorf("%s: bad value accepted", c.name)
		}
	}
}

// An unknown axis value must fail fast with the list of valid names —
// not silently run a partial matrix, and not leave the user guessing.
func TestBuildSpecErrorsListValidNames(t *testing.T) {
	_, err := buildSpec("warp", "apache", "10", "global", "hardware", "tso", "1", "1", 100, 100, reunion.KernelFastForward)
	if err == nil || !strings.Contains(err.Error(), "non-redundant, strict, reunion") {
		t.Errorf("mode error does not list valid names: %v", err)
	}
	_, err = buildSpec("reunion", "nope", "10", "global", "hardware", "tso", "1", "1", 100, 100, reunion.KernelFastForward)
	if err == nil || !strings.Contains(err.Error(), "apache") || !strings.Contains(err.Error(), "sparse") {
		t.Errorf("workload error does not list valid names: %v", err)
	}
	_, err = buildSpec("reunion", "apache", "10", "ghost", "hardware", "tso", "1", "1", 100, 100, reunion.KernelFastForward)
	if err == nil || !strings.Contains(err.Error(), "global, shared, null") {
		t.Errorf("phantom error does not list valid names: %v", err)
	}
}
