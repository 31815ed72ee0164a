package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown -experiment is a usage error that lists the valid names,
// not a silent no-op — including the retired host-performance
// experiments, whose job the bench/ module now does.
func TestUnknownExperimentExits2(t *testing.T) {
	for _, name := range []string{"fig55", "throughput"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", name}, &stdout, &stderr); code != 2 {
			t.Errorf("-experiment %s: exit %d, want 2", name, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-experiment %s: wrote to stdout: %q", name, stdout.String())
		}
		for _, want := range []string{`unknown experiment "` + name + `"`, "fig5", "topology", "'all'"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-experiment %s: stderr %q missing %q", name, stderr.String(), want)
			}
		}
	}
}

func TestConfigPrintsTable1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "config"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-experiment config: exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"Table 1: simulated baseline CMP parameters", "logical processors", "(config finished in "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}
