package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
		{"negative latency", "reunion", "apache", "-5", "global", "hardware", "tso", "1", "1"},
		{"interval", "reunion", "apache", "10", "global", "hardware", "tso", "one", "1"},
		{"zero interval", "reunion", "apache", "10", "global", "hardware", "tso", "0", "1"},
		{"negative interval", "reunion", "apache", "10", "global", "hardware", "tso", "-2", "1"},
		{"seed", "reunion", "apache", "10", "global", "hardware", "tso", "1", "-1x"},
	}
	for _, c := range cases {
		if _, err := buildSpec(c.modes, c.workloads, c.lats, c.phantoms, c.tlbs,
			c.consistencies, c.intervals, c.seeds, 100, 100, reunion.KernelFastForward); err == nil {
			t.Errorf("%s: bad value accepted", c.name)
		}
	}
	// A cycle count below 1 is not the Options default 0 stands for.
	for _, c := range []struct {
		name          string
		warm, measure int64
	}{
		{"zero warm", 0, 100},
		{"negative warm", -1, 100},
		{"zero measure", 100, 0},
		{"negative measure", 100, -5},
	} {
		if _, err := buildSpec("reunion", "apache", "10", "global", "hardware", "tso", "1", "1",
			c.warm, c.measure, reunion.KernelFastForward); err == nil {
			t.Errorf("%s: bad value accepted", c.name)
		}
	}
}

// The matrix vocabulary at the default flags — spec, axis and value
// names, and the point names built from them — is what journal
// fingerprints and results records carry, so it must not drift.
func TestBuildSpecVocabulary(t *testing.T) {
	spec, err := buildSpec("non-redundant,strict,reunion", "all", "10", "global", "hardware",
		"tso", "1", "1", 100_000, 50_000, reunion.KernelFastForward)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"spec:paper-matrix",
		"axis:workload", "apache", "zeus", "db2-oltp", "oracle-oltp", "dss-q1", "dss-q2", "dss-q17",
		"em3d", "moldyn", "ocean", "sparse",
		"axis:mode", "non-redundant", "strict", "reunion", "axis:latency", "10",
		"axis:phantom", "global", "axis:tlb", "hardware", "axis:consistency", "tso",
		"axis:interval", "1", "axis:seed", "1"}
	if got := spec.FingerprintParts(); !reflect.DeepEqual(got, want) {
		t.Errorf("FingerprintParts:\n got %q\nwant %q", got, want)
	}
	for i, want := range map[int]string{
		0:  "workload=apache,mode=non-redundant,latency=10,phantom=global,tlb=hardware,consistency=tso,interval=1,seed=1",
		32: "workload=sparse,mode=reunion,latency=10,phantom=global,tlb=hardware,consistency=tso,interval=1,seed=1",
	} {
		if got := spec.Point(i).Name(); got != want {
			t.Errorf("point %d: %q, want %q", i, got, want)
		}
	}
	if spec.Size() != 33 {
		t.Errorf("matrix size %d, want 33", spec.Size())
	}
	// The journal fingerprint at the default flags, base:%+v part
	// included, is what every journal written at them carries: if the
	// parts or the rendering of Options drift, no interrupted journal
	// resumes and no shard merges with an older one.
	if got, want := journalFingerprint(t, "-shard", "0/34"), uint64(13283934820806580138); got != want {
		t.Errorf("default journal fingerprint %d, want %d", got, want)
	}
}

// journalFingerprint runs the command on an empty shard (more shards
// than indices), which writes a journal header and runs nothing, and
// returns the fingerprint the header carries.
func journalFingerprint(t *testing.T, args ...string) uint64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	var stderr bytes.Buffer
	if code := run(append(args, "-quiet", "-journal", path), io.Discard, &stderr); code != 0 {
		t.Fatalf("%q: exit %d, stderr %q", args, code, stderr.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Header struct {
			Fingerprint uint64 `json:"fingerprint"`
		} `json:"dist_header"`
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if err := json.Unmarshal(line, &h); err != nil {
		t.Fatalf("journal header %q: %v", line, err)
	}
	return h.Header.Fingerprint
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

// Stdout carries only the table; the timing line goes to stderr, so
// stdout is comparable byte for byte between runs.
func TestConfigPrintsTable1(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-experiment", "config"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-experiment config: exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"Table 1: simulated baseline CMP parameters", "logical processors"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	if strings.Contains(stdout.String(), "finished in") {
		t.Errorf("timing line on stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "(config finished in ") {
		t.Errorf("stderr missing the timing line: %q", stderr.String())
	}
}

// An experiment fixes its own matrix and output, so a flag that would
// shape either is a usage error, as are -full alone and an unknown name.
// None of them may create a results file.
func TestExperimentUsageErrorsExit2(t *testing.T) {
	t.Chdir(t.TempDir())
	cases := [][]string{
		{"-full"},
		{"-full", "-modes", "reunion"},
		{"-experiment", "nope"},
		{"-experiment", "config", "-modes", "reunion"},
		{"-experiment", "config", "-workloads", "apache"},
		{"-experiment", "config", "-latencies", "0"},
		{"-experiment", "config", "-phantoms", "null"},
		{"-experiment", "config", "-tlbs", "software"},
		{"-experiment", "config", "-consistencies", "sc"},
		{"-experiment", "config", "-intervals", "5"},
		{"-experiment", "config", "-seeds", "2"},
		{"-experiment", "config", "-warm", "10"},
		{"-experiment", "config", "-measure", "10"},
		{"-experiment", "config", "-out", "x.jsonl"},
		{"-experiment", "config", "-format", "csv"},
		{"-experiment", "config", "-shard", "0/2"},
		{"-experiment", "config", "-journal", "j.jsonl"},
		{"-experiment", "config", "-resume"},
		{"-experiment", "config", "-ckpt-store", "ckpts"},
		{"-experiment", "config", "-full", "-out", "-"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", args, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: no usage message", args)
		}
		if files, _ := os.ReadDir("."); len(files) != 0 {
			t.Fatalf("%q: created %v", args, files)
		}
	}
}

// A -shard -journal range resumes to the same bytes: -resume recomputes
// a torn tail, and a -resume of the complete journal is an exit-0 no-op
// that leaves the file as it was.
func TestShardJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	args := []string{"-modes", "non-redundant,reunion", "-workloads", "apache,sparse",
		"-warm", "2000", "-measure", "1000", "-quiet", "-shard", "0/2", "-journal", path}
	sweep := func(extra ...string) []byte {
		t.Helper()
		var stderr bytes.Buffer
		if code := run(append(args, extra...), io.Discard, &stderr); code != 0 {
			t.Fatalf("%q: exit %d, stderr %q", extra, code, stderr.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	intact := sweep()
	if err := os.Truncate(path, int64(len(intact)-120)); err != nil {
		t.Fatal(err)
	}
	if got := sweep("-resume"); !bytes.Equal(got, intact) {
		t.Fatalf("resumed journal differs:\n got %s\nwant %s", got, intact)
	}
	if got := sweep("-resume"); !bytes.Equal(got, intact) {
		t.Fatalf("-resume of a complete journal changed it:\n got %s\nwant %s", got, intact)
	}
}
