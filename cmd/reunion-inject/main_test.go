package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The campaign flag parsers must reject malformed input and deduplicate
// repeated axis values (e.g. -seeds 1,1 would run every cell's trials
// twice and skew the coverage averages).

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
	spec, err := buildSpec("reunion,reunion", "apache,apache,ocean", "global,global",
		"1,1,2", "0-63", "", 1000, 500, 60000, 40, 0, 0xfa017)
	if err != nil {
		t.Fatal(err)
	}
	// mode {reunion} × phantom {global} × seed {1,2} × workload {apache,ocean}
	if got, want := spec.Matrix.Size(), 1*1*2*2; got != want {
		t.Errorf("matrix size %d, want %d", got, want)
	}
	if got, want := spec.Trials, 40/4; got != want {
		t.Errorf("trials per cell %d, want %d", got, want)
	}
	for _, axis := range []string{"mode", "phantom", "seed", "workload"} {
		if !strings.Contains(warnings.String(), "duplicate "+axis) {
			t.Errorf("no duplicate warning for axis %s in %q", axis, warnings.String())
		}
	}
}

func TestBuildSpecRejectsBadValues(t *testing.T) {
	cases := []struct {
		name                                            string
		modes, workloads, phantoms, seeds, bits, window string
	}{
		{"mode", "warp", "apache", "global", "1", "0-63", ""},
		{"strict mode", "strict", "apache", "global", "1", "0-63", ""},
		{"workload", "reunion", "nope", "global", "1", "0-63", ""},
		{"phantom", "reunion", "apache", "ghost", "1", "0-63", ""},
		{"seed", "reunion", "apache", "global", "x", "0-63", ""},
		{"bits", "reunion", "apache", "global", "1", "63-0", ""},
		{"window", "reunion", "apache", "global", "1", "0-63", "50-10"},
		{"empty window", "reunion", "apache", "global", "1", "0-63", "100-100"},
		{"empty workloads", "reunion", "", "global", "1", "0-63", ""},
		{"empty modes", ",", "apache", "global", "1", "0-63", ""},
		{"empty phantoms", "reunion", "apache", "", "1", "0-63", ""},
		{"empty seeds", "reunion", "apache", "global", "", "0-63", ""},
	}
	for _, c := range cases {
		if _, err := buildSpec(c.modes, c.workloads, c.phantoms, c.seeds, c.bits,
			c.window, 1000, 500, 60000, 40, 0, 1); err == nil {
			t.Errorf("%s: bad value accepted", c.name)
		}
	}
	// A cycle count below 1 is not the Options default 0 stands for.
	for _, c := range []struct {
		name           string
		warm, deadline int64
	}{
		{"zero warm", 0, 60000},
		{"negative warm", -1, 60000},
		{"zero deadline", 1000, 0},
		{"negative deadline", 1000, -1},
	} {
		if _, err := buildSpec("reunion", "apache", "global", "1", "0-63", "",
			c.warm, 500, c.deadline, 40, 0, 1); err == nil {
			t.Errorf("%s: bad value accepted", c.name)
		}
	}
}

// The campaign vocabulary at the default flags — spec, axis and value
// names, and the cell names built from them — is what journal
// fingerprints and trial records carry, so it must not drift.
func TestBuildSpecVocabulary(t *testing.T) {
	spec, err := buildSpec("reunion,non-redundant", "all", "global", "1", "0-63", "",
		10_000, 2_000, 150_000, 200, 0, 0xfa017)
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Matrix
	want := []string{"spec:inject", "axis:mode", "reunion", "non-redundant",
		"axis:phantom", "global", "axis:seed", "1",
		"axis:workload", "apache", "zeus", "db2-oltp", "oracle-oltp", "dss-q1", "dss-q2", "dss-q17",
		"em3d", "moldyn", "ocean", "sparse"}
	if got := m.FingerprintParts(); !reflect.DeepEqual(got, want) {
		t.Errorf("FingerprintParts:\n got %q\nwant %q", got, want)
	}
	for i, want := range map[int]string{
		0:  "mode=reunion,phantom=global,seed=1,workload=apache",
		21: "mode=non-redundant,phantom=global,seed=1,workload=sparse",
	} {
		if got := m.Point(i).Name(); got != want {
			t.Errorf("cell %d: %q, want %q", i, got, want)
		}
	}
	if m.Size() != 22 || spec.Trials != 9 {
		t.Errorf("%d cells × %d trials, want 22 × 9", m.Size(), spec.Trials)
	}
	// The journal fingerprint at the default flags, base:%+v part
	// included, is what every journal written at them carries: if the
	// parts or the rendering of Options drift, no interrupted journal
	// resumes and no shard merges with an older one.
	if got, want := journalFingerprint(t, "-shard", "0/199"), uint64(2101065049012325232); got != want {
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
// not silently run a partial campaign matrix.
func TestBuildSpecErrorsListValidNames(t *testing.T) {
	_, err := buildSpec("warp", "apache", "global", "1", "0-63", "", 100, 100, 1000, 10, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "reunion, non-redundant") {
		t.Errorf("mode error does not list valid names: %v", err)
	}
	_, err = buildSpec("reunion", "nope", "global", "1", "0-63", "", 100, 100, 1000, 10, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "apache") || !strings.Contains(err.Error(), "sparse") {
		t.Errorf("workload error does not list valid names: %v", err)
	}
	_, err = buildSpec("reunion", "apache", "ghost", "1", "0-63", "", 100, 100, 1000, 10, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "global, shared, null") {
		t.Errorf("phantom error does not list valid names: %v", err)
	}
}

// An unknown -format is a usage error whatever -out says: it exits 2
// before any trial runs or any results file is created, including under
// an empty -out (no results file at all).
func TestUnknownFormatExits2(t *testing.T) {
	file := filepath.Join(t.TempDir(), "inject.xml")
	for _, out := range []string{"", file} {
		code := run([]string{"-out", out, "-format", "xml", "-quiet",
			"-trials", "1", "-mode", "reunion", "-workloads", "apache", "-warm", "1000", "-target", "100"},
			io.Discard, io.Discard)
		if code != 2 {
			t.Errorf("-out %q -format xml: exit %d, want 2", out, code)
		}
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Errorf("rejected run created its results file (stat: %v)", err)
	}
}

// An explicit bit range means itself: -bits 0 flips bit 0 in every
// trial, not the whole 0-63 range the zero value once stood for.
func TestBitsZeroFlipsOnlyBitZero(t *testing.T) {
	out := filepath.Join(t.TempDir(), "inject.jsonl")
	if code := run([]string{"-bits", "0", "-trials", "6", "-mode", "non-redundant", "-workloads", "apache",
		"-warm", "2000", "-target", "300", "-quiet", "-out", out}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var rec struct{ Metrics map[string]float64 }
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if bit, ok := rec.Metrics["bit"]; !ok || bit != 0 {
			t.Errorf("record %d flipped bit %v (present %v), want 0", n, bit, ok)
		}
	}
	if n != 6 {
		t.Errorf("%d records, want 6", n)
	}
}

// A -shard -journal range resumes to the same bytes: -resume recomputes
// a torn tail, and a -resume of the complete journal is an exit-0 no-op
// that leaves the file as it was.
func TestShardJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	args := []string{"-trials", "4", "-mode", "reunion,non-redundant", "-workloads", "apache",
		"-warm", "2000", "-target", "300", "-deadline", "60000", "-quiet", "-shard", "0/2", "-journal", path}
	inject := func(extra ...string) []byte {
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
	intact := inject()
	if err := os.Truncate(path, int64(len(intact)-120)); err != nil {
		t.Fatal(err)
	}
	if got := inject("-resume"); !bytes.Equal(got, intact) {
		t.Fatalf("resumed journal differs:\n got %s\nwant %s", got, intact)
	}
	if got := inject("-resume"); !bytes.Equal(got, intact) {
		t.Fatalf("-resume of a complete journal changed it:\n got %s\nwant %s", got, intact)
	}
}

// Each progress line names its trial once: the point name the campaign
// hands the progress callback already ends in its trial label.
func TestProgressNamesTrialOnce(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-trials", "2", "-mode", "reunion", "-workloads", "apache", "-warm", "2000",
		"-target", "100", "-out", filepath.Join(t.TempDir(), "inject.jsonl")}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	n := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if !strings.HasPrefix(line, "[") {
			continue
		}
		n++
		if c := strings.Count(line, "trial="); c != 1 {
			t.Errorf("progress line names its trial %d times: %q", c, line)
		}
	}
	if n != 2 {
		t.Errorf("%d progress lines, want 2:\n%s", n, stderr.String())
	}
}
