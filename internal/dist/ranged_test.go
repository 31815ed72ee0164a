package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRange journals [lo,hi) of a total-index run and seals it.
func writeRange(t *testing.T, path string, total, lo, hi int, fp uint64) {
	t.Helper()
	p, err := NewPlan("t", total, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	p.Fingerprint = fp
	writeShard(t, path, p)
}

// A plan is an explicit slice [lo,hi) of the run: NewPlan refuses
// slices outside [0,total) and the plan's arithmetic enumerates exactly
// the slice.
func TestNewRangeValidates(t *testing.T) {
	for _, bad := range []struct{ total, lo, hi int }{
		{-1, 0, 1}, {10, -1, 3}, {10, 3, 11}, {10, 7, 3},
	} {
		if _, err := NewPlan("t", bad.total, bad.lo, bad.hi); err == nil {
			t.Errorf("NewPlan(total=%d, [%d,%d)) accepted", bad.total, bad.lo, bad.hi)
		}
	}
	p, err := NewPlan("t", 10, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Count() != 4 || len(p.Indices()) != 4 || p.Indices()[0] != 3 || p.Indices()[3] != 6 {
		t.Fatalf("ranged plan arithmetic wrong: %+v", p)
	}
	if got := p.String(); got != "range [3,7) of 10" {
		t.Fatalf("String() = %q", got)
	}
}

// A set of range journals of any sizes tiling [0,Total) merges to the
// exact single-process stream — the byte-identity invariant of a
// sharded run, at the dist layer.
func TestRangedMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const total = 11
	bounds := [][2]int{{0, 4}, {4, 5}, {5, 9}, {9, 11}}
	var paths []string
	for _, b := range bounds {
		path := filepath.Join(dir, fmt.Sprintf("r-%d-%d.jsonl", b[0], b[1]))
		writeRange(t, path, total, b[0], b[1], 7)
		paths = append(paths, path)
	}
	// Shuffle the order: merge must order by range, not by argument.
	paths[0], paths[2] = paths[2], paths[0]

	m, got, err := mergeBytes(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != total || !m.Success() {
		t.Fatalf("manifest = %+v", m)
	}
	if want := refBytes(t, total); !bytes.Equal(got, want) {
		t.Fatalf("ranged merge differs from single-process stream:\n%s\nwant:\n%s", got, want)
	}
}

func TestRangedMergeRejectsGapsOverlapsAndMixes(t *testing.T) {
	dir := t.TempDir()
	const total = 10
	mk := func(name string, lo, hi int) string {
		path := filepath.Join(dir, name)
		writeRange(t, path, total, lo, hi, 7)
		return path
	}
	a := mk("a.jsonl", 0, 4)
	b := mk("b.jsonl", 4, 10)
	overlap := mk("o.jsonl", 3, 6)
	short := mk("s.jsonl", 4, 9)

	if _, _, err := mergeBytes([]string{a, short}, true); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("gap accepted: %v", err)
	}
	if _, _, err := mergeBytes([]string{a, overlap, b}, true); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap accepted: %v", err)
	}

	// A journal of a different-sized run mixed in must fail.
	bigger := filepath.Join(dir, "bigger.jsonl")
	writeRange(t, bigger, total+1, 4, 11, 7)
	if _, _, err := mergeBytes([]string{a, bigger}, false); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("different-run mix accepted: %v", err)
	}

	// A journal from a differently-configured run must fail.
	alien := filepath.Join(dir, "alien.jsonl")
	writeRange(t, alien, total, 0, 4, 8)
	if _, _, err := mergeBytes([]string{alien, b}, false); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch accepted: %v", err)
	}
}

// A non-strict merge writes every verified range, and the manifest
// accounts for exactly the rest.
func TestMergePartialManifest(t *testing.T) {
	dir := t.TempDir()
	const total = 12
	a := filepath.Join(dir, "a.jsonl")
	c := filepath.Join(dir, "c.jsonl")
	bad := filepath.Join(dir, "bad.jsonl")
	writeRange(t, a, total, 0, 4, 7)
	writeRange(t, c, total, 8, 10, 7)
	writeRange(t, bad, total, 10, 12, 7)
	// Corrupt the sealed journal: flip a payload byte so the footer CRC
	// contradicts it.
	blob, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	blob[bytes.IndexByte(blob, '\n')+5] ^= 1
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m, out, err := mergeBytes([]string{a, c, bad}, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Outcome != OutcomePartial || m.Success() {
		t.Fatalf("outcome = %q", m.Outcome)
	}
	if m.Records != 6 {
		t.Errorf("records = %d, want 6", m.Records)
	}
	wantMissing := []IndexRange{{4, 8}, {10, 12}}
	if len(m.Missing) != 2 || m.Missing[0] != wantMissing[0] || m.Missing[1] != wantMissing[1] {
		t.Errorf("missing = %+v, want %+v", m.Missing, wantMissing)
	}
	if len(m.Failed) != 1 || m.Failed[0].Path != bad || m.Failed[0].Range != (IndexRange{10, 12}) {
		t.Errorf("failed = %+v", m.Failed)
	}

	// The output holds exactly the verified ranges, in index order.
	var want bytes.Buffer
	all := refBytes(t, total)
	lines := bytes.SplitAfter(all, []byte("\n"))
	for _, i := range []int{0, 1, 2, 3, 8, 9} {
		want.Write(lines[i])
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatalf("partial output:\n%s\nwant:\n%s", out, want.Bytes())
	}

	// The same set merged strictly is an error that names the holes.
	if _, _, err := mergeBytes([]string{a, c, bad}, true); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("strict merge of a partial set: %v", err)
	}

	// Nothing verified: the outcome is failed.
	if m, _, err := mergeBytes([]string{bad}, false); err != nil || m.Outcome != OutcomeFailed || m.Records != 0 {
		t.Errorf("all-failed set: %+v, %v", m, err)
	}

	// A complete set reports success with an empty accounting.
	b := filepath.Join(dir, "b.jsonl")
	d := filepath.Join(dir, "d.jsonl")
	writeRange(t, b, total, 4, 8, 7)
	writeRange(t, d, total, 10, 12, 7)
	m, out, err = mergeBytes([]string{a, b, c, d}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Success() || m.Records != total || len(m.Missing) != 0 || len(m.Failed) != 0 {
		t.Fatalf("complete set: %+v", m)
	}
	if !bytes.Equal(out, all) {
		t.Fatal("complete non-strict merge is not the single-process stream")
	}

	// Overlapping verified journals are a corrupt set, not a partial one.
	o := filepath.Join(dir, "o.jsonl")
	writeRange(t, o, total, 2, 6, 7)
	if _, _, err := mergeBytes([]string{a, o}, false); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping set: %v", err)
	}
}

func TestMergePartialFileWritesManifest(t *testing.T) {
	dir := t.TempDir()
	const total = 6
	a := filepath.Join(dir, "a.jsonl")
	writeRange(t, a, total, 0, 4, 7)

	out := filepath.Join(dir, "merged.jsonl")
	manifest := filepath.Join(dir, "merged.manifest.json")
	m, err := Merge(out, []string{a}, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Outcome != OutcomePartial || m.Records != 4 {
		t.Fatalf("manifest = %+v", m)
	}
	if err := m.WriteFile(manifest); err != nil {
		t.Fatal(err)
	}
	ob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes(t, total), []byte("\n"))
	if want := bytes.Join(lines[:4], nil); !bytes.Equal(ob, want) {
		t.Fatalf("partial file content:\n%s\nwant:\n%s", ob, want)
	}
	mb, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(mb, &back); err != nil {
		t.Fatalf("manifest is not JSON: %v\n%s", err, mb)
	}
	if back.Outcome != OutcomePartial || len(back.Missing) != 1 || back.Missing[0] != (IndexRange{4, 6}) {
		t.Fatalf("manifest round trip: %+v", back)
	}
}
