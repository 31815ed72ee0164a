package dist

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reunion/internal/sweep"
)

// rec fabricates a deterministic record for global index i, the way the
// engines' records are pure functions of their index.
func rec(i int) sweep.Record {
	return sweep.Record{
		Sweep:   "t",
		Index:   i,
		Labels:  map[string]string{"cell": fmt.Sprintf("c%02d", i/3), "trial": fmt.Sprintf("%d", i%3)},
		Metrics: map[string]float64{"v": float64(i) * 1.5, "sq": float64(i * i)},
	}
}

// refBytes renders the single-process JSONL stream for [0, total).
func refBytes(t *testing.T, total int) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := sweep.NewJSONL(&buf)
	for i := 0; i < total; i++ {
		if err := s.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// shardPlan is the plan of static shard s of n, as the CLIs build it.
func shardPlan(t *testing.T, spec string, total, s, n int) Plan {
	t.Helper()
	lo, hi := ShardRange(total, s, n)
	p, err := NewPlan(spec, total, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// writeShard journals the plan's full range and finishes it.
func writeShard(t *testing.T, path string, p Plan) {
	t.Helper()
	j, err := Create(path, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range p.Indices() {
		if err := j.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
}

// mergeBytes merges paths into memory (no output file).
func mergeBytes(paths []string, strict bool) (*Manifest, []byte, error) {
	var buf bytes.Buffer
	m, err := Merge("", paths, strict, &buf, nil)
	return m, buf.Bytes(), err
}

func TestPlanPartitions(t *testing.T) {
	for _, tc := range []struct{ total, nshards int }{
		{0, 1}, {0, 4}, {1, 1}, {1, 3}, {7, 3}, {8, 3}, {9, 3}, {100, 7}, {5, 8},
	} {
		seen := make([]int, tc.total)
		prevHi := 0
		for s := 0; s < tc.nshards; s++ {
			p := shardPlan(t, "x", tc.total, s, tc.nshards)
			if p.Lo != prevHi {
				t.Fatalf("total=%d n=%d shard %d: lo %d, want contiguous %d", tc.total, tc.nshards, s, p.Lo, prevHi)
			}
			prevHi = p.Hi
			if got := len(p.Indices()); got != p.Count() {
				t.Fatalf("Indices len %d != Count %d", got, p.Count())
			}
			if min, max := tc.total/tc.nshards, (tc.total+tc.nshards-1)/tc.nshards; p.Count() < min || p.Count() > max {
				t.Fatalf("total=%d n=%d shard %d: count %d outside [%d,%d]", tc.total, tc.nshards, s, p.Count(), min, max)
			}
			for _, i := range p.Indices() {
				seen[i]++
			}
		}
		if prevHi != tc.total {
			t.Fatalf("total=%d n=%d: shards end at %d", tc.total, tc.nshards, prevHi)
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("total=%d n=%d: index %d covered %d times", tc.total, tc.nshards, i, n)
			}
		}
	}
}

func TestNewPlanRejectsBadShapes(t *testing.T) {
	for _, bad := range []struct{ total, lo, hi int }{
		{-1, 0, 0}, {10, -1, 3}, {10, 3, 11}, {10, 7, 3},
	} {
		if _, err := NewPlan("t", bad.total, bad.lo, bad.hi); err == nil {
			t.Errorf("NewPlan(total=%d, [%d,%d)) accepted", bad.total, bad.lo, bad.hi)
		}
	}
	if _, err := NewPlan("t", 10, 5, 5); err != nil {
		t.Errorf("empty range rejected: %v", err)
	}
	if _, err := Create(filepath.Join(t.TempDir(), "j.jsonl"), Plan{Spec: "t", Total: 4, Lo: 2, Hi: 9}); err == nil {
		t.Fatal("Create accepted an invalid plan")
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in             string
		shard, nshards int
		ok             bool
	}{
		{"", 0, 1, true},
		{"0/1", 0, 1, true},
		{"2/3", 2, 3, true},
		{" 1 / 4 ", 1, 4, true},
		{"3/3", 0, 0, false},
		{"-1/3", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
		{"1/0", 0, 0, false},
	} {
		s, n, err := ParseShard(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseShard(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && (s != tc.shard || n != tc.nshards) {
			t.Fatalf("ParseShard(%q) = %d/%d, want %d/%d", tc.in, s, n, tc.shard, tc.nshards)
		}
	}
}

func TestMergeByteIdentical(t *testing.T) {
	const total, nshards = 17, 4
	dir := t.TempDir()
	var paths []string
	for s := 0; s < nshards; s++ {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", s))
		writeShard(t, path, shardPlan(t, "t", total, s, nshards))
		paths = append(paths, path)
	}
	// Shuffled path order must not matter.
	shuffled := []string{paths[2], paths[0], paths[3], paths[1]}
	m, got, err := mergeBytes(shuffled, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Success() || m.Records != total || m.Spec != "t" || len(m.Missing) != 0 {
		t.Fatalf("manifest = %+v", m)
	}
	if !bytes.Equal(got, refBytes(t, total)) {
		t.Fatal("merged stream differs from single-process stream")
	}

	out := filepath.Join(dir, "merged.jsonl")
	var tee bytes.Buffer
	if _, err := Merge(out, paths, true, &tee, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tee.Bytes(), refBytes(t, total)) {
		t.Fatal("tee differs from the merged bytes")
	}
	file, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, refBytes(t, total)) {
		t.Fatal("merged file differs from single-process stream")
	}
}

func TestMergeEmptyShards(t *testing.T) {
	// More shards than records: some ranges are empty, seal with a
	// zero-count footer, and the merge must still reassemble the full
	// stream.
	const total, nshards = 2, 5
	dir := t.TempDir()
	var paths []string
	for s := 0; s < nshards; s++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", s))
		writeShard(t, path, shardPlan(t, "t", total, s, nshards))
		paths = append(paths, path)
	}
	m, got, err := mergeBytes(paths, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Success() || !bytes.Equal(got, refBytes(t, total)) {
		t.Fatalf("merged stream differs (manifest %+v)", m)
	}
}

func TestJournalResumeAfterCleanKill(t *testing.T) {
	p := shardPlan(t, "t", 10, 1, 2) // indices 5..9
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range p.Indices()[:2] {
		if err := j.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil { // kill between records: no footer
		t.Fatal(err)
	}

	j2, err := Open(path, p)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Complete() || j2.Done() != 2 {
		t.Fatalf("resume: complete=%v done=%d, want incomplete done=2", j2.Complete(), j2.Done())
	}
	if got, want := j2.Remaining(), p.Indices()[2:]; len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("Remaining = %v, want %v", got, want)
	}
	for _, i := range j2.Remaining() {
		if err := j2.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Finish(); err != nil {
		t.Fatal(err)
	}

	// A finished range resumes as complete, and writes are refused.
	j3, err := Open(path, p)
	if err != nil {
		t.Fatal(err)
	}
	if !j3.Complete() || j3.Done() != p.Count() {
		t.Fatalf("finished journal: complete=%v done=%d", j3.Complete(), j3.Done())
	}
	if err := j3.Write(rec(5)); err == nil {
		t.Fatal("write to a complete journal succeeded")
	}
	if err := j3.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalResumeAfterMidRecordKill(t *testing.T) {
	p := shardPlan(t, "t", 6, 0, 1)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeShard(t, path, p)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Chop into the footer AND the last record: the torn tail must be
	// dropped, the last record recomputed, the footer rewritten.
	if err := os.WriteFile(path, want[:len(want)-80], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path, p)
	if err != nil {
		t.Fatal(err)
	}
	if j.Complete() {
		t.Fatal("truncated journal reported complete")
	}
	if j.Done() >= p.Count() {
		t.Fatalf("done=%d after truncation of the last record", j.Done())
	}
	for _, i := range j.Remaining() {
		if err := j.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed journal differs from the straight-through journal")
	}
}

func TestJournalRejectsWrongPlanAndOrder(t *testing.T) {
	p := shardPlan(t, "t", 10, 0, 2)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeShard(t, path, p)

	if _, err := Open(path, shardPlan(t, "t", 10, 1, 2)); err == nil {
		t.Fatal("journal resumed under a different range")
	}
	if _, err := Open(path, shardPlan(t, "u", 10, 0, 2)); err == nil {
		t.Fatal("journal resumed under a different spec")
	}

	j, err := Create(filepath.Join(t.TempDir(), "k.jsonl"), shardPlan(t, "t", 10, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(rec(0)); err == nil { // shard 1 starts at 5
		t.Fatal("out-of-order record accepted")
	}
	if err := j.Finish(); err == nil {
		t.Fatal("Finish on an incomplete journal succeeded")
	}
	j.Close()

	// A record past the range is refused even when it is next in order.
	full, err := Create(filepath.Join(t.TempDir(), "f.jsonl"), shardPlan(t, "t", 10, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := full.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.Write(rec(5)); err == nil {
		t.Fatal("record past the range accepted")
	}
	full.Close()
}

func TestJournalCorruptFooterFailsLoudly(t *testing.T) {
	p := shardPlan(t, "t", 4, 0, 1)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeShard(t, path, p)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one hex digit inside the footer checksum (keeping the line a
	// complete, parseable footer).
	s := string(b)
	i := strings.LastIndex(s, `"crc64":"`) + len(`"crc64":"`)
	flip := byte('0')
	if s[i] == '0' {
		flip = 'f'
	}
	corrupted := []byte(s[:i] + string(flip) + s[i+1:])
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, p); err == nil {
		t.Fatal("resume accepted a checksum-mismatched footer")
	}
	if _, _, err := mergeBytes([]string{path}, true); err == nil {
		t.Fatal("merge accepted a checksum-mismatched footer")
	}
}

func TestMergeRejectsBadShardSets(t *testing.T) {
	const total, nshards = 9, 3
	dir := t.TempDir()
	paths := make([]string, nshards)
	for s := 0; s < nshards; s++ {
		paths[s] = filepath.Join(dir, fmt.Sprintf("s%d.jsonl", s))
		writeShard(t, paths[s], shardPlan(t, "t", total, s, nshards))
	}

	if _, _, err := mergeBytes(paths[:2], true); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("merge accepted a missing shard: %v", err)
	}
	if _, _, err := mergeBytes([]string{paths[0], paths[1], paths[1]}, true); err == nil {
		t.Fatal("merge accepted a duplicate shard")
	}
	if _, _, err := mergeBytes(nil, true); err == nil {
		t.Fatal("merge accepted zero journals")
	}

	// An unfinished journal (no footer) must be rejected, not merged —
	// and a failed strict merge leaves no output file behind.
	p0 := shardPlan(t, "t", total, 0, nshards)
	unfinished := filepath.Join(dir, "unfinished.jsonl")
	j, err := Create(unfinished, p0)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range p0.Indices() {
		if err := j.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	out := filepath.Join(dir, "merged.jsonl")
	if _, err := Merge(out, []string{unfinished, paths[1], paths[2]}, true, nil, nil); err == nil || !strings.Contains(err.Error(), "no footer") {
		t.Fatalf("merge accepted a footerless journal: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("failed strict merge left an output file: %v", err)
	}

	// A journal from a different run mixed in.
	otherPath := filepath.Join(dir, "other.jsonl")
	writeShard(t, otherPath, shardPlan(t, "other", total, 0, nshards))
	if _, _, err := mergeBytes([]string{otherPath, paths[1], paths[2]}, true); err == nil {
		t.Fatal("merge accepted a journal from a different spec")
	}
}

// TestFingerprintPinsRunConfiguration: a journal written under one run
// configuration must refuse to resume — and merge must refuse to mix —
// a plan whose fingerprint differs, even when spec name, size, and
// range all coincide (e.g. the same CLI matrix with one flag changed).
func TestFingerprintPinsRunConfiguration(t *testing.T) {
	if Fingerprint("a", "bc") == Fingerprint("ab", "c") {
		t.Fatal("fingerprint is not length-delimited")
	}
	const total, nshards = 6, 2
	dir := t.TempDir()
	mkPlan := func(s int, fp uint64) Plan {
		p := shardPlan(t, "t", total, s, nshards)
		p.Fingerprint = fp
		return p
	}
	fpA := Fingerprint("latencies:0,10")
	fpB := Fingerprint("latencies:0,20")

	path := filepath.Join(dir, "s0.jsonl")
	j, err := Create(path, mkPlan(0, fpA))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Write(rec(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := Open(path, mkPlan(0, fpB)); err == nil {
		t.Fatal("journal resumed under a different run fingerprint")
	}
	jr, err := Open(path, mkPlan(0, fpA))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range jr.Remaining() {
		if err := jr.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Finish(); err != nil {
		t.Fatal(err)
	}

	other := filepath.Join(dir, "s1.jsonl")
	writeShard(t, other, mkPlan(1, fpB))
	if _, _, err := mergeBytes([]string{path, other}, true); err == nil {
		t.Fatal("merge mixed shards from runs with different fingerprints")
	}
}

// TestShortSealedJournalFailsBothEnds: a footer self-consistent with a
// payload that is shorter than the journal's range must be rejected by
// resume exactly as merge rejects it — "complete" must mean the same
// thing at both ends of the contract.
func TestShortSealedJournalFailsBothEnds(t *testing.T) {
	p := shardPlan(t, "t", 6, 0, 1)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range p.Indices()[:2] {
		if err := j.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close() // 2 of 6 records, no footer

	// Hand-seal the short journal with a footer that matches its payload.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	crc := crc64.New(crcTable)
	for _, l := range lines[1:] { // skip header
		crc.Write(l)
	}
	foot := fmt.Sprintf(`{"dist_footer":{"count":2,"crc64":"%s"}}`+"\n", crcHex(crc))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(foot); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(path, p); err == nil {
		t.Fatal("resume accepted a sealed journal shorter than its range")
	}
	if _, _, err := mergeBytes([]string{path}, true); err == nil {
		t.Fatal("merge accepted a sealed journal shorter than its range")
	}
}

// TestFailedRecordsSurviveResume: error records journaled before a kill
// still count after resume, so a CLI exit code reflects the whole
// range, not just the post-resume records.
func TestFailedRecordsSurviveResume(t *testing.T) {
	p := shardPlan(t, "t", 4, 0, 1)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Create(path, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := rec(0)
	bad.Err = "boom"
	bad.Metrics = nil
	if err := j.Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(rec(1)); err != nil {
		t.Fatal(err)
	}
	if j.Failed() != 1 {
		t.Fatalf("Failed = %d before kill, want 1", j.Failed())
	}
	j.Close()

	j2, err := Open(path, p)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Failed() != 1 {
		t.Fatalf("Failed = %d after resume, want 1", j2.Failed())
	}
	for _, i := range j2.Remaining() {
		if err := j2.Write(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Finish(); err != nil {
		t.Fatal(err)
	}
	if j2.Failed() != 1 {
		t.Fatalf("Failed = %d after Finish, want 1", j2.Failed())
	}
}

// TestV1JournalRefused: a journal of the previous format is refused by
// resume and by merge with an error that names its format.
func TestV1JournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.jsonl")
	v1 := `{"dist_header":{"format":"reunion-dist-journal/1","spec":"t","shard":0,"nshards":1,"total":1}}` + "\n" +
		`{"sweep":"t","index":0,"labels":{}}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, shardPlan(t, "t", 1, 0, 1)); err == nil || !strings.Contains(err.Error(), "reunion-dist-journal/1") {
		t.Fatalf("resume of a v1 journal: %v", err)
	}
	if _, _, err := mergeBytes([]string{path}, false); err == nil || !strings.Contains(err.Error(), "reunion-dist-journal/1") {
		t.Fatalf("merge of a v1 journal: %v", err)
	}
}
