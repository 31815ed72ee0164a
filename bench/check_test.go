package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeMerged writes a merged campaign stream with one record per
// (mode, outcome) pair and returns its path and digest.
func writeMerged(t *testing.T, records [][2]string) (string, string) {
	t.Helper()
	var sb strings.Builder
	for i, r := range records {
		line, err := json.Marshal(map[string]any{
			"sweep": "inject", "index": i,
			"labels": map[string]string{"mode": r[0], "outcome": r[1], "workload": "apache", "trial": "0"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "merged.jsonl")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return path, hex.EncodeToString(sum[:])
}

func newTestBench(pinned string) *bench {
	b := &bench{workload: "campaign", seed: 1, metrics: map[string]metric{}, expected: expectations{}}
	if pinned != "" {
		b.expected.set("campaign", 1, pinned)
	}
	return b
}

func TestCheckMerged(t *testing.T) {
	records := [][2]string{{"reunion", "masked"}, {"reunion", "detected"}, {"non-redundant", "sdc"}, {"non-redundant", "due"}}
	path, digest := writeMerged(t, records)
	doctored := strings.Repeat("0", len(digest))
	for _, tc := range []struct {
		name       string
		pinned     string
		trials     int
		wantFailed int
	}{
		{"pinned digest matches", digest, len(records), 0},
		{"no pinned digest for the seed", "", len(records), 0},
		{"doctored digest", doctored, len(records), 1},
		{"record count differs from trials", digest, len(records) + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newTestBench(tc.pinned)
			b.attempt(tc.trials + 1)
			if err := b.checkMerged(path, tc.trials); err != nil {
				t.Fatal(err)
			}
			if b.failed != tc.wantFailed {
				t.Fatalf("failed = %d, want %d", b.failed, tc.wantFailed)
			}
			setAll(b)
			res, err := b.result(endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct != (tc.wantFailed == 0) {
				t.Errorf("correct = %v with %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestCheckMergedReunionCoverage(t *testing.T) {
	for _, out := range []string{"sdc", "due"} {
		path, _ := writeMerged(t, [][2]string{{"reunion", "detected"}, {"reunion", out}})
		b := newTestBench("")
		if err := b.checkMerged(path, 2); err != nil {
			t.Fatal(err)
		}
		if b.failed != 1 {
			t.Errorf("a reunion-mode %s trial counted %d failures, want 1", out, b.failed)
		}
	}
}

func TestCheckDigestAcrossRounds(t *testing.T) {
	b := newTestBench("")
	if err := b.checkDigest("aa"); err != nil {
		t.Fatal(err)
	}
	if err := b.checkDigest("aa"); err != nil {
		t.Fatal(err)
	}
	if err := b.checkDigest("bb"); err == nil {
		t.Fatal("a round whose output differs from the first round's passed")
	}
}

// setAll gives every reported metric a value with its declared unit.
func setAll(b *bench) {
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		b.set(m.name, m.unit, 1)
	}
}

// TestBenchmarkJSON keeps the metric and workload names the benchmark
// prints in step with the BENCHMARK.json that declares them.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []decl                  `json:"end_to_end"`
		PerLayer  []decl                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	for _, c := range []struct {
		kind     string
		declared []decl
		reported []reported
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, benchmark reports %d", c.kind, len(c.declared), len(c.reported))
			continue
		}
		for i, d := range c.declared {
			if r := c.reported[i]; d.Name != r.name || d.Unit != r.unit {
				t.Errorf("%s[%d]: BENCHMARK.json declares %s (%s), benchmark reports %s (%s)", c.kind, i, d.Name, d.Unit, r.name, r.unit)
			}
		}
	}
}
