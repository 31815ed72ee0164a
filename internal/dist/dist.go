// Package dist distributes the experiment matrices across processes and
// machines and makes long campaigns resumable.
//
// The sweep and campaign engines flatten their matrices into one index
// space — cells for a sweep, cells × trials for a fault campaign — where
// every index is a pure function of the spec, never of scheduling. That
// purity is what makes distribution trivial to get right: a Plan names
// one contiguous range [Lo, Hi) of [0, Total), and any worker can run its
// range with no coordination beyond agreeing on the spec. A static
// -shard i/n is just the range ShardRange computes.
//
// Each range streams its records through a Journal: a JSONL file framed
// by a header (identifying the run and the range) and a footer (record
// count + CRC-64 of the payload bytes). Appends happen in index order, so
// an interrupted range resumes from its last complete record — a torn
// final line is discarded and recomputed, which is safe because every
// record is a deterministic function of its index.
//
// Merge reassembles range journals into one stream that is byte-identical
// to the single-process run, verifying record-by-record (index sequence,
// payload checksum) and the tiling of [0, Total), and returns a Manifest
// accounting for every index. The merged bytes carry no trace of how
// many ranges produced them.
package dist

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// Plan is one contiguous range [Lo, Hi) of a run's flattened index
// space [0, Total).
//
// Contiguity is deliberate: the matrices enumerate trials of a cell (and
// cells of a workload) adjacently, so a contiguous range keeps a worker's
// trials on as few cells as possible — each worker warms only the
// checkpoints its own cells need — and lets Merge reassemble the
// single-process stream by validated concatenation.
//
// A journal header carries the plan in these JSON fields.
type Plan struct {
	// Spec names the run (sweep or campaign spec name).
	Spec string `json:"spec"`
	// Fingerprint pins the run's full configuration — everything that
	// determines the record bytes, not just the spec's (often constant)
	// name. Journals and merges refuse to mix plans whose fingerprints
	// differ, so a range resumed or merged under different flags that
	// happen to produce the same name and total fails loudly instead of
	// silently interleaving records from two different experiments. Set
	// it with Fingerprint over the run's defining strings; zero means
	// "unpinned" (library callers that construct specs in one process).
	Fingerprint uint64 `json:"fingerprint"`
	// Total is the size of the flattened index space.
	Total int `json:"total"`
	// Lo and Hi bound this plan's range. An empty range (Lo == Hi) is
	// legal: a static shard of a run smaller than its shard count.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// NewPlan validates and returns the plan for the range [lo, hi) of a
// total-index run.
func NewPlan(spec string, total, lo, hi int) (Plan, error) {
	p := Plan{Spec: spec, Total: total, Lo: lo, Hi: hi}
	return p, p.validate()
}

func (p Plan) validate() error {
	if p.Lo < 0 || p.Lo > p.Hi || p.Hi > p.Total {
		return fmt.Errorf("dist: range [%d,%d) invalid for total %d", p.Lo, p.Hi, p.Total)
	}
	return nil
}

// Count returns the number of indices in the range.
func (p Plan) Count() int { return p.Hi - p.Lo }

// Indices enumerates the range's global indices in ascending order — the
// order a worker runs and journals them.
func (p Plan) Indices() []int {
	out := make([]int, p.Count())
	for k := range out {
		out[k] = p.Lo + k
	}
	return out
}

// String renders the range for progress messages: "range [8,16) of 24".
func (p Plan) String() string {
	return fmt.Sprintf("range [%d,%d) of %d", p.Lo, p.Hi, p.Total)
}

// ShardRange returns static shard i of n of a total-index run:
// [total*i/n, total*(i+1)/n). The shards partition [0, total) exactly,
// with sizes differing by at most one.
func ShardRange(total, i, n int) (lo, hi int) {
	return total * i / n, total * (i + 1) / n
}

// Fingerprint hashes the given strings (FNV-1a 64, length-delimited)
// into a Plan.Fingerprint. Callers pass every run parameter that shapes
// the record stream — the spec's axes and values, the base
// configuration, campaign draw parameters — but nothing that provably
// does not (e.g. the simulation kernel, whose outputs are bit-identical
// by contract and A/B-compared through equal journals in CI).
func Fingerprint(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // delimit, so ("ab","c") != ("a","bc")
	}
	return h.Sum64()
}

// ParseShard parses a -shard flag value "i/n" (e.g. "0/3"). The empty
// string means unsharded: 0/1.
func ParseShard(s string) (shard, nshards int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	lo, hi, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("dist: shard %q is not of the form i/n", s)
	}
	shard, err = strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return 0, 0, fmt.Errorf("dist: shard %q: %w", s, err)
	}
	nshards, err = strconv.Atoi(strings.TrimSpace(hi))
	if err != nil {
		return 0, 0, fmt.Errorf("dist: shard %q: %w", s, err)
	}
	if nshards < 1 {
		return 0, 0, fmt.Errorf("dist: shard %q: need at least 1 shard", s)
	}
	if shard < 0 || shard >= nshards {
		return 0, 0, fmt.Errorf("dist: shard %q: index out of range [0,%d)", s, nshards)
	}
	return shard, nshards, nil
}
