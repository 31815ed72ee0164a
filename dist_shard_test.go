package reunion

// Distributed-execution acceptance: for both a sweep spec and a fault
// campaign, the merged output of an N-shard run — any per-shard
// parallelism, including a shard killed mid-record and resumed — is
// byte-identical to the single-process JSONL stream. These tests drive
// the same internal/dist Plan/Journal/Merge layer the CLI -shard,
// -journal, -resume flags and reunion-merge use, against real
// simulations (the campaign shards inject real mid-trial faults).

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"reunion/internal/campaign"
	"reunion/internal/dist"
	"reunion/internal/sweep"
)

// truncateFile chops n bytes off the end of a journal — the
// kill-mid-record simulation (it also destroys any footer).
func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= n {
		t.Fatalf("journal %s only has %d bytes, cannot chop %d", path, st.Size(), n)
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// shardPlan is the plan of static shard s of n, as the CLIs' -shard
// flag builds it.
func shardPlan(t *testing.T, spec string, total, s, n int) dist.Plan {
	t.Helper()
	lo, hi := dist.ShardRange(total, s, n)
	plan, err := dist.NewPlan(spec, total, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func shardSweepSpec() sweep.Spec[Options] {
	base := DefaultOptions()
	base.WarmCycles, base.MeasureCycles = 2_000, 1_500
	return sweep.Spec[Options]{
		Name: "shard-sweep",
		Base: base,
		Axes: []sweep.Axis[Options]{
			sweep.NewAxis("workload", []string{"apache", "sparse"},
				func(s string) string { return s },
				func(o *Options, s string) { o.Workload = mustWorkload(s) }),
			sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
				func(o *Options, m Mode) { o.Mode = m }),
			sweep.NewAxis("seed", []uint64{1, 2},
				func(s uint64) string { return strconv.FormatUint(s, 10) },
				func(o *Options, s uint64) { o.Seed = s }),
		},
	}
}

// The sweeps run through SweepRecords, the record encoding the
// reunion-sweep CLI writes, so the test proves exactly what the CLI's
// sharded mode proves.
func TestShardedSweepKillResumeByteIdentical(t *testing.T) {
	spec := shardSweepSpec()
	ctx := context.Background()

	var ref bytes.Buffer
	if err := SweepRecords(ctx, spec, nil, sweep.NewJSONL(&ref), 3, nil, nil); err != nil {
		t.Fatal(err)
	}

	const nshards = 3
	dir := t.TempDir()
	paths := make([]string, nshards)
	runSlice := func(jnl *dist.Journal, par int) {
		t.Helper()
		if err := SweepRecords(ctx, spec, jnl.Remaining(), jnl, par, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	for s := 0; s < nshards; s++ {
		plan := shardPlan(t, spec.Name, spec.Size(), s, nshards)
		paths[s] = filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", s))
		jnl, err := dist.Create(paths[s], plan)
		if err != nil {
			t.Fatal(err)
		}

		switch s {
		case 1:
			// Kill mid-record: complete the slice but crash before Finish,
			// with the last record torn. Resume must recompute only the tail.
			runSlice(jnl, 2)
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			truncateFile(t, paths[s], 33)
			jnl, err = dist.Open(paths[s], plan)
			if err != nil {
				t.Fatal(err)
			}
			if jnl.Done() != plan.Count()-1 {
				t.Fatalf("shard 1 resumed at %d, want %d (one torn record dropped)", jnl.Done(), plan.Count()-1)
			}
			runSlice(jnl, 1)
		case 2:
			// Kill between records: journal one run, crash, resume the rest
			// under a different parallelism.
			if err := SweepRecords(ctx, spec, jnl.Remaining()[:1], jnl, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			jnl, err = dist.Open(paths[s], plan)
			if err != nil {
				t.Fatal(err)
			}
			if jnl.Done() != 1 {
				t.Fatalf("shard 2 resumed at %d, want 1", jnl.Done())
			}
			runSlice(jnl, 3)
		default:
			runSlice(jnl, 2)
		}
		if err := jnl.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	var merged bytes.Buffer
	m, err := dist.Merge("", []string{paths[2], paths[0], paths[1]}, true, &merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != spec.Size() {
		t.Fatalf("merged %d records, want %d", m.Records, spec.Size())
	}
	if !bytes.Equal(merged.Bytes(), ref.Bytes()) {
		t.Fatal("merged shard stream differs from the single-process sweep JSONL")
	}
}

func shardCampaignSpec() campaign.Spec[Options] {
	return campaign.Spec[Options]{
		Matrix: sweep.Spec[Options]{
			Name: "shard-e2e",
			Base: injectTestOptions(),
			Axes: []sweep.Axis[Options]{
				sweep.NewAxis("mode", []Mode{ModeReunion, ModeNonRedundant}, Mode.String,
					func(o *Options, m Mode) { o.Mode = m }),
			},
		},
		Model:         campaign.FaultModel{BitHi: 63, WindowHi: 400},
		Trials:        4,
		Seed:          0xfa017,
		StreamExclude: []string{"mode"},
	}
}

func TestShardedCampaignKillResumeByteIdentical(t *testing.T) {
	spec := shardCampaignSpec()
	model := spec.Model
	total := spec.Matrix.Size() * spec.Trials // 2 cells × 4 trials
	ctx := context.Background()

	var ref bytes.Buffer
	refEng := campaign.Engine[Options]{
		Spec:        spec,
		RunTrial:    TrialRunner(model, NewWarmCache()),
		Parallelism: 2,
		Sink:        sweep.NewJSONL(&ref),
	}
	refRep, err := refEng.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Total.Trials() != int64(total) {
		t.Fatalf("reference classified %d of %d trials", refRep.Total.Trials(), total)
	}

	const nshards = 3
	dir := t.TempDir()
	paths := make([]string, nshards)
	for s := 0; s < nshards; s++ {
		plan := shardPlan(t, spec.Matrix.Name, total, s, nshards)
		paths[s] = filepath.Join(dir, fmt.Sprintf("trialshard-%d.jsonl", s))
		jnl, err := dist.Create(paths[s], plan)
		if err != nil {
			t.Fatal(err)
		}

		warm := NewWarmCache()
		run := func(jnl *dist.Journal) *campaign.Report {
			t.Helper()
			eng := campaign.Engine[Options]{
				Spec:        spec,
				RunTrial:    TrialRunner(model, warm),
				Parallelism: 2,
				Sink:        jnl,
				Indices:     jnl.Remaining(),
			}
			rep, err := eng.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}

		if s == 1 {
			// The kill-mid-trial-record case for a campaign shard: finish
			// the slice (real mid-trial fault injection in every record),
			// crash before Finish with a torn last record, resume.
			run(jnl)
			if err := jnl.Close(); err != nil {
				t.Fatal(err)
			}
			truncateFile(t, paths[s], 41)
			jnl, err = dist.Open(paths[s], plan)
			if err != nil {
				t.Fatal(err)
			}
			if jnl.Complete() || jnl.Done() >= plan.Count() {
				t.Fatalf("shard 1 after truncation: complete=%v done=%d", jnl.Complete(), jnl.Done())
			}
			run(jnl)
		} else {
			run(jnl)
		}
		if err := jnl.Finish(); err != nil {
			t.Fatal(err)
		}

		// Warm locality: a contiguous slice of the cells×trials space must
		// not warm checkpoints for cells outside the shard.
		cells := make(map[int]bool)
		for _, i := range plan.Indices() {
			cells[i/spec.Trials] = true
		}
		if got := warm.Len(); got > len(cells) {
			t.Fatalf("shard %d warmed %d checkpoints for %d cells", s, got, len(cells))
		}
		if got := warm.Len(); got >= spec.Matrix.Size() && len(cells) < spec.Matrix.Size() {
			t.Fatalf("shard %d warmed every cell (%d) despite owning only %d", s, got, len(cells))
		}
	}

	var merged bytes.Buffer
	m, err := dist.Merge("", []string{paths[1], paths[2], paths[0]}, true, &merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != total {
		t.Fatalf("merged %d records, want %d", m.Records, total)
	}
	if !bytes.Equal(merged.Bytes(), ref.Bytes()) {
		t.Fatal("merged campaign shard stream differs from the single-process JSONL")
	}
}
