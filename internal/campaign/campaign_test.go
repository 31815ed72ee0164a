package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reunion/internal/sweep"
)

// fakeCell is the cell configuration of the test campaigns.
type fakeCell struct {
	Mode     string
	Workload string
}

func fakeMatrix() sweep.Spec[fakeCell] {
	return sweep.Spec[fakeCell]{
		Name: "fake",
		Axes: []sweep.Axis[fakeCell]{
			sweep.NewAxis("mode", []string{"reunion", "non-redundant"},
				func(s string) string { return s },
				func(c *fakeCell, s string) { c.Mode = s }),
			sweep.NewAxis("workload", []string{"w1", "w2", "w3"},
				func(s string) string { return s },
				func(c *fakeCell, s string) { c.Workload = s }),
		},
	}
}

// fakeRun is a pure trial runner: the observation depends only on the
// cell and the draw, never on scheduling.
func fakeRun(_ context.Context, cell sweep.Point[fakeCell], t Trial) Observation {
	o := Observation{Completed: true, DigestOK: true, Armed: true, Core: t.Core(8)}
	o.Fired = t.Bit%4 != 0 // a quarter of the faults die unconsumed
	if !o.Fired {
		return o
	}
	o.FireCycle = t.Cycle
	if cell.Config.Mode == "reunion" {
		o.Detected = true
		o.LatencyCycles = int64(t.Bit) + 10
		o.LatencyInstrs = int64(t.Bit) / 8
		o.Squashed = 1
		return o
	}
	o.Retired = 1
	if t.Bit%2 == 0 {
		o.GoldenDigest = 1 // digest mismatch → SDC
	}
	return o
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		o    Observation
		want Outcome
	}{
		{"error", Observation{Err: errors.New("boom")}, DUE},
		{"unrecoverable", Observation{Unrecoverable: true, Completed: true, DigestOK: true}, DUE},
		{"deadline", Observation{Completed: false, DigestOK: true}, DUE},
		{"no-digest", Observation{Completed: true, DigestOK: false}, DUE},
		{"detected", Observation{Completed: true, DigestOK: true, Fired: true, Detected: true}, Detected},
		{"unfired", Observation{Completed: true, DigestOK: true, Fired: false}, Masked},
		{"digest-match", Observation{Completed: true, DigestOK: true, Fired: true, Digest: 7, GoldenDigest: 7}, Masked},
		{"digest-mismatch", Observation{Completed: true, DigestOK: true, Fired: true, Digest: 7, GoldenDigest: 8}, SDC},
		{"detected-then-lost", Observation{Completed: false, DigestOK: true, Fired: true, Detected: true}, DUE},
		// A recovered run may legitimately diverge from golden through
		// racy shared memory as long as the flip itself was squashed...
		{"detected-race-divergence", Observation{Completed: true, DigestOK: true, Fired: true, Detected: true,
			Digest: 7, GoldenDigest: 8, Squashed: 1}, Detected},
		// ...but a flip that retired (aliased past the fingerprint) with a
		// diverged digest is corruption, whatever a later recovery claimed.
		{"detected-but-retired-corruption", Observation{Completed: true, DigestOK: true, Fired: true, Detected: true,
			Digest: 7, GoldenDigest: 8, Retired: 1}, SDC},
	}
	for _, c := range cases {
		if got := Classify(c.o); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestEveryTrialClassifiedExactlyOnce(t *testing.T) {
	eng := Engine[fakeCell]{
		Spec: Spec[fakeCell]{
			Matrix: fakeMatrix(),
			Model:  FaultModel{BitHi: 63, WindowHi: 1000},
			Trials: 20,
			Seed:   42,
		},
		RunTrial: fakeRun,
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, c := range rep.Cells {
		if got := c.Trials(); got != 20 {
			t.Fatalf("cell %s classified %d trials, want 20", c.Name, got)
		}
		total += c.Trials()
	}
	if total != rep.Total.Trials() || total != 6*20 {
		t.Fatalf("total %d (cells) vs %d (TOTAL), want %d", total, rep.Total.Trials(), 6*20)
	}
}

// TestJSONLDeterministicUnderParallelism mirrors internal/sweep's ordering
// test at the campaign level: the same Spec and seed must produce
// byte-identical JSONL at parallelism 1, 2 and 8. At two workers it also
// probes the cell-aware dispatch: a trial starts beside a running trial
// of its own cell only after every trial of every other cell has
// started. (With more workers than cells left, several may share one.)
func TestJSONLDeterministicUnderParallelism(t *testing.T) {
	const trials = 15
	run := func(par int) []byte {
		var mu sync.Mutex
		cells := fakeMatrix().Size()
		running := make([]int, cells)
		started := make([][]bool, cells)
		for c := range started {
			started[c] = make([]bool, trials)
		}
		var buf bytes.Buffer
		eng := Engine[fakeCell]{
			Spec: Spec[fakeCell]{
				Matrix:        fakeMatrix(),
				Model:         FaultModel{BitHi: 63, WindowHi: 500},
				Trials:        trials,
				Seed:          7,
				StreamExclude: []string{"mode"},
			},
			// A scheduling wobble makes completion order differ from
			// matrix order under parallelism; emission order must not.
			RunTrial: func(ctx context.Context, cell sweep.Point[fakeCell], tr Trial) Observation {
				mu.Lock()
				if par == 2 && running[tr.Cell] > 0 {
					for c := range started {
						if c != tr.Cell && slices.Contains(started[c], false) {
							t.Errorf("trial %d of cell %d started beside a running trial of its cell while cell %d had unstarted trials",
								tr.Index, tr.Cell, c)
							break
						}
					}
				}
				started[tr.Cell][tr.Index] = true
				running[tr.Cell]++
				mu.Unlock()
				time.Sleep(time.Duration(tr.Bit%5) * time.Millisecond)
				mu.Lock()
				running[tr.Cell]--
				mu.Unlock()
				return fakeRun(ctx, cell, tr)
			},
			Parallelism: par,
			Sink:        sweep.NewJSONL(&buf),
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	if len(seq) == 0 {
		t.Fatal("no records emitted")
	}
	for _, par := range []int{2, 8} {
		if got := run(par); !bytes.Equal(seq, got) {
			t.Fatalf("JSONL differs between -parallel 1 (%d bytes) and -parallel %d (%d bytes)", len(seq), par, len(got))
		}
	}
}

// TestStreamExclude: cells differing only on an excluded axis draw the
// same fault stream; distinct trials draw distinct faults.
func TestStreamExclude(t *testing.T) {
	spec := Spec[fakeCell]{
		Matrix:        fakeMatrix(),
		Model:         FaultModel{BitHi: 63, WindowHi: 10_000},
		Trials:        50,
		Seed:          99,
		StreamExclude: []string{"mode"},
	}
	pts := sweep.Spec[fakeCell]{
		Base: spec.Matrix.Base,
		Axes: append(append([]sweep.Axis[fakeCell]{}, spec.Matrix.Axes...), trialAxis[fakeCell](spec.Trials)),
	}.Points()
	byKey := make(map[string]Trial)
	distinct := make(map[string]bool)
	for _, pt := range pts {
		tr := spec.draw(pt)
		lm := pt.LabelMap()
		key := lm["workload"] + "/" + lm["trial"] // stream key: everything but mode
		if prev, ok := byKey[key]; ok {
			if prev.Bit != tr.Bit || prev.Cycle != tr.Cycle || prev.Core(64) != tr.Core(64) {
				t.Fatalf("key %s: draws differ across the excluded mode axis: %+v vs %+v", key, prev, tr)
			}
		}
		byKey[key] = tr
		distinct[fmt.Sprintf("%d/%d/%d", tr.Bit, tr.Cycle, tr.Core(64))] = true
	}
	if len(distinct) < 50 {
		t.Fatalf("only %d distinct draws across 150 stream keys — draws are degenerate", len(distinct))
	}
}

func TestDrawBounds(t *testing.T) {
	spec := Spec[fakeCell]{
		Matrix: fakeMatrix(),
		Model:  FaultModel{BitLo: 8, BitHi: 15, WindowLo: 100, WindowHi: 200},
		Trials: 200,
		Seed:   3,
	}
	pts := sweep.Spec[fakeCell]{
		Base: spec.Matrix.Base,
		Axes: append(append([]sweep.Axis[fakeCell]{}, spec.Matrix.Axes...), trialAxis[fakeCell](spec.Trials)),
	}.Points()
	for _, pt := range pts {
		tr := spec.draw(pt)
		if tr.Bit < 8 || tr.Bit > 15 {
			t.Fatalf("bit %d outside [8,15]", tr.Bit)
		}
		if tr.Cycle < 100 || tr.Cycle >= 200 {
			t.Fatalf("cycle %d outside [100,200)", tr.Cycle)
		}
		if c := tr.Core(4); c < 0 || c >= 4 {
			t.Fatalf("core %d outside [0,4)", c)
		}
	}
}

func TestPanicInRunTrialBecomesDUE(t *testing.T) {
	eng := Engine[fakeCell]{
		Spec: Spec[fakeCell]{
			Matrix: fakeMatrix(),
			Model:  FaultModel{WindowHi: 1},
			Trials: 2,
			Seed:   1,
		},
		RunTrial: func(ctx context.Context, cell sweep.Point[fakeCell], tr Trial) Observation {
			if cell.Config.Workload == "w2" {
				panic("trial blew up")
			}
			return fakeRun(ctx, cell, tr)
		},
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w2 := rep.CellBy(map[string]string{"mode": "reunion", "workload": "w2"})
	if w2 == nil {
		t.Fatal("w2 cell missing")
	}
	if w2.Count(DUE) != 2 {
		t.Fatalf("panicking trials must classify DUE: %+v", w2.Counts)
	}
	if rep.Total.Trials() != 12 {
		t.Fatalf("panics lost trials: %d of 12", rep.Total.Trials())
	}
}

func TestReportCoverageAndTable(t *testing.T) {
	eng := Engine[fakeCell]{
		Spec: Spec[fakeCell]{
			Matrix:        fakeMatrix(),
			Model:         FaultModel{BitHi: 63, WindowHi: 1000},
			Trials:        40,
			Seed:          11,
			StreamExclude: []string{"mode"},
		},
		RunTrial: fakeRun,
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	re := rep.CellBy(map[string]string{"mode": "reunion", "workload": "w1"})
	nr := rep.CellBy(map[string]string{"mode": "non-redundant", "workload": "w1"})
	if re == nil || nr == nil {
		t.Fatal("cells missing")
	}
	if re.Count(SDC) != 0 {
		t.Fatalf("reunion cell has SDCs: %+v", re.Counts)
	}
	if nr.Count(SDC) == 0 {
		t.Fatalf("non-redundant cell has no SDCs under the fake model: %+v", nr.Counts)
	}
	p, lo, hi, ok := re.Coverage()
	if !ok || p != 1 || lo <= 0 || hi != 1 {
		t.Fatalf("reunion coverage: p=%v lo=%v hi=%v ok=%v", p, lo, hi, ok)
	}
	if n := re.LatencyCycles.N(); n != re.Count(Detected) {
		t.Fatalf("latency histogram has %d entries for %d detected trials", n, re.Count(Detected))
	}
	// Same fault stream → identical fired counts across the mode axis.
	if reFired, nrFired := re.Trials()-re.Unfired, nr.Trials()-nr.Unfired; reFired != nrFired {
		t.Fatalf("fired counts differ across the excluded mode axis: %d vs %d", reFired, nrFired)
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"TOTAL", "coverage", "mode=reunion", "mode=non-redundant"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Spec[fakeCell]{Matrix: fakeMatrix(), Model: FaultModel{WindowHi: 100}, Trials: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	none := good
	none.Trials = 0
	if err := none.Validate(); err == nil {
		t.Fatal("zero trials per cell validated (used to run as one)")
	}
	empty := Spec[fakeCell]{Matrix: sweep.Spec[fakeCell]{Axes: []sweep.Axis[fakeCell]{{Name: "mode"}}}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty matrix validated")
	}
	reserved := good
	reserved.Matrix.Axes = append(reserved.Matrix.Axes, sweep.Axis[fakeCell]{
		Name: "trial", Values: []sweep.Value[fakeCell]{{Name: "x"}}})
	if err := reserved.Validate(); err == nil {
		t.Fatal("reserved axis name validated")
	}
	wide := good
	wide.Model = FaultModel{BitLo: 48, BitHi: 70, WindowHi: 100}
	if err := wide.Validate(); err == nil {
		t.Fatal("bit range beyond 63 validated (ArmFault would alias it mod 64)")
	}
	shut := good
	shut.Model = FaultModel{WindowLo: 100, WindowHi: 100}
	if err := shut.Validate(); err == nil {
		t.Fatal("empty injection window validated")
	}
}

// TestShardedRunReassemblesByteIdentical: splitting the flattened trial
// space across Engine.Indices slices and concatenating the slices' JSONL
// reproduces the whole-campaign stream byte for byte — draws and
// classification depend only on trial coordinates, never on which shard
// runs them.
func TestShardedRunReassemblesByteIdentical(t *testing.T) {
	spec := Spec[fakeCell]{
		Matrix:        fakeMatrix(),
		Model:         FaultModel{BitHi: 63, WindowHi: 500},
		Trials:        10,
		Seed:          99,
		StreamExclude: []string{"mode"},
	}
	total := fakeMatrix().Size() * spec.Trials

	var ref bytes.Buffer
	eng := Engine[fakeCell]{Spec: spec, RunTrial: fakeRun, Sink: sweep.NewJSONL(&ref)}
	refRep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const nshards = 4
	var merged bytes.Buffer
	var shardTrials int64
	for s := 0; s < nshards; s++ {
		lo, hi := total*s/nshards, total*(s+1)/nshards
		indices := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			indices = append(indices, i)
		}
		sharded := Engine[fakeCell]{
			Spec:        spec,
			RunTrial:    fakeRun,
			Sink:        sweep.NewJSONL(&merged),
			Indices:     indices,
			Parallelism: 3,
		}
		rep, err := sharded.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Total.Trials(); got != int64(len(indices)) {
			t.Fatalf("shard %d report covers %d trials, want %d", s, got, len(indices))
		}
		shardTrials += rep.Total.Trials()
	}
	if shardTrials != refRep.Total.Trials() {
		t.Fatalf("shards classified %d trials, whole run %d", shardTrials, refRep.Total.Trials())
	}
	if !bytes.Equal(merged.Bytes(), ref.Bytes()) {
		t.Fatal("concatenated shard JSONL differs from the single-run stream")
	}
}

// recordSink keeps the records a campaign writes (the engine writes from
// one goroutine).
type recordSink struct{ recs []sweep.Record }

func (s *recordSink) Write(rec sweep.Record) error { s.recs = append(s.recs, rec); return nil }
func (s *recordSink) Close() error                 { return nil }

// TestCancelledTrialsNeverEnterTheStream: a trial skipped by
// cancellation (never executed) must stop emission, not be written as a
// DUE record — a resumable journal downstream would otherwise persist
// it and skip past it forever. Repeated iterations chase the scheduling
// race where a worker receives a job after the cancel.
func TestCancelledTrialsNeverEnterTheStream(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		var executed atomic.Int64
		sink := &recordSink{}
		eng := Engine[fakeCell]{
			Spec: Spec[fakeCell]{
				Matrix: fakeMatrix(),
				Model:  FaultModel{BitHi: 63, WindowHi: 100},
				Trials: 5,
				Seed:   uint64(iter + 1),
			},
			Parallelism: 4,
			Sink:        sink,
			RunTrial: func(_ context.Context, cell sweep.Point[fakeCell], tr Trial) Observation {
				if executed.Add(1) == 3 {
					cancel()
				}
				return Observation{Completed: true, DigestOK: true}
			},
		}
		_, err := eng.Run(ctx)
		cancel()
		if err == nil {
			t.Fatalf("iter %d: cancelled campaign returned nil error", iter)
		}
		for _, r := range sink.recs {
			if strings.Contains(r.Err, "skipped") {
				t.Fatalf("iter %d: never-executed trial entered the stream: %+v", iter, r)
			}
		}
		if got := len(sink.recs); int64(got) > executed.Load() {
			t.Fatalf("iter %d: %d records for %d executed trials", iter, got, executed.Load())
		}
	}
}
