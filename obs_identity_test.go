package reunion

// Observability acceptance: telemetry is a pure observer. For the sweep
// engine, the campaign engine, and the shard journal, the result bytes
// with a full scope attached (tracer + registry, plus the per-trial
// kernel-event ring) are byte-identical to the telemetry-off run — and
// the telemetry itself is well-formed: the trace parses as Chrome
// trace-event JSON with the required fields, the metrics count what ran.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"reunion/internal/campaign"
	"reunion/internal/dist"
	"reunion/internal/obs"
	"reunion/internal/sweep"
)

func obsTestScope() obs.Scope {
	return obs.Scope{Trace: obs.NewTracer(0), Metrics: obs.NewRegistry()}
}

// chromeTraceEvents unmarshals a tracer's output and checks the fields
// Perfetto requires on every event.
func chromeTraceEvents(t *testing.T, tr *obs.Tracer) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	for i, ev := range doc.TraceEvents {
		if ev["name"] == "" || ev["name"] == nil {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "i" {
			t.Fatalf("event %d has phase %q, want X or i", i, ph)
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d has no ts: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		if _, ok := ev["dur"].(float64); ph == "X" && !ok {
			t.Fatalf("complete event %d has no dur: %v", i, ev)
		}
	}
	return doc.TraceEvents
}

// metricTotals reads the registry through its JSON rendering and sums
// each family's series: counter and gauge values, histogram counts.
func metricTotals(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name   string
			Series []struct {
				Value     *int64
				Histogram *struct{ Count int64 }
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	totals := make(map[string]float64, len(doc.Metrics))
	for _, f := range doc.Metrics {
		totals[f.Name] = 0
		for _, s := range f.Series {
			switch {
			case s.Value != nil:
				totals[f.Name] += float64(*s.Value)
			case s.Histogram != nil:
				totals[f.Name] += float64(s.Histogram.Count)
			}
		}
	}
	return totals
}

func obsSweepSpec() sweep.Spec[Options] {
	return sweep.Spec[Options]{
		Name: "obs-sweep",
		Base: Options{WarmCycles: 2_000, MeasureCycles: 1_500},
		Axes: []sweep.Axis[Options]{
			sweep.NewAxis("workload", []string{"apache", "sparse"},
				func(s string) string { return s },
				func(o *Options, s string) { o.Workload = mustWorkload(s) }),
			sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
				func(o *Options, m Mode) { o.Mode = m }),
		},
	}
}

func runObsSweep(t *testing.T, spec sweep.Spec[Options], sc obs.Scope) []byte {
	t.Helper()
	var out bytes.Buffer
	r := sweep.Runner[Options, Result]{
		Parallelism: 2,
		Obs:         sc,
		Run: func(_ context.Context, p sweep.Point[Options]) (Result, error) {
			return Run(p.Config)
		},
		Emit: sweepEmit(spec, sweep.NewJSONL(&out)),
	}
	if _, err := r.Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestTelemetrySweepByteIdentity(t *testing.T) {
	spec := obsSweepSpec()
	ref := runObsSweep(t, spec, obs.Scope{})
	sc := obsTestScope()
	got := runObsSweep(t, spec, sc)
	if !bytes.Equal(got, ref) {
		t.Fatal("sweep JSONL differs between telemetry on and off")
	}

	events := chromeTraceEvents(t, sc.Trace)
	if len(events) != spec.Size() {
		t.Fatalf("trace holds %d spans, want one per run (%d)", len(events), spec.Size())
	}
	totals := metricTotals(t, sc.Metrics)
	n, ok := totals["sweep_runs_total"]
	if !ok {
		t.Fatal("metrics missing sweep_runs_total")
	}
	if n != float64(spec.Size()) {
		t.Fatalf("sweep_runs_total = %v, want %d", n, spec.Size())
	}
	if _, ok := totals["sweep_run_duration_us"]; !ok {
		t.Fatal("metrics missing sweep_run_duration_us")
	}
}

func TestTelemetryJournalByteIdentity(t *testing.T) {
	spec := obsSweepSpec()
	dir := t.TempDir()

	// One 2-shard slice of the matrix, journaled twice: telemetry off and
	// a full scope through OpenOrCreate + Runner.Obs. The journal files
	// (header, records, checksummed footer) must be byte-identical.
	writeJournal := func(path string, sc obs.Scope) {
		t.Helper()
		jnl, err := dist.OpenOrCreate(path, shardPlan(t, spec.Name, spec.Size(), 0, 2), false, sc)
		if err != nil {
			t.Fatal(err)
		}
		r := sweep.Runner[Options, Result]{
			Parallelism: 2,
			Obs:         sc,
			Run: func(_ context.Context, p sweep.Point[Options]) (Result, error) {
				return Run(p.Config)
			},
			Emit: sweepEmit(spec, jnl),
		}
		if _, err := r.SweepIndices(context.Background(), spec, jnl.Remaining()); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	refPath := filepath.Join(dir, "ref.jsonl")
	obsPath := filepath.Join(dir, "obs.jsonl")
	writeJournal(refPath, obs.Scope{})
	sc := obsTestScope()
	writeJournal(obsPath, sc)

	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	obsBytes, err := os.ReadFile(obsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obsBytes, refBytes) {
		t.Fatal("journal bytes differ between telemetry on and off")
	}

	totals := metricTotals(t, sc.Metrics)
	n, ok := totals["dist_journal_records_total"]
	if !ok {
		t.Fatal("metrics missing dist_journal_records_total")
	}
	if n != 2 {
		t.Fatalf("dist_journal_records_total = %v, want the shard's 2", n)
	}
}

func TestTelemetryCampaignByteIdentity(t *testing.T) {
	spec := campaign.Spec[Options]{
		Name: "obs-campaign",
		Matrix: sweep.Spec[Options]{
			Name: "obs-campaign",
			Base: injectTestOptions(),
			Axes: []sweep.Axis[Options]{
				sweep.NewAxis("seed", []uint64{1}, func(s uint64) string { return strconv.FormatUint(s, 10) },
					func(o *Options, s uint64) { o.Seed = s }),
			},
		},
		Model:  campaign.FaultModel{WindowHi: 400},
		Trials: 3,
		Seed:   0xfa017,
	}
	run := func(sc obs.Scope, traceEvents int) []byte {
		t.Helper()
		var out bytes.Buffer
		eng := campaign.Engine[Options]{
			Spec:        spec,
			RunTrial:    TrialRunner(spec.Model, NewWarmCache(), traceEvents),
			Parallelism: 2,
			Sink:        sweep.NewJSONL(&out),
			Obs:         sc,
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	ref := run(obs.Scope{}, 0)
	// Full scope AND the per-trial kernel-event ring: neither the spans
	// and counters nor Observation.Diag may leak into the trial records.
	sc := obsTestScope()
	got := run(sc, 64)
	if !bytes.Equal(got, ref) {
		t.Fatal("campaign JSONL differs between telemetry+trace-dump on and off")
	}

	events := chromeTraceEvents(t, sc.Trace)
	if len(events) != spec.Trials {
		t.Fatalf("trace holds %d spans, want one per trial (%d)", len(events), spec.Trials)
	}
	totals := metricTotals(t, sc.Metrics)
	n, ok := totals["campaign_trials_total"]
	if !ok {
		t.Fatal("metrics missing campaign_trials_total")
	}
	if n != float64(spec.Trials) {
		t.Fatalf("campaign_trials_total = %v, want %d", n, spec.Trials)
	}
}
