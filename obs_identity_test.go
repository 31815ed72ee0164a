package reunion

// Observability acceptance: telemetry is a pure observer. For the sweep
// engine, the campaign engine, and the shard journal, the result bytes
// with a tracer attached (plus the per-trial pair event dump) are
// byte-identical to the telemetry-off run — and the telemetry itself is
// well-formed: the trace parses as Chrome trace-event JSON with the
// required fields, and its spans count what ran.

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

// spansNamed returns the complete events of one span category and name.
func spansNamed(events []map[string]any, cat, name string) []map[string]any {
	var out []map[string]any
	for _, ev := range events {
		if ev["ph"] == "X" && ev["cat"] == cat && ev["name"] == name {
			out = append(out, ev)
		}
	}
	return out
}

// spanArgs returns a span event's args object (nil when it has none).
func spanArgs(ev map[string]any) map[string]any {
	args, _ := ev["args"].(map[string]any)
	return args
}

func obsSweepBase() Options {
	o := DefaultOptions()
	o.WarmCycles, o.MeasureCycles = 2_000, 1_500
	return o
}

func obsSweepSpec() sweep.Spec[Options] {
	return sweep.Spec[Options]{
		Name: "obs-sweep",
		Base: obsSweepBase(),
		Axes: []sweep.Axis[Options]{
			sweep.NewAxis("workload", []string{"apache", "sparse"},
				func(s string) string { return s },
				func(o *Options, s string) { o.Workload = mustWorkload(s) }),
			sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
				func(o *Options, m Mode) { o.Mode = m }),
		},
	}
}

func runObsSweep(t *testing.T, spec sweep.Spec[Options], tr *obs.Tracer) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := SweepRecords(context.Background(), spec, nil, sweep.NewJSONL(&out), 2, tr, nil); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestTelemetrySweepByteIdentity(t *testing.T) {
	spec := obsSweepSpec()
	ref := runObsSweep(t, spec, nil)
	tr := obs.NewTracer(0)
	got := runObsSweep(t, spec, tr)
	if !bytes.Equal(got, ref) {
		t.Fatal("sweep JSONL differs between telemetry on and off")
	}

	events := chromeTraceEvents(t, tr)
	runs := spansNamed(events, "sweep", "run")
	if len(events) != spec.Size() || len(runs) != spec.Size() {
		t.Fatalf("trace holds %d spans (%d sweep/run), want one sweep/run per run (%d)",
			len(events), len(runs), spec.Size())
	}
	for _, ev := range runs {
		if spanArgs(ev)["err"] != false {
			t.Fatalf("sweep/run span of a successful run: %v", ev)
		}
	}
}

func TestTelemetryJournalByteIdentity(t *testing.T) {
	spec := obsSweepSpec()
	dir := t.TempDir()

	// One 2-shard slice of the matrix, journaled twice: telemetry off and
	// a tracer through OpenOrCreate and SweepRecords. The journal files
	// (header, records, checksummed footer) must be byte-identical.
	writeJournal := func(path string, tr *obs.Tracer) {
		t.Helper()
		jnl, err := dist.OpenOrCreate(path, shardPlan(t, spec.Name, spec.Size(), 0, 2), false, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := SweepRecords(context.Background(), spec, jnl.Remaining(), jnl, 2, tr, nil); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Finish(); err != nil {
			t.Fatal(err)
		}
	}

	refPath := filepath.Join(dir, "ref.jsonl")
	obsPath := filepath.Join(dir, "obs.jsonl")
	writeJournal(refPath, nil)
	tr := obs.NewTracer(0)
	writeJournal(obsPath, tr)

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

	if n := len(spansNamed(chromeTraceEvents(t, tr), "sweep", "run")); n != 2 {
		t.Fatalf("trace holds %d sweep/run spans, want the shard's 2", n)
	}
}

func TestTelemetryCampaignByteIdentity(t *testing.T) {
	spec := campaign.Spec[Options]{
		Matrix: sweep.Spec[Options]{
			Name: "obs-campaign",
			Base: injectTestOptions(),
			Axes: []sweep.Axis[Options]{
				// Reunion cells detect faults, so trial spans with and
				// without latency_cycles both occur.
				sweep.NewAxis("mode", []Mode{ModeNonRedundant, ModeReunion}, Mode.String,
					func(o *Options, m Mode) { o.Mode = m }),
				sweep.NewAxis("seed", []uint64{1}, func(s uint64) string { return strconv.FormatUint(s, 10) },
					func(o *Options, s uint64) { o.Seed = s }),
			},
		},
		Model:         campaign.FaultModel{BitHi: 63, WindowHi: 400},
		Trials:        3,
		Seed:          0xfa017,
		StreamExclude: []string{"mode"},
	}
	run := func(tr *obs.Tracer, traceEvents int) []byte {
		t.Helper()
		var out bytes.Buffer
		spec := spec
		spec.Matrix.Base.TraceEvents = traceEvents
		eng := campaign.Engine[Options]{
			Spec:        spec,
			RunTrial:    TrialRunner(spec.Model, NewWarmCache()),
			Parallelism: 2,
			Sink:        sweep.NewJSONL(&out),
			Trace:       tr,
		}
		if _, err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}

	ref := run(nil, 0)
	// A tracer AND the per-trial pair event dump: neither the spans nor
	// Observation.Diag may leak into the trial records.
	tr := obs.NewTracer(0)
	got := run(tr, 64)
	if !bytes.Equal(got, ref) {
		t.Fatal("campaign JSONL differs between telemetry+trace-dump on and off")
	}

	events := chromeTraceEvents(t, tr)
	trials := spansNamed(events, "campaign", "trial")
	want := spec.Matrix.Size() * spec.Trials
	if len(events) != want || len(trials) != want {
		t.Fatalf("trace holds %d spans (%d campaign/trial), want one campaign/trial per trial (%d)",
			len(events), len(trials), want)
	}

	// Each trial span carries its record's outcome, and a detected one
	// also the record's detection latency; no other span has a latency.
	type trialRecord struct {
		outcome string
		latency float64
	}
	records := map[int]trialRecord{}
	detected := 0
	for _, line := range bytes.Split(bytes.TrimSpace(got), []byte("\n")) {
		var rec sweep.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		records[rec.Index] = trialRecord{rec.Labels["outcome"], rec.Metrics["detect_latency_cycles"]}
		if rec.Labels["outcome"] == campaign.Detected.String() {
			detected++
		}
	}
	if detected == 0 || detected == want {
		t.Fatalf("%d of %d trials detected, want some of each", detected, want)
	}
	for _, ev := range trials {
		args := spanArgs(ev)
		rec := records[int(args["cell"].(float64))*spec.Trials+int(args["trial"].(float64))]
		if args["outcome"] != rec.outcome {
			t.Fatalf("span %v: outcome differs from the record's %q", args, rec.outcome)
		}
		lat, ok := args["latency_cycles"]
		if ok != (rec.outcome == campaign.Detected.String()) || (ok && lat != rec.latency) {
			t.Fatalf("span %v: latency_cycles must appear exactly on detected trials, equal to the record's %v",
				args, rec.latency)
		}
	}
}
