package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeTrace mirrors the required fields of the Chrome trace-event
// format; decoding with DisallowUnknownFields is intentionally NOT used
// (the format allows extra fields), but every event must carry name,
// ph, ts, pid, tid.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func parseTrace(t *testing.T, s string) chromeTrace {
	t.Helper()
	var ct chromeTrace
	if err := json.Unmarshal([]byte(s), &ct); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, s)
	}
	if ct.TraceEvents == nil {
		t.Fatalf("trace output missing traceEvents array:\n%s", s)
	}
	for i, ev := range ct.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, field, ev)
			}
		}
		if ph := ev["ph"]; ph == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		}
	}
	return ct
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(0)
	sp := tr.StartSpan("sweep", "run", Arg{"index", 3})
	time.Sleep(time.Millisecond)
	sp.End(Arg{"err", false})
	tr.Instant("sweep", "sealed")

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	ct := parseTrace(t, sb.String())
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(ct.TraceEvents))
	}
	run := ct.TraceEvents[0]
	if run["name"] != "run" || run["cat"] != "sweep" || run["ph"] != "X" {
		t.Fatalf("span event wrong: %v", run)
	}
	args, _ := run["args"].(map[string]any)
	if args["index"] != float64(3) || args["err"] != false {
		t.Fatalf("span args wrong: %v", args)
	}
	if run["dur"].(float64) < 500 {
		t.Fatalf("1ms span recorded dur %v µs", run["dur"])
	}
}

func TestTracerTrackReuse(t *testing.T) {
	tr := NewTracer(0)
	// Two overlapping spans must land on different tracks; after both
	// end, the next span reuses track 0.
	a := tr.StartSpan("c", "a")
	b := tr.StartSpan("c", "b")
	if a.tid == b.tid {
		t.Fatalf("overlapping spans share track %d", a.tid)
	}
	a.End()
	b.End()
	c := tr.StartSpan("c", "c")
	if c.tid != 0 {
		t.Fatalf("freed track not reused: got tid %d", c.tid)
	}
	c.End()
}

func TestTracerBounded(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.StartSpan("c", "s").End()
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	// Still renders valid JSON when full.
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	parseTrace(t, sb.String())
}

func TestTracerSortedByStart(t *testing.T) {
	tr := NewTracer(0)
	// End order is b, a — output must still be sorted by start ts.
	a := tr.StartSpan("c", "a")
	time.Sleep(200 * time.Microsecond)
	b := tr.StartSpan("c", "b")
	b.End()
	a.End()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	ct := parseTrace(t, sb.String())
	if ct.TraceEvents[0]["name"] != "a" || ct.TraceEvents[1]["name"] != "b" {
		t.Fatalf("events not sorted by start: %v", ct.TraceEvents)
	}
}

func TestEmptyTracerValidJSON(t *testing.T) {
	var sb strings.Builder
	if err := NewTracer(0).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	parseTrace(t, sb.String())
	// A nil tracer also writes a valid empty trace.
	sb.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	parseTrace(t, sb.String())
}
