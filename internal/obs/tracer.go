package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Arg is one key/value annotation on a span, rendered into the trace
// event's "args" object.
type Arg struct {
	Key string
	Val any
}

// A spanEvent is one Chrome trace-event "complete" record (ph="X"):
// name, category, start timestamp and duration in microseconds, and a
// synthetic pid/tid pair that groups spans into tracks.
type spanEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Tracer collects spans and writes them as Chrome trace-event JSON — the
// {"traceEvents":[...]} format Perfetto and chrome://tracing load
// directly. Timestamps are microseconds since the tracer was created.
//
// Concurrent spans are laid out on synthetic "tracks" (tid values):
// starting a span claims the lowest free track and ending it releases
// the track, so a worker pool renders as a stable lane-per-worker view
// rather than one interleaved row.
//
// The event buffer is bounded (maxEvents); once full, further spans are
// counted in Dropped but not recorded — a long campaign cannot grow the
// trace without bound. A nil *Tracer is fully disabled: StartSpan
// returns a nil *Span whose End is a no-op.
type Tracer struct {
	start time.Time

	mu        sync.Mutex
	events    []spanEvent
	tracks    []bool // tracks[i] == true → tid i is in use
	dropped   int64
	maxEvents int
}

// DefaultMaxEvents bounds a tracer's buffer unless overridden: 1M spans
// is ~hours of campaign at trial granularity and ~300 MB of JSON, which
// is already past what trace viewers handle comfortably.
const DefaultMaxEvents = 1 << 20

// NewTracer returns a tracer whose clock starts now. maxEvents bounds
// the buffer; values <= 0 select DefaultMaxEvents.
func NewTracer(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{start: time.Now(), maxEvents: maxEvents}
}

// Span is one in-flight traced operation. End records it. The nil span
// (from a nil tracer or a full buffer) is a no-op.
type Span struct {
	tr    *Tracer
	name  string
	cat   string
	tid   int
	begin time.Time
	args  []Arg
}

// StartSpan opens a span. The category groups related spans in trace
// viewers ("sweep", "campaign", "journal", "store", "warm", ...). Args
// attach static annotations; more can be added at End.
func (t *Tracer) StartSpan(cat, name string, args ...Arg) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if len(t.events) >= t.maxEvents {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	tid := t.claimTrack()
	t.mu.Unlock()
	return &Span{tr: t, name: name, cat: cat, tid: tid, begin: time.Now(), args: args}
}

// claimTrack returns the lowest free track id; callers hold t.mu.
func (t *Tracer) claimTrack() int {
	for i, used := range t.tracks {
		if !used {
			t.tracks[i] = true
			return i
		}
	}
	t.tracks = append(t.tracks, true)
	return len(t.tracks) - 1
}

// End closes the span, appending one complete event. Extra args are
// merged with those given at start (later keys win).
func (s *Span) End(args ...Arg) {
	if s == nil {
		return
	}
	end := time.Now()
	ev := spanEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		Ts:   s.begin.Sub(s.tr.start).Microseconds(),
		Dur:  end.Sub(s.begin).Microseconds(),
		Pid:  1,
		Tid:  s.tid,
	}
	if len(s.args)+len(args) > 0 {
		ev.Args = make(map[string]any, len(s.args)+len(args))
		for _, a := range s.args {
			ev.Args[a.Key] = a.Val
		}
		for _, a := range args {
			ev.Args[a.Key] = a.Val
		}
	}
	t := s.tr
	t.mu.Lock()
	if s.tid < len(t.tracks) {
		t.tracks[s.tid] = false
	}
	if len(t.events) < t.maxEvents {
		t.events = append(t.events, ev)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped returns the number of events discarded because the buffer was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSON renders the trace as Chrome trace-event JSON, events sorted by
// start timestamp. A nil tracer writes an empty (still valid) trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	events := []spanEvent{}
	if t != nil {
		t.mu.Lock()
		events = append(events, t.events...)
		t.mu.Unlock()
		sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []spanEvent `json:"traceEvents"`
		DisplayUnit string      `json:"displayTimeUnit"`
	}{events, "ms"})
}

// WriteFile writes the trace JSON to path ("-" for stdout). The
// -trace-out CLI flags land here.
func (t *Tracer) WriteFile(path string) error {
	if path == "-" {
		return t.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
