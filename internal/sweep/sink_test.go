package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Sweep:   "t",
			Index:   i,
			Labels:  map[string]string{"workload": fmt.Sprintf("w%d", i), "mode": "reunion"},
			Metrics: map[string]float64{"ipc": 1.5 + float64(i)/8, "cycles": float64(1000 * i)},
		}
	}
	return recs
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	want := testRecords(5)
	want[3].Err = "boom"
	want[3].Metrics = nil
	for _, rec := range want {
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		var got Record
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("line %d round-trip:\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	// Two writes of the same record must produce identical bytes (maps
	// marshal with sorted keys) — the basis of the byte-identical
	// -parallel 1 vs -parallel N guarantee.
	rec := testRecords(1)[0]
	var a, b bytes.Buffer
	if err := NewJSONL(&a).Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := NewJSONL(&b).Write(rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("non-deterministic encoding:\n%s\n%s", a.String(), b.String())
	}
}

func TestCSVHeaderAndRows(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, rec := range testRecords(3) {
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "sweep,index,mode,workload,cycles,ipc,err" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "t,0,reunion,w0,0,1.5," {
		t.Errorf("row 0 = %q", lines[1])
	}
}

func TestCSVErrorFirstRecordKeepsMetricColumns(t *testing.T) {
	// An error record arriving first must not fix an empty metric column
	// set: it is buffered until a record with metrics defines the columns.
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	recs := testRecords(3)
	recs[0].Err = "boom"
	recs[0].Metrics = nil
	for _, rec := range recs {
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + 3 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "sweep,index,mode,workload,cycles,ipc,err" {
		t.Errorf("header lost metric columns: %q", lines[0])
	}
	if lines[1] != "t,0,reunion,w0,,,boom" {
		t.Errorf("buffered error row = %q", lines[1])
	}
	if lines[2] != "t,1,reunion,w1,1000,1.625," {
		t.Errorf("row 1 = %q", lines[2])
	}
}

// TestCSVColumnOrder: label and metric columns are sorted by name and
// every value sits under its own column. Twenty keys per map make an
// unsorted map range match the sorted order with negligible odds; the
// two-key records above match it about one run in ten.
func TestCSVColumnOrder(t *testing.T) {
	const keys, rows = 20, 3
	head := []string{"sweep", "index"}
	for i := 0; i < keys; i++ {
		head = append(head, fmt.Sprintf("l%02d", i))
	}
	for i := 0; i < keys; i++ {
		head = append(head, fmt.Sprintf("m%02d", i))
	}
	want := []string{strings.Join(append(head, "err"), ",")}

	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for r := 0; r < rows; r++ {
		rec := Record{Sweep: "t", Index: r, Labels: map[string]string{}, Metrics: map[string]float64{}}
		row := []string{"t", fmt.Sprint(r)}
		for i := 0; i < keys; i++ {
			rec.Labels[fmt.Sprintf("l%02d", i)] = fmt.Sprintf("v%d", i)
			row = append(row, fmt.Sprintf("v%d", i))
		}
		for i := 0; i < keys; i++ {
			rec.Metrics[fmt.Sprintf("m%02d", i)] = float64(100*r + i)
			row = append(row, fmt.Sprint(100*r+i))
		}
		want = append(want, strings.Join(append(row, ""), ","))
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("csv:\ngot  %q\nwant %q", got, want)
	}
}

func TestCSVAllErrorsStillWrites(t *testing.T) {
	var buf bytes.Buffer
	sink := NewCSV(&buf)
	for _, rec := range testRecords(2) {
		rec.Err = "boom"
		rec.Metrics = nil
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "sweep,index,mode,workload,err" {
		t.Errorf("header = %q", lines[0])
	}
}

// Memory buffers records in order. Unlike the file sinks it is safe for
// concurrent use.
type Memory struct {
	mu      sync.Mutex
	records []Record
	closed  bool
}

// NewMemory returns an in-memory sink.
func NewMemory() *Memory { return &Memory{} }

// Write appends the record.
func (s *Memory) Write(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("sweep: write to closed memory sink")
	}
	s.records = append(s.records, rec)
	return nil
}

// Close marks the sink closed.
func (s *Memory) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Records returns a copy of everything written so far.
func (s *Memory) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

func TestMemorySink(t *testing.T) {
	sink := NewMemory()
	want := testRecords(4)
	for _, rec := range want {
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.Records(); !reflect.DeepEqual(got, want) {
		t.Errorf("Records = %+v", got)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(want[0]); err == nil {
		t.Error("write after close succeeded")
	}
}

// TestSweepToSinkRoundTrip drives a parallel sweep end to end into a
// memory sink and checks the streamed records arrive complete and in
// point order.
func TestSweepToSinkRoundTrip(t *testing.T) {
	sink := NewMemory()
	spec := testSpec(3, 4)
	r := Runner[cfg, int]{
		Parallelism: 6,
		Run: func(_ context.Context, p Point[cfg]) (int, error) {
			if p.Index == 5 {
				return 0, errors.New("unstable cell")
			}
			return p.Config.A * p.Config.B, nil
		},
		Emit: func(res Result[cfg, int]) error {
			var metrics map[string]float64
			if res.Err == nil {
				metrics = map[string]float64{"out": float64(res.Out)}
			}
			return sink.Write(NewRecord(spec.Name, res.Point.Index, res.Point.LabelMap(), metrics, res.Err))
		},
	}
	if _, err := r.Sweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	recs := sink.Records()
	if len(recs) != 12 {
		t.Fatalf("%d records, want 12", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Fatalf("record %d has index %d (out of order)", i, rec.Index)
		}
		if i == 5 {
			if rec.Err != "unstable cell" || rec.Metrics != nil {
				t.Errorf("record 5 = %+v", rec)
			}
			continue
		}
		want := float64((i / 4) * (i % 4))
		if rec.Metrics["out"] != want {
			t.Errorf("record %d out = %v, want %v", i, rec.Metrics["out"], want)
		}
		if rec.Labels["a"] != fmt.Sprintf("%d", i/4) || rec.Labels["b"] != fmt.Sprintf("%d", i%4) {
			t.Errorf("record %d labels = %v", i, rec.Labels)
		}
	}
}
