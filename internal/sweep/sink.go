package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// Record is the serialized form of one finished run, the unit every sink
// consumes. Label and metric maps marshal with sorted keys (encoding/json
// sorts map keys), so a stream of records written in point-index order is
// byte-for-byte reproducible at any parallelism.
type Record struct {
	Sweep   string             `json:"sweep"`
	Index   int                `json:"index"`
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// NewRecord flattens one run into a Record.
func NewRecord(sweepName string, index int, labels map[string]string, metrics map[string]float64, err error) Record {
	rec := Record{Sweep: sweepName, Index: index, Labels: labels, Metrics: metrics}
	if err != nil {
		rec.Err = err.Error()
		rec.Metrics = nil
	}
	return rec
}

// Sink receives a stream of records. Implementations need not be safe for
// concurrent use: the engine emits from a single goroutine.
type Sink interface {
	Write(Record) error
	Close() error
}

// JSONL writes one JSON object per line (the sweep CLI's results-file
// format, diffable across runs).
type JSONL struct {
	w io.Writer
}

// NewJSONL returns a JSON Lines sink over w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// Write marshals one record and appends a newline.
func (s *JSONL) Write(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = s.w.Write(b)
	return err
}

// Close flushes nothing (the writer owns buffering) and never fails.
func (s *JSONL) Close() error { return nil }

// CSV writes records as comma-separated rows. The column set —
// "sweep,index,<labels...>,<metrics...>,err" with label and metric names
// sorted — is fixed by the first record that carries metrics; error
// records arriving before it are buffered so a failing first cell cannot
// truncate the metric columns of the whole file. Missing keys render
// empty.
type CSV struct {
	w          *csv.Writer
	labelCols  []string
	metricCols []string
	wroteHead  bool
	pending    []Record // error records seen before the columns were fixed
}

// NewCSV returns a CSV sink over w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: csv.NewWriter(w)} }

// Write renders one record, emitting the header first.
func (s *CSV) Write(rec Record) error {
	if !s.wroteHead {
		if len(rec.Metrics) == 0 && rec.Err != "" {
			s.pending = append(s.pending, rec)
			return nil
		}
		if err := s.writeHead(rec); err != nil {
			return err
		}
	}
	return s.writeRow(rec)
}

func (s *CSV) writeHead(rec Record) error {
	s.labelCols = sortedKeys(rec.Labels)
	s.metricCols = sortedKeys(rec.Metrics)
	head := append([]string{"sweep", "index"}, s.labelCols...)
	head = append(head, s.metricCols...)
	head = append(head, "err")
	if err := s.w.Write(head); err != nil {
		return err
	}
	s.wroteHead = true
	for _, p := range s.pending {
		if err := s.writeRow(p); err != nil {
			return err
		}
	}
	s.pending = nil
	return nil
}

func (s *CSV) writeRow(rec Record) error {
	row := []string{rec.Sweep, strconv.Itoa(rec.Index)}
	for _, k := range s.labelCols {
		row = append(row, rec.Labels[k])
	}
	for _, k := range s.metricCols {
		if v, ok := rec.Metrics[k]; ok {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		} else {
			row = append(row, "")
		}
	}
	row = append(row, rec.Err)
	return s.w.Write(row)
}

// Close flushes the csv writer, first draining buffered error records if
// no record with metrics ever arrived.
func (s *CSV) Close() error {
	if !s.wroteHead && len(s.pending) > 0 {
		if err := s.writeHead(s.pending[0]); err != nil {
			return err
		}
	}
	s.w.Flush()
	return s.w.Error()
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
