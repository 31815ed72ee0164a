package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// spanStats sums the complete events of one span ("category/name") in
// the Chrome trace-event JSON the CLIs write under -trace-out.
type spanStats struct {
	n       int
	total   time.Duration
	durs    []float64      // each span's milliseconds
	bytes   float64        // sum of the numeric "bytes" argument
	outcome map[string]int // count by the "outcome" argument
}

// foldSpans adds the complete ("X") events of one trace document to m.
func foldSpans(r io.Reader, m map[string]*spanStats) error {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"` // microseconds
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("trace events: %w", err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		key := ev.Cat + "/" + ev.Name
		s := m[key]
		if s == nil {
			s = &spanStats{outcome: map[string]int{}}
			m[key] = s
		}
		s.n++
		s.total += time.Duration(ev.Dur * float64(time.Microsecond))
		s.durs = append(s.durs, ev.Dur/1e3)
		if v, ok := ev.Args["bytes"].(float64); ok {
			s.bytes += v
		}
		if o, ok := ev.Args["outcome"].(string); ok {
			s.outcome[o]++
		}
	}
	return nil
}

// setSpans records the per-layer metrics folded from the traced rounds'
// spans, per round. A span that never occurred gives no metric at all,
// never a zero.
func (b *bench) setSpans(m map[string]*spanStats, rounds int) {
	per := func(v float64) float64 { return v / float64(rounds) }
	sum := func(name, key string) *spanStats {
		s := m[key]
		if s == nil {
			return nil
		}
		b.set(name+"_s", "s", per(s.total.Seconds()))
		b.set(name+"_n", "count", per(float64(s.n)))
		b.set(name+"_ms_per_op", "ms", s.total.Seconds()*1e3/float64(s.n))
		return s
	}
	warmup := sum("warm.warmup", "warm/warmup")
	restore := sum("warm.restore", "warm/restore")
	sum("warm.store_fetch", "warm/store_fetch")
	sum("warm.store_put", "warm/store_put")
	if warmup != nil && restore != nil {
		b.set("warm.reuse_frac", "frac", float64(restore.n)/float64(restore.n+warmup.n))
	}
	if get := sum("store.get", "store/get"); get != nil {
		b.set("store.get_bytes", "bytes", per(get.bytes))
		b.set("store.hit_frac", "frac", float64(get.outcome["hit"])/float64(get.n))
	}
	if put := sum("store.put", "store/put"); put != nil {
		b.set("store.put_bytes", "bytes", per(put.bytes))
	}
	if trial := sum("campaign.trial", "campaign/trial"); trial != nil {
		if p, ok := percentile(trial.durs, 0.50); ok {
			b.set("campaign.trial_p50_ms", "ms", p)
		}
		if p, ok := percentile(trial.durs, 0.95); ok {
			b.set("campaign.trial_p95_ms", "ms", p)
		}
	}
}
