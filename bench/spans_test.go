package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldSpansFixture(t *testing.T) {
	f, err := os.Open("testdata/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[string]*spanStats{}
	if err := foldSpans(f, spans); err != nil {
		t.Fatal(err)
	}
	b := &bench{metrics: map[string]metric{}}
	b.setSpans(spans, 2) // the fixture holds two rounds' spans

	want := map[string]float64{
		"warm.warmup_s":          0.120,
		"warm.warmup_n":          1,
		"warm.warmup_ms_per_op":  120,
		"warm.restore_s":         0.018,
		"warm.restore_n":         1.5,
		"warm.restore_ms_per_op": 12,
		"warm.reuse_frac":        0.6,
		"store.get_s":            0.006,
		"store.get_bytes":        500,
		"store.hit_frac":         0.5,
		"store.put_bytes":        500,
		"campaign.trial_n":       11,
		"campaign.trial_s":       0.1265,
		"campaign.trial_p50_ms":  11,
	}
	for name, v := range want {
		m, ok := b.metrics[name]
		if !ok {
			t.Errorf("%s missing", name)
			continue
		}
		if math.Abs(m.Value-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, m.Value, v)
		}
	}
	// Spans that never occurred give no metric rather than a zero, and
	// a percentile needs ten samples beyond it (22 trials: p50 yes, p95 no).
	for name := range b.metrics {
		for _, absent := range []string{"warm.store_fetch", "warm.store_put", "campaign.trial_p95"} {
			if strings.HasPrefix(name, absent) {
				t.Errorf("%s reported for a span the trace does not hold", name)
			}
		}
	}
}

func TestFoldSpansRejectsMalformed(t *testing.T) {
	if err := foldSpans(strings.NewReader(`{"traceEvents":[`), map[string]*spanStats{}); err == nil {
		t.Fatal("folded a truncated trace")
	}
}
