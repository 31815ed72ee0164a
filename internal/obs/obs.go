// Package obs is the zero-dependency observability layer: a metrics
// registry (atomic counters, gauges, and power-of-two latency histograms
// with Prometheus-text and JSON exposition) and a span tracer that emits
// Chrome trace-event JSON loadable in Perfetto, plus the CLI heartbeat
// built on them.
//
// The hard invariant of the whole layer: telemetry is a PURE OBSERVER.
// Attaching a Scope to an engine, a cache, or a store must never change a
// single byte of the results it produces — sweep/campaign JSONL, shard
// journal bytes, and checkpoint blobs are byte-identical with telemetry
// on and off (asserted by the equivalence tests). Telemetry writes only
// to its own outputs: the registry, the trace buffer, and stderr.
//
// Everything is off by default and nil-safe: a nil *Registry hands out
// nil metrics whose methods are no-ops, a nil *Tracer hands out nil
// spans, and the zero Scope disables both — so instrumented code pays a
// nil check, never an allocation, when observability is off.
package obs

// Scope bundles the two telemetry handles an engine is observed through.
// The zero Scope is fully disabled; either field may be set alone.
// Scopes are small and copied by value through the call graph.
type Scope struct {
	// Trace, if set, receives one span per traced operation (run, trial,
	// warmup, restore, journal replay, store get/put, merge, ...).
	Trace *Tracer
	// Metrics, if set, accumulates the counters, gauges, and latency
	// histograms the CLIs write with -metrics-out.
	Metrics *Registry
}

// Enabled reports whether any telemetry handle is attached.
func (s Scope) Enabled() bool { return s.Trace != nil || s.Metrics != nil }
