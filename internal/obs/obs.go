// Package obs is the zero-dependency observability layer: a span tracer
// that emits Chrome trace-event JSON loadable in Perfetto, plus the CLI
// heartbeat.
//
// The hard invariant of the whole layer: telemetry is a PURE OBSERVER.
// Attaching a tracer to an engine or a cache must never change a single
// byte of the results it produces — sweep/campaign JSONL, shard journal
// bytes, and checkpoint blobs are byte-identical with telemetry on and
// off (asserted by the equivalence tests). Telemetry writes only to its
// own outputs: the trace buffer and stderr.
//
// Everything is off by default and nil-safe: a nil *Tracer hands out nil
// spans whose End is a no-op, so instrumented code pays a nil check,
// never an allocation, when observability is off.
package obs
