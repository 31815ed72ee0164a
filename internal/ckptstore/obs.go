package ckptstore

import (
	"errors"
	"time"

	"reunion/internal/obs"
)

// Instrument wraps a store with telemetry under the given scope: a span
// per Get/Put ("store" category) and counters/histograms for operations,
// misses, errors, bytes, and latency. With a disabled scope it returns
// the store unchanged, so the uninstrumented path pays nothing. The
// wrapper is a pure observer — blobs, keys, and errors pass through
// byte-for-byte, and it composes over any backend (Disk or a test
// double).
func Instrument(s Store, sc obs.Scope) Store {
	if !sc.Enabled() {
		return s
	}
	is := &instrumented{inner: s, trace: sc.Trace}
	if m := sc.Metrics; m != nil {
		is.gets = m.Counter("ckptstore_ops_total", "Checkpoint store operations.", obs.L("op", "get"))
		is.puts = m.Counter("ckptstore_ops_total", "Checkpoint store operations.", obs.L("op", "put"))
		is.misses = m.Counter("ckptstore_misses_total", "Get operations that found no checkpoint.")
		is.getErrs = m.Counter("ckptstore_errors_total", "Failed store operations (misses excluded).", obs.L("op", "get"))
		is.putErrs = m.Counter("ckptstore_errors_total", "Failed store operations (misses excluded).", obs.L("op", "put"))
		is.getBytes = m.Counter("ckptstore_bytes_total", "Blob bytes transferred.", obs.L("op", "get"))
		is.putBytes = m.Counter("ckptstore_bytes_total", "Blob bytes transferred.", obs.L("op", "put"))
		is.getTime = m.Histogram("ckptstore_op_duration_us", "Store operation latency in microseconds.", obs.L("op", "get"))
		is.putTime = m.Histogram("ckptstore_op_duration_us", "Store operation latency in microseconds.", obs.L("op", "put"))
	}
	return is
}

type instrumented struct {
	inner Store
	trace *obs.Tracer

	gets, puts         *obs.Counter
	misses             *obs.Counter
	getErrs, putErrs   *obs.Counter
	getBytes, putBytes *obs.Counter
	getTime, putTime   *obs.Histogram
}

func (s *instrumented) Get(key uint64) ([]byte, error) {
	sp := s.trace.StartSpan("store", "get", obs.Arg{Key: "key", Val: KeyName(key)})
	begin := time.Now() //reunion:nondeterm-ok store latency histogram is host telemetry
	blob, err := s.inner.Get(key)
	s.getTime.Observe(time.Since(begin).Microseconds()) //reunion:nondeterm-ok
	s.gets.Inc()
	outcome := "hit"
	switch {
	case errors.Is(err, ErrNotFound):
		s.misses.Inc()
		outcome = "miss"
	case err != nil:
		s.getErrs.Inc()
		outcome = "error"
	default:
		s.getBytes.Add(int64(len(blob)))
	}
	sp.End(obs.Arg{Key: "outcome", Val: outcome}, obs.Arg{Key: "bytes", Val: len(blob)})
	return blob, err
}

func (s *instrumented) Put(key uint64, blob []byte) error {
	sp := s.trace.StartSpan("store", "put",
		obs.Arg{Key: "key", Val: KeyName(key)}, obs.Arg{Key: "bytes", Val: len(blob)})
	begin := time.Now() //reunion:nondeterm-ok store latency histogram is host telemetry
	err := s.inner.Put(key, blob)
	s.putTime.Observe(time.Since(begin).Microseconds()) //reunion:nondeterm-ok
	s.puts.Inc()
	if err != nil {
		s.putErrs.Inc()
	} else {
		s.putBytes.Add(int64(len(blob)))
	}
	sp.End(obs.Arg{Key: "err", Val: err != nil})
	return err
}
