// Package util is not a tick-path package: host-side tooling may trace
// unconditionally without a gate.
package util

import "obsgated/trace"

func Dump(r *trace.Ring) {
	r.Addf(0, 1, "dump")
}
