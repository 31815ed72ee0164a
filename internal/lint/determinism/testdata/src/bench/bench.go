// Package bench is a benchmark harness: measuring host time is its
// whole point, so the file is annotated wholesale.
// //reunion:nondeterm-ok benchmark harness measures host time by design
package bench

import (
	"time"

	"res"
)

func Measure(c *res.Collector) {
	t0 := time.Now()
	c.Write(time.Since(t0).String())
}
