// Package stats provides the measurement machinery of the evaluation
// (paper §5): matched-pair comparison of performance across seeds with
// 95% confidence intervals, and small numeric helpers for the result
// tables.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// two-sided 95% Student t critical values for df = 1..30; beyond that the
// normal approximation 1.96 is close enough.
var t95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// T95 returns the two-sided 95% t critical value for the given degrees of
// freedom.
func T95(df int) float64 {
	if df <= 0 {
		return math.Inf(1)
	}
	if df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
// With fewer than two observations no interval is estimable; it returns 0
// rather than ±Inf so degenerate inputs stay finite in serialized results
// (JSON cannot encode Inf) and downstream arithmetic.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return T95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// MatchedPair is the paper's sampling methodology (per SimFlex [24]):
// performance changes are estimated per matched sample (same seed, same
// checkpoint) and aggregated, which cancels sample-to-sample workload
// variation.
type MatchedPair struct {
	Ratios []float64 // test/baseline per seed
}

// Add records one matched observation.
func (m *MatchedPair) Add(baseline, test float64) {
	if baseline > 0 {
		m.Ratios = append(m.Ratios, test/baseline)
	}
}

// Mean returns the mean performance ratio.
func (m *MatchedPair) Mean() float64 { return Mean(m.Ratios) }

// CI returns the 95% confidence half-width of the ratio.
func (m *MatchedPair) CI() float64 { return CI95(m.Ratios) }

// String renders "0.95 ±0.01".
func (m *MatchedPair) String() string {
	if len(m.Ratios) < 2 {
		return fmt.Sprintf("%.3f", m.Mean())
	}
	return fmt.Sprintf("%.3f ±%.3f", m.Mean(), m.CI())
}

// GeoMean returns the geometric mean (used for class averages of
// normalized IPC).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Online accumulates a stream's count, mean, and variance in one pass
// (Welford's algorithm), so sweep consumers can summarize thousands of
// streamed results without buffering them.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation in.
func (o *Online) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean (0 for an empty stream).
func (o *Online) Mean() float64 { return o.mean }

// StdDev returns the running sample standard deviation (n-1 denominator).
func (o *Online) StdDev() float64 {
	if o.n < 2 {
		return 0
	}
	return math.Sqrt(o.m2 / float64(o.n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
// Like the package-level CI95, it returns 0 (not ±Inf) for n < 2.
func (o *Online) CI95() float64 {
	if o.n < 2 {
		return 0
	}
	return T95(o.n-1) * o.StdDev() / math.Sqrt(float64(o.n))
}

// String renders "0.950 ±0.010 (n=12)".
func (o *Online) String() string {
	if o.n < 2 {
		return fmt.Sprintf("%.3f (n=%d)", o.mean, o.n)
	}
	return fmt.Sprintf("%.3f ±%.3f (n=%d)", o.Mean(), o.CI95(), o.n)
}

// PerMillion scales an event count to events per million instructions.
func PerMillion(events, instructions int64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1e6 / float64(instructions)
}

// WilsonCI returns the 95% Wilson score interval for a binomial
// proportion of k successes in n trials. Unlike the normal approximation
// it stays inside [0,1] and behaves at k=0 and k=n, which is exactly the
// regime coverage campaigns live in (zero observed SDCs still leaves an
// honest upper bound on the SDC rate).
func WilsonCI(k, n int64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Histogram accumulates non-negative integer observations (e.g. detection
// latencies in cycles) into power-of-two buckets, keeping exact count,
// sum, min and max. Quantiles are bucket-resolution estimates — at most a
// factor-of-two overestimate — which is the right cost/fidelity trade for
// summarizing thousands of streamed trials without buffering them.
type Histogram struct {
	buckets [65]int64 // buckets[i] counts values with bit length i (0 → value 0)
	n       int64
	sum     int64
	min     int64 // read only by this package's tests (export_test.go)
	max     int64
}

// Add folds one observation in; negative values are clamped to 0.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observation (0 for an empty histogram).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// top of the bucket where the cumulative count crosses q·n, clamped to
// the observed max. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			if i == 0 {
				return 0
			}
			top := int64(1)<<uint(i) - 1
			if top > h.max {
				top = h.max
			}
			return top
		}
	}
	return h.max
}

// String renders "n=42 mean=13.5 p50≤15 p95≤63 max=70".
func (h *Histogram) String() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50≤%d p95≤%d max=%d",
		h.n, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.max)
}
