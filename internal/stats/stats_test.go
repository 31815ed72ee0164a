package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approx(Mean(xs), 5, 1e-12) {
		t.Fatalf("mean %v", Mean(xs))
	}
	if !approx(StdDev(xs), 2.138, 0.001) {
		t.Fatalf("std %v", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs")
	}
}

func TestT95Table(t *testing.T) {
	if !approx(T95(1), 12.706, 1e-9) || !approx(T95(10), 2.228, 1e-9) {
		t.Fatal("t-table values")
	}
	if T95(100) != 1.96 {
		t.Fatal("large-df approximation")
	}
	if !math.IsInf(T95(0), 1) {
		t.Fatal("df=0 must be infinite")
	}
}

func TestCI95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	if CI95(xs) != 0 {
		t.Fatal("zero-variance CI must be 0")
	}
	if CI95([]float64{1}) != 0 {
		t.Fatal("single sample CI must be 0 (no estimable interval)")
	}
	// n=4, std=1: CI = 3.182 * 1/2
	ys := []float64{-1, 1, -1, 1}
	sd := StdDev(ys)
	if !approx(CI95(ys), 3.182*sd/2, 1e-9) {
		t.Fatalf("CI %v", CI95(ys))
	}
}

func TestMatchedPair(t *testing.T) {
	var mp MatchedPair
	mp.Add(2, 1)   // 0.5
	mp.Add(4, 3)   // 0.75
	mp.Add(0, 100) // ignored (zero baseline)
	if len(mp.Ratios) != 2 {
		t.Fatalf("ratios %v", mp.Ratios)
	}
	if !approx(mp.Mean(), 0.625, 1e-12) {
		t.Fatalf("mean %v", mp.Mean())
	}
	if mp.String() == "" {
		t.Fatal("string")
	}
	var single MatchedPair
	single.Add(1, 1)
	if single.String() != "1.000" {
		t.Fatalf("single-sample string %q", single.String())
	}
}

func TestGeoMean(t *testing.T) {
	if !approx(GeoMean([]float64{1, 4}), 2, 1e-12) {
		t.Fatal("geomean")
	}
	if GeoMean([]float64{1, 0}) != 0 || GeoMean(nil) != 0 {
		t.Fatal("degenerate geomean")
	}
	// Property: geomean of equal values is that value; geomean <= arith mean.
	f := func(v float64, n uint8) bool {
		v = math.Abs(v)
		if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
			return true
		}
		xs := make([]float64, int(n%10)+1)
		for i := range xs {
			xs[i] = v
		}
		return approx(GeoMean(xs), v, v*1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() != len(xs) {
		t.Fatalf("N = %d", o.N())
	}
	if !approx(o.Mean(), Mean(xs), 1e-12) {
		t.Fatalf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !approx(o.StdDev(), StdDev(xs), 1e-12) {
		t.Fatalf("online std %v vs batch %v", o.StdDev(), StdDev(xs))
	}
	if !approx(o.CI95(), CI95(xs), 1e-12) {
		t.Fatalf("online CI %v vs batch %v", o.CI95(), CI95(xs))
	}
	// Property: agreement holds for arbitrary streams.
	f := func(raw []float64) bool {
		var clean []float64
		for _, v := range raw {
			if math.IsInf(v, 0) || math.IsNaN(v) || math.Abs(v) > 1e50 {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) < 2 {
			return true
		}
		var on Online
		for _, v := range clean {
			on.Add(v)
		}
		scale := math.Max(1, math.Abs(Mean(clean)))
		return approx(on.Mean(), Mean(clean), 1e-9*scale) &&
			approx(on.StdDev(), StdDev(clean), 1e-6*math.Max(scale, StdDev(clean)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineDegenerate(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.StdDev() != 0 || o.CI95() != 0 {
		t.Fatal("empty accumulator")
	}
	o.Add(3)
	if o.Mean() != 3 || o.StdDev() != 0 || o.CI95() != 0 {
		t.Fatal("single observation")
	}
	if o.String() != "3.000 (n=1)" {
		t.Fatalf("string %q", o.String())
	}
}

// TestDegenerateInputsDefined is the empty/degenerate-input contract:
// every summary statistic must return a defined, finite value for n=0 and
// n=1 — never NaN or ±Inf, which poison downstream aggregation and cannot
// be serialized to JSON results files.
func TestDegenerateInputsDefined(t *testing.T) {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

	t.Run("Histogram.Mean", func(t *testing.T) {
		cases := []struct {
			name string
			add  []int64
			want float64
		}{
			{"n=0", nil, 0},
			{"n=1", []int64{7}, 7},
			{"n=1 zero", []int64{0}, 0},
			{"n=1 negative clamps", []int64{-5}, 0},
		}
		for _, c := range cases {
			var h Histogram
			for _, v := range c.add {
				h.Add(v)
			}
			if got := h.Mean(); !finite(got) || got != c.want {
				t.Errorf("%s: Mean() = %v, want %v", c.name, got, c.want)
			}
			if q := h.Quantile(0.5); q < 0 {
				t.Errorf("%s: Quantile(0.5) = %v", c.name, q)
			}
		}
	})

	t.Run("Online.CI95", func(t *testing.T) {
		cases := []struct {
			name string
			add  []float64
			want float64
		}{
			{"n=0", nil, 0},
			{"n=1", []float64{3}, 0},
			{"n=2", []float64{1, 1}, 0},
		}
		for _, c := range cases {
			var o Online
			for _, v := range c.add {
				o.Add(v)
			}
			if got := o.CI95(); !finite(got) || got != c.want {
				t.Errorf("%s: CI95() = %v, want %v", c.name, got, c.want)
			}
		}
	})

	t.Run("GeoMean", func(t *testing.T) {
		cases := []struct {
			name string
			xs   []float64
			want float64
		}{
			{"n=0", nil, 0},
			{"n=1", []float64{2.5}, 2.5},
			{"n=1 zero", []float64{0}, 0},
			{"n=1 negative", []float64{-3}, 0},
		}
		for _, c := range cases {
			if got := GeoMean(c.xs); !finite(got) || got != c.want {
				t.Errorf("%s: GeoMean(%v) = %v, want %v", c.name, c.xs, got, c.want)
			}
		}
	})

	t.Run("WilsonCI", func(t *testing.T) {
		cases := []struct {
			name           string
			k, n           int64
			wantLo, wantHi float64 // -1 = only check finiteness and bounds
		}{
			{"n=0", 0, 0, 0, 1},
			{"n=0 k>0", 3, 0, 0, 1},
			{"n=1 k=0", 0, 1, -1, -1},
			{"n=1 k=1", 1, 1, -1, -1},
			{"n negative", 0, -2, 0, 1},
		}
		for _, c := range cases {
			lo, hi := WilsonCI(c.k, c.n)
			if !finite(lo) || !finite(hi) || lo < 0 || hi > 1 || lo > hi {
				t.Errorf("%s: WilsonCI(%d,%d) = (%v,%v)", c.name, c.k, c.n, lo, hi)
			}
			if c.wantLo >= 0 && (lo != c.wantLo || hi != c.wantHi) {
				t.Errorf("%s: WilsonCI(%d,%d) = (%v,%v), want (%v,%v)",
					c.name, c.k, c.n, lo, hi, c.wantLo, c.wantHi)
			}
		}
	})
}

func TestPerMillion(t *testing.T) {
	if PerMillion(5, 1_000_000) != 5 {
		t.Fatal("per million")
	}
	if PerMillion(5, 0) != 0 {
		t.Fatal("zero instructions")
	}
	if !approx(PerMillion(1, 2_000_000), 0.5, 1e-12) {
		t.Fatal("fractional rate")
	}
}

func TestWilsonCI(t *testing.T) {
	// Degenerate inputs stay honest.
	if lo, hi := WilsonCI(0, 0); lo != 0 || hi != 1 {
		t.Fatalf("n=0: [%v,%v]", lo, hi)
	}
	// k=0 leaves a nonzero upper bound; k=n leaves a sub-one lower bound.
	lo, hi := WilsonCI(0, 50)
	if lo != 0 || hi <= 0 || hi > 0.15 {
		t.Fatalf("0/50: [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(50, 50)
	if hi != 1 || lo >= 1 || lo < 0.85 {
		t.Fatalf("50/50: [%v,%v]", lo, hi)
	}
	// A balanced proportion brackets p and tightens with n.
	lo1, hi1 := WilsonCI(5, 10)
	lo2, hi2 := WilsonCI(500, 1000)
	if lo1 >= 0.5 || hi1 <= 0.5 || lo2 >= 0.5 || hi2 <= 0.5 {
		t.Fatal("interval must bracket p=0.5")
	}
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval must tighten with n")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.String() != "n=0" || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram")
	}
	for v := int64(1); v <= 100; v++ {
		h.Add(v)
	}
	if h.N() != 100 || h.Max() != 100 {
		t.Fatalf("n=%d max=%d", h.N(), h.Max())
	}
	if !approx(h.Mean(), 50.5, 1e-12) {
		t.Fatalf("mean %v", h.Mean())
	}
	// Quantiles are bucket-resolution upper bounds: within 2x of exact,
	// never below the exact rank value, clamped to max.
	for _, q := range []float64{0.5, 0.9, 0.95, 1} {
		exact := int64(q * 100)
		got := h.Quantile(q)
		if got < exact || got > 2*exact+1 || got > h.Max() {
			t.Fatalf("q%.2f: got %d, exact %d", q, got, exact)
		}
	}
	// Negative observations clamp to zero, zero lands in its own bucket.
	var z Histogram
	z.Add(-5)
	z.Add(0)
	if z.Quantile(1) != 0 || z.N() != 2 {
		t.Fatalf("zero bucket: %s", z.String())
	}
}
