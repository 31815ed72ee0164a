package reunion

import (
	"cmp"
	"io"
	"slices"
	"testing"

	"reunion/internal/workload"
)

// TestExperimentShapes runs every paper experiment at quick-campaign
// scale, the scale `reunion-sweep -experiment` prints, and fails on each
// claim that does not hold: the "shape" contract of the reproduction.
// Every claim is logged with its margin (go test -v).
func TestExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickExp(io.Discard)
	for _, e := range Experiments {
		t.Run(cmp.Or(shapeSubtests[e.Name], e.Name), func(t *testing.T) {
			claims, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range claims {
				if c.Holds() {
					t.Log(c)
				} else {
					t.Error(c)
				}
			}
		})
	}
}

// shapeSubtests names each claiming experiment's subtest after the
// result its claims check, the test ids TestExperimentShapes has always
// reported; the two parameter tables run under their -experiment names.
var shapeSubtests = map[string]string{
	"fig5":     "figure5-redundancy-costs",
	"fig6":     "figure6-latency-sensitivity",
	"table3":   "table3-incoherence-ordering",
	"fig7a":    "figure7a-weak-phantoms-collapse",
	"fig7b":    "figure7b-software-tlb-costs-more",
	"sc":       "sc-store-serialization",
	"interval": "interval-ablation-flat",
	"rob":      "rob-window-relieves-occupancy-only",
	"topology": "topology-overhead-carries-over",
}

// TestClaimOps: a value equal to its bound holds a non-strict bound and
// fails a strict one; a noted value is never a failure, and a claim
// without a known op (the zero op, a mistyped one) never holds.
func TestClaimOps(t *testing.T) {
	for _, c := range []struct {
		op                   op
		lower, equal, higher bool
	}{
		{atMost, true, true, false},
		{below, true, false, false},
		{atLeast, false, true, true},
		{above, false, false, true},
		{noted, true, true, true},
		{"", false, false, false},
		{"=<", false, false, false},
	} {
		for i, v := range []float64{0.4, 0.5, 0.6} {
			got := Claim{Value: v, op: c.op, Bound: 0.5}.Holds()
			if want := []bool{c.lower, c.equal, c.higher}[i]; got != want {
				t.Errorf("%.1f %q 0.5 holds %v, want %v", v, c.op, got, want)
			}
		}
	}
	for v, want := range map[float64]bool{-0.6: false, -0.5: true, 0.5: true, 0.6: false} {
		if got := (Claim{Value: v, op: within, Bound: 0.5}).Holds(); got != want {
			t.Errorf("|%.1f| within 0.5 holds %v, want %v", v, got, want)
		}
	}
}

// TestClaimsBiteOneAtATime feeds each experiment's claim function outputs
// that hold every claim, then outputs that break exactly one bound, which
// must be the one claim reported as not holding. No simulation runs.
func TestClaimsBiteOneAtATime(t *testing.T) {
	nw := len(workload.Suite())
	rep := func(n int, vs ...float64) []float64 { // vs repeated n times
		var out []float64
		for range n {
			out = append(out, vs...)
		}
		return out
	}
	with := func(xs []float64, i int, v float64) []float64 {
		xs = slices.Clone(xs)
		xs[i] = v
		return xs
	}
	fig5 := rep(nw, 0.9, 0.88)
	fig6 := func(strict0, strict40, reun0, reun20, reun40 float64) []Claim {
		strict := [][]float64{{strict0, 0.98, 0.97, 0.96, strict40}}
		reun := [][]float64{{reun0, 0.94, reun20, 0.92, reun40}}
		for range workload.Classes()[1:] {
			strict = append(strict, []float64{0.99, 0.98, 0.97, 0.96, 0.95})
			reun = append(reun, []float64{0.95, 0.94, 0.93, 0.92, 0.9})
		}
		return figure6Claims(strict, reun)
	}
	table3 := func(g0, sh0, tlb float64) []Claim {
		var runs []Result
		for wi := range nw {
			g, sh := 0.1, 100.0
			if wi == 0 {
				g, sh = g0, sh0
			}
			runs = append(runs, Result{IncoherencePerM: g, TLBMissPerM: tlb},
				Result{IncoherencePerM: sh}, Result{IncoherencePerM: 100})
		}
		return table3Claims(runs)
	}
	zeroGlobalShared := func() []Claim { // global = shared = 0 summed
		var runs []Result
		for range nw {
			runs = append(runs, Result{TLBMissPerM: 1000}, Result{}, Result{IncoherencePerM: 100})
		}
		return table3Claims(runs)
	}
	fig7a := rep(nw, 0.9, 0.7, 0.5)
	lat := func(hi, lo float64) [][]float64 {
		return [][]float64{{0.95, 0.94, 0.93, 0.92, hi}, {0.94, 0.92, 0.9, 0.88, lo}}
	}
	interval := []float64{0.935, 0.931, 0.922, 0.895}
	robComm, robSci := []float64{0.5, 0.52, 0.53, 0.54}, []float64{0.6, 0.7, 0.8, 0.9}
	topoComm, topoSci := []float64{0.935, 0.938}, []float64{0.935, 0.853}

	for _, c := range []struct {
		breaks string // "": every claim holds
		claims []Claim
	}{
		{"", figure5Claims(fig5)},
		{"", figure5Claims(with(with(fig5, 0, 1.02), 1, 1.02))}, // equal to non-strict bounds
		{"apache: strict vs baseline + 0.02", figure5Claims(with(fig5, 0, 1.03))},
		{"apache: reunion vs baseline + 0.02", figure5Claims(with(with(fig5, 0, 1.0), 1, 1.03))},
		{"apache: reunion vs strict + 0.05", figure5Claims(with(fig5, 1, 0.96))},

		{"", fig6(0.99, 0.95, 0.95, 0.93, 0.9)},
		{"", fig6(0.93, 0.95, 0.95, 0.93, 0.9)}, // equal to a non-strict bound
		{"Web: strict at 0c", fig6(0.92, 0.93, 0.95, 0.93, 0.9)},
		{"Web: strict at 40c vs at 0c + 0.02", fig6(0.99, 1.02, 0.95, 0.93, 0.9)},
		{"Web: reunion at 40c vs at 0c + 0.02", fig6(0.99, 0.95, 0.95, 0.93, 0.98)},
		{"Web: reunion vs strict + 0.05 at 20c", fig6(0.99, 0.95, 0.95, 1.03, 0.9)},

		{"", table3(0.1, 100, 1000)},
		{"global vs shared incoherence per M", zeroGlobalShared()}, // equal to a strict bound
		{"shared vs null x 1.5", table3(0.1, 1000, 1000)},
		{"global vs shared / 20", table3(60, 100, 1000)},
		{"global incoherence vs TLB misses per M", table3(0.1, 100, 0.05)},

		{"", figure7aClaims(fig7a)},
		{"mean global", figure7aClaims(rep(nw, 0.7, 0.7, 0.5))},
		{"mean null vs mean global x 0.75", figure7aClaims(rep(nw, 0.9, 0.7, 0.7))},

		{"", figure7bClaims(lat(0.91, 0.86))},
		{"software vs hardware TLB + 0.01 at 40c", figure7bClaims(lat(0.91, 0.93))},
		{"", scClaims(lat(0.91, 0.8))},
		{"SC vs TSO - 0.05 at 40c", scClaims(lat(0.91, 0.87))},

		{"", intervalClaims(interval)},
		{"spread over intervals", intervalClaims(with(interval, 3, 0.85))},

		{"", robClaims(robComm, robSci)},
		{"scientific gain from the largest window", robClaims(with(robComm, 3, 0.45), with(robSci, 3, 0.6))}, // equal to a strict bound
		{"commercial gain vs scientific gain", robClaims(with(robComm, 3, 0.8), robSci)},
		{"commercial vs scientific at window 4096", robClaims([]float64{0.9, 0.91, 0.93, 0.95}, robSci)},

		{"", topologyClaims(topoComm, topoSci)},
		{"directory: commercial vs baseline", topologyClaims([]float64{1, 0.99}, topoSci)}, // equal to a strict bound
		{"snoopy: scientific vs baseline", topologyClaims(topoComm, with(topoSci, 1, 1))},
		{"commercial snoopy - directory", topologyClaims(with(topoComm, 1, 0.85), topoSci)},
	} {
		var failing []string
		for _, cl := range c.claims {
			if !cl.Holds() {
				failing = append(failing, cl.Name)
			}
		}
		want := []string{c.breaks}
		if c.breaks == "" {
			want = nil
		}
		if !slices.Equal(failing, want) {
			t.Errorf("want only %q to fail, got %q", c.breaks, failing)
		}
	}
}
