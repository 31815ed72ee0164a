package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestFoldTracesFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lt, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"mem":       0.010, // leaf in runtime; the innermost module frame is an inlined mem frame
		"sweep":     0.020, // generic frame whose type arguments name workload and campaign
		"cpu":       1.200,
		"runtime":   0.200, // no module frame at all
		"reunion":   0.050, // label line skipped
		"ckptstore": 0.030, // standard-library leaf charged to its caller
		"other":     0.010, // main package
	}
	var sum float64
	for l, v := range lt.seconds {
		sum += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s.self_s = %g, want %g", l, v, want[l])
		}
	}
	for l := range want {
		if _, ok := lt.seconds[l]; !ok {
			t.Errorf("layer %s missing", l)
		}
	}
	if lt.total != 1.51 {
		t.Errorf("total = %g, want the header's 1.51", lt.total)
	}
	if math.Abs(sum-lt.total)/lt.total > 0.01 {
		t.Errorf("layers sum to %g, more than 1%% from the profile total %g", sum, lt.total)
	}
}

func TestFoldTracesNeedsTotal(t *testing.T) {
	in := traceSeparator + "---\n      10ms   reunion.(*System).Run\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("folded a profile without a Total samples header")
	}
}

func TestLayerOf(t *testing.T) {
	for frame, want := range map[string]string{
		"reunion/internal/core.(*Pair).Tick":            "core",
		"reunion/internal/bin.(*Reader).U64 (inline)":   "bin",
		"reunion/internal/snoop.(*Bus).Tick":            "other",
		"reunion/internal/lint/analysis.LoadModule":     "other",
		"reunion.(*memo[go.shape.eeff00e5]).do.func1":   "reunion",
		"main.(*bench).cliRound":                        "other",
		"runtime.mallocgc":                              "",
		"encoding/json.(*decodeState).object":           "",
		"reunion/internal/dist.MergeObs[...].func2":     "dist",
		"reunion/internal/coherence.(*L2).Tick.func1":   "coherence",
		"reunion/internal/interconnect.(*XBar).Deliver": "interconnect",
	} {
		if got := layerOf(frame); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", frame, got, want)
		}
	}
}

func TestParseSampleValue(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "3ns": 3e-9, "1.5hrs": 5400} {
		got, err := parseSampleValue(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSampleValue(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseSampleValue("10 widgets"); err == nil {
		t.Error("parsed a value without a time unit")
	}
}
