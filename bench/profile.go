package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the buckets a CPU-profile sample is charged to: the package
// of its innermost frame in this module (reunion is the root package),
// runtime when no frame is in this module, and other for this module's
// remaining packages, main packages included.
var layers = []string{
	"sim", "cpu", "core", "fingerprint", "cache", "tlb", "bpred", "coherence",
	"interconnect", "mem", "isa", "workload", "reunion", "campaign", "sweep",
	"dist", "ckptstore", "bin", "runtime", "other",
}

// profileLayers folds CPU profiles (merged into one) by layer. The text
// `go tool pprof -traces` prints is parsed instead of the protobuf, so no
// decoder is needed beyond the toolchain that builds the benchmark.
func profileLayers(ctx context.Context, profiles ...string) (layerTimes, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return layerTimes{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(bytes.NewReader(out))
}

// layerTimes is a profile's CPU seconds by layer and its stated total.
type layerTimes struct {
	seconds map[string]float64
	total   float64
}

// setLayers records each layer's self time per traced round.
func (b *bench) setLayers(lt layerTimes, rounds int) {
	for _, l := range layers {
		b.set(l+".self_s", "s", lt.seconds[l]/float64(rounds))
	}
	b.set("profile.total_s", "s", lt.total/float64(rounds))
}

const traceSeparator = "-----------+"

// foldTraces reads `go tool pprof -traces` output. Each sample block
// starts after a separator line; its first frame line carries the sample
// value in a right-aligned 10-column field, and frames run from the leaf
// outward. Label lines ("%10s:  %s") are skipped.
func foldTraces(r io.Reader) (layerTimes, error) {
	lt := layerTimes{seconds: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var (
		inBlock bool
		value   float64
		layer   string
		haveTot bool
	)
	flush := func() {
		if inBlock && value > 0 {
			if layer == "" {
				layer = "runtime"
			}
			lt.seconds[layer] += value
		}
		value, layer = 0, ""
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			inBlock = true
			continue
		}
		if !inBlock {
			if _, tot, ok := strings.Cut(line, "Total samples = "); ok {
				v, err := parseSampleValue(strings.Fields(tot)[0])
				if err != nil {
					return lt, err
				}
				lt.total, haveTot = v, true
			}
			continue
		}
		if len(line) < 13 || line[10] == ':' || line[10:13] != "   " {
			continue
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			s, err := parseSampleValue(v)
			if err != nil {
				return lt, err
			}
			value = s
		}
		if layer == "" {
			layer = layerOf(line[13:])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return lt, err
	}
	if !haveTot {
		return lt, fmt.Errorf("pprof traces: no \"Total samples\" header")
	}
	return lt, nil
}

// layerOf names the layer of one frame, or "" for a frame outside this
// module. Generic instantiation text ("[go.shape...]") is dropped first:
// it can name other packages, and its slashes and dots would otherwise
// hide where the function's own package path ends.
func layerOf(frame string) string {
	name := stripGenerics(strings.TrimSuffix(strings.TrimSpace(frame), " (inline)"))
	switch {
	case strings.HasPrefix(name, "main."):
		return "other"
	case strings.HasPrefix(name, "reunion."):
		return "reunion"
	case !strings.HasPrefix(name, "reunion/"):
		return ""
	}
	slash := strings.LastIndex(name, "/")
	pkg := name
	if dot := strings.Index(name[slash:], "."); dot >= 0 {
		pkg = name[:slash+dot]
	}
	if l, ok := strings.CutPrefix(pkg, "reunion/internal/"); ok {
		for _, known := range layers {
			if l == known {
				return l
			}
		}
	}
	return "other"
}

func stripGenerics(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// parseSampleValue parses a pprof time label such as "10ms" or "1.50s"
// into seconds.
func parseSampleValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1e-9}, {"us", 1e-6}, {"μs", 1e-6}, {"ms", 1e-3}, {"hrs", 3600}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof traces: sample value %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof traces: sample value %q has no time unit", s)
}
