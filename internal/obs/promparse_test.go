package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line of a Prometheus text exposition.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family: its TYPE, optional HELP, and
// samples in file order.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// ParsePrometheus is a strict parser for the subset of the Prometheus
// text exposition format (version 0.0.4) this package emits. It exists
// so tests can round-trip -metrics-out output through an independent check:
// every sample line must parse, every sample must belong to a family
// declared by a preceding # TYPE line, histogram buckets must be
// cumulative and monotone and end at le="+Inf" matching _count. It is
// not a general-purpose scraper.
func ParsePrometheus(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var fams []PromFamily
	byName := map[string]*PromFamily{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without metric name", lineNo)
			}
			f := ensureFamily(&fams, byName, name)
			f.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			f := ensureFamily(&fams, byName, name)
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(byName, s.Name)
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, s.Name)
		}
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if err := checkFamily(&fams[i]); err != nil {
			return nil, err
		}
	}
	return fams, nil
}

func ensureFamily(fams *[]PromFamily, byName map[string]*PromFamily, name string) *PromFamily {
	if f, ok := byName[name]; ok {
		return f
	}
	*fams = append(*fams, PromFamily{Name: name})
	f := &(*fams)[len(*fams)-1]
	byName[name] = f
	return f
}

// familyOf resolves a sample name to its family, stripping the
// histogram suffixes (_bucket/_sum/_count) when the base name is a
// declared histogram.
func familyOf(byName map[string]*PromFamily, sample string) *PromFamily {
	if f, ok := byName[sample]; ok {
		return f
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suf)
		if base == sample {
			continue
		}
		if f, ok := byName[base]; ok && f.Type == "histogram" {
			return f
		}
	}
	return nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	if brace >= 0 {
		s.Name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		var err error
		s.Labels, err = parseLabels(rest[brace+1 : end])
		if err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		var ok bool
		s.Name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return s, fmt.Errorf("sample %q has no value", line)
		}
	}
	if s.Name == "" || !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	// the emitter writes no timestamps, so the remainder is the value
	val := strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q: %v", val, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed label pair in %q", s)
		}
		key := s[:eq]
		if !validName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q value is not quoted", key)
		}
		s = s[1:]
		var b strings.Builder
		i := 0
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", s[i], key)
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		out[key] = b.String()
		s = s[i+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = s[1:]
		}
	}
	return out, nil
}

// checkFamily enforces the per-type invariants — for histograms, that
// each label set's buckets are cumulative-monotone, end at le="+Inf",
// and agree with _count.
func checkFamily(f *PromFamily) error {
	if f.Type == "" {
		return fmt.Errorf("metric %q has samples but no TYPE", f.Name)
	}
	if f.Type != "histogram" {
		return nil
	}
	// Group by the non-le label signature.
	type histState struct {
		buckets []PromSample
		sum     *float64
		count   *float64
	}
	groups := map[string]*histState{}
	sig := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%q,", k, labels[k])
		}
		return b.String()
	}
	get := func(labels map[string]string) *histState {
		k := sig(labels)
		g, ok := groups[k]
		if !ok {
			g = &histState{}
			groups[k] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch {
		case s.Name == f.Name+"_bucket":
			if _, ok := s.Labels["le"]; !ok {
				return fmt.Errorf("histogram %q bucket without le label", f.Name)
			}
			g := get(s.Labels)
			g.buckets = append(g.buckets, s)
		case s.Name == f.Name+"_sum":
			v := s.Value
			get(s.Labels).sum = &v
		case s.Name == f.Name+"_count":
			v := s.Value
			get(s.Labels).count = &v
		default:
			return fmt.Errorf("histogram %q has stray sample %q", f.Name, s.Name)
		}
	}
	for k, g := range groups {
		if len(g.buckets) == 0 {
			return fmt.Errorf("histogram %q series {%s} has no buckets", f.Name, k)
		}
		if g.sum == nil || g.count == nil {
			return fmt.Errorf("histogram %q series {%s} missing _sum or _count", f.Name, k)
		}
		last := g.buckets[len(g.buckets)-1]
		if last.Labels["le"] != "+Inf" {
			return fmt.Errorf("histogram %q series {%s} does not end at le=\"+Inf\"", f.Name, k)
		}
		if last.Value != *g.count {
			return fmt.Errorf("histogram %q series {%s}: +Inf bucket %v != count %v", f.Name, k, last.Value, *g.count)
		}
		prevLe := "" // emitter writes le bounds in ascending numeric order
		prev := -1.0
		for _, b := range g.buckets {
			if b.Value < prev {
				return fmt.Errorf("histogram %q series {%s}: bucket le=%q count %v below previous %v (not cumulative)",
					f.Name, k, b.Labels["le"], b.Value, prev)
			}
			prev = b.Value
			if le := b.Labels["le"]; le != "+Inf" {
				cur, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("histogram %q: bad le %q", f.Name, le)
				}
				if prevLe != "" {
					p, _ := strconv.ParseFloat(prevLe, 64)
					if cur <= p {
						return fmt.Errorf("histogram %q: le bounds not ascending (%q after %q)", f.Name, le, prevLe)
					}
				}
				prevLe = le
			}
		}
	}
	return nil
}
