package cliconf

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"reunion"
	"reunion/internal/sweep"
)

// Every axis parser: accepts its valid names, dedupes with a warning,
// and rejects unknown values with the full valid-name list — the
// fail-fast contract the CLIs rely on.
func TestAxisParsers(t *testing.T) {
	cases := []struct {
		name    string
		parse   func(w io.Writer, csv string) (int, error) // returns value count
		ok      string
		okCount int
		dup     string
		bad     string
		wantErr string // substring the rejection must carry
	}{
		{
			name: "modes sweep",
			parse: func(w io.Writer, csv string) (int, error) {
				ms, err := Modes(w, "t", csv, true)
				return len(ms), err
			},
			ok: "non-redundant,strict,reunion", okCount: 3,
			dup: "reunion,reunion", bad: "warp",
			wantErr: "non-redundant, strict, reunion",
		},
		{
			name: "modes inject",
			parse: func(w io.Writer, csv string) (int, error) {
				ms, err := Modes(w, "t", csv, false)
				return len(ms), err
			},
			ok: "reunion,non-redundant", okCount: 2,
			dup: "reunion,reunion", bad: "warp",
			wantErr: "reunion, non-redundant",
		},
		{
			name: "phantoms",
			parse: func(w io.Writer, csv string) (int, error) {
				ps, err := Phantoms(w, "t", csv)
				return len(ps), err
			},
			ok: "global,shared,null", okCount: 3,
			dup: "global,global", bad: "ghost",
			wantErr: "global, shared, null",
		},
		{
			name: "tlbs",
			parse: func(w io.Writer, csv string) (int, error) {
				ts, err := TLBs(w, "t", csv)
				return len(ts), err
			},
			ok: "hardware,software", okCount: 2,
			dup: "hardware,hardware", bad: "firmware",
			wantErr: "hardware, software",
		},
		{
			name: "consistencies",
			parse: func(w io.Writer, csv string) (int, error) {
				cs, err := Consistencies(w, "t", csv)
				return len(cs), err
			},
			ok: "tso,sc", okCount: 2,
			dup: "tso,tso", bad: "weak",
			wantErr: "tso, sc",
		},
		{
			name: "workloads",
			parse: func(w io.Writer, csv string) (int, error) {
				ps, err := Workloads(w, "t", csv)
				return len(ps), err
			},
			ok: "apache,ocean", okCount: 2,
			dup: "apache,apache", bad: "nope",
			wantErr: "apache",
		},
		{
			name: "latencies",
			parse: func(w io.Writer, csv string) (int, error) {
				ls, err := Latencies(w, "t", csv)
				return len(ls), err
			},
			ok: "0,10,40", okCount: 3,
			dup: "10,10", bad: "ten",
			wantErr: "invalid syntax",
		},
		{
			name: "intervals",
			parse: func(w io.Writer, csv string) (int, error) {
				is, err := Intervals(w, "t", csv)
				return len(is), err
			},
			ok: "1,5", okCount: 2,
			dup: "1,1", bad: "one",
			wantErr: "invalid syntax",
		},
		{
			name: "seeds",
			parse: func(w io.Writer, csv string) (int, error) {
				ss, err := Seeds(w, "t", csv)
				return len(ss), err
			},
			ok: "1,2,0x10", okCount: 3,
			dup: "1,1", bad: "-1x",
			wantErr: "invalid syntax",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var warn bytes.Buffer
			n, err := c.parse(&warn, c.ok)
			if err != nil || n != c.okCount {
				t.Fatalf("parse(%q) = %d, %v; want %d values", c.ok, n, err, c.okCount)
			}
			if warn.Len() != 0 {
				t.Errorf("unexpected warnings for %q: %q", c.ok, warn.String())
			}

			warn.Reset()
			if n, err := c.parse(&warn, c.dup); err != nil || n != 1 {
				t.Fatalf("parse(%q) = %d, %v; want 1 deduped value", c.dup, n, err)
			}
			if !strings.Contains(warn.String(), "duplicate") {
				t.Errorf("no duplicate warning for %q: %q", c.dup, warn.String())
			}

			if _, err := c.parse(&warn, c.bad); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("parse(%q) = %v, want error containing %q", c.bad, err, c.wantErr)
			}
		})
	}
}

func TestModesStrictRejectedForInject(t *testing.T) {
	_, err := Modes(io.Discard, "t", "strict", false)
	if err == nil || !strings.Contains(err.Error(), "comparison timing only") {
		t.Fatalf("strict accepted for inject form: %v", err)
	}
	ms, err := Modes(io.Discard, "t", "strict", true)
	if err != nil || len(ms) != 1 || ms[0] != reunion.ModeStrict {
		t.Fatalf("strict rejected for sweep form: %v %v", ms, err)
	}
}

func TestWarningsNameTheTool(t *testing.T) {
	var warn bytes.Buffer
	if _, err := Seeds(&warn, "mytool", "5,5"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn.String(), "mytool") {
		t.Errorf("warning does not name the tool: %q", warn.String())
	}
}

func TestKernel(t *testing.T) {
	for in, want := range map[string]reunion.Kernel{
		"fastforward":  reunion.KernelFastForward,
		"fast-forward": reunion.KernelFastForward,
		"naive":        reunion.KernelNaive,
	} {
		got, err := Kernel(in)
		if err != nil || got != want {
			t.Errorf("Kernel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := Kernel("warp"); err == nil || !strings.Contains(err.Error(), "fastforward, naive") {
		t.Errorf("Kernel error does not list valid kernels: %v", err)
	}
}

func TestSplitCSVAndNumericParsers(t *testing.T) {
	if got := SplitCSV(" a, ,b,,c "); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SplitCSV = %v", got)
	}
	if out := SplitCSV(""); len(out) != 0 {
		t.Fatalf("SplitCSV(\"\") = %v", out)
	}
	if v, err := Int64s("1,-2,3"); err != nil || len(v) != 3 || v[1] != -2 {
		t.Fatalf("Int64s = %v, %v", v, err)
	}
	if _, err := Int64s("ten"); err == nil {
		t.Fatal("Int64s accepted non-numeric")
	}
	if v, err := Uint64s("0x10,7"); err != nil || v[0] != 16 || v[1] != 7 {
		t.Fatalf("Uint64s = %v, %v", v, err)
	}
	if _, err := Uint64s("-1"); err == nil {
		t.Fatal("Uint64s accepted negative")
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in           string
		defLo, defHi int64
		lo, hi       int64
		bad          bool
	}{
		{"3-9", 0, 63, 3, 9, false},
		{"5", 0, 63, 5, 5, false},
		{"", 2, 7, 2, 7, false},
		{"9-3", 0, 63, 0, 0, true},
		{"x-3", 0, 63, 0, 0, true},
		{"3-y", 0, 63, 0, 0, true},
	}
	for _, c := range cases {
		lo, hi, err := ParseRange(c.in, c.defLo, c.defHi)
		if c.bad {
			if err == nil {
				t.Errorf("ParseRange(%q) accepted", c.in)
			}
			continue
		}
		if err != nil || lo != c.lo || hi != c.hi {
			t.Errorf("ParseRange(%q) = %d,%d,%v; want %d,%d", c.in, lo, hi, err, c.lo, c.hi)
		}
	}
}

func TestCheckJournalFlags(t *testing.T) {
	cases := []struct {
		name            string
		journal, format string
		resume, outSet  bool
		wantErr         string
	}{
		{"plain out", "", "jsonl", false, true, ""},
		{"journal ok", "j.jsonl", "jsonl", false, false, ""},
		{"journal resume ok", "j.jsonl", "jsonl", true, false, ""},
		{"journal csv", "j.jsonl", "csv", false, false, "jsonl-only"},
		{"journal and out", "j.jsonl", "jsonl", false, true, "mutually exclusive"},
		{"resume without journal", "", "jsonl", true, false, "-resume requires -journal"},
		{"unknown format", "", "xml", false, false, `unknown format "xml"`},
	}
	for _, c := range cases {
		err := CheckJournalFlags("t", c.journal, c.format, c.resume, c.outSet)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestFlagGroups(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	obsf := RegisterObs(fs).WithHeartbeat(fs)
	ckpt := RegisterCkpt(fs)
	if err := fs.Parse([]string{"-trace-out", "tr.json", "-heartbeat", "5s", "-ckpt-store", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	if *obsf.TraceOut != "tr.json" {
		t.Fatalf("obs flags: %q", *obsf.TraceOut)
	}
	if hb := obsf.Heartbeat("t", 10); hb == nil || hb.Label != "t" || hb.Total != 10 {
		t.Fatalf("heartbeat: %+v", hb)
	}
	if obsf.Tracer() == nil {
		t.Fatal("no tracer despite -trace-out")
	}
	if s, err := ckpt.Open(); err != nil || s == nil {
		t.Fatalf("ckpt open: %v, %v", s, err)
	}

	// Tracer, heartbeat and store off by default: nil, and nil-safe
	// downstream.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	o2 := RegisterObs(fs2).WithHeartbeat(fs2)
	ckpt2 := RegisterCkpt(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr := o2.Tracer(); tr != nil {
		t.Fatalf("tracer without flag: %+v", tr)
	}
	if err := o2.WriteTrace(o2.Tracer()); err != nil {
		t.Fatalf("nil tracer write: %v", err)
	}
	if hb := o2.Heartbeat("t", 1); hb != nil {
		t.Fatalf("heartbeat without flag: %+v", hb)
	}
	if s, err := ckpt2.Open(); err != nil || s != nil {
		t.Fatalf("ckpt open without flag: %v, %v", s, err)
	}
}

// A count flag below its minimum fails fs.Parse (the CLIs exit 2) and
// leaves the value alone; at or above it, the value is taken as given.
// The help text shows a non-zero default, as for a plain int flag.
func TestAtLeastFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
	}{
		{[]string{"-parallel", "1"}, true},
		{[]string{"-parallel", "0"}, false},
		{[]string{"-parallel", "-3"}, false},
		{[]string{"-parallel", "x"}, false},
		{[]string{"-heartbeat", "0"}, true},
		{[]string{"-heartbeat", "2s"}, true},
		{[]string{"-heartbeat", "-1s"}, false},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		rf := RegisterRange(fs, "t", "run", "out.jsonl", false)
		o := RegisterObs(fs).WithHeartbeat(fs)
		def := *rf.Parallel
		err := fs.Parse(c.args)
		if (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok %v", c.args, err, c.ok)
		}
		if !c.ok && (*rf.Parallel != def || *o.HeartbeatEvery != 0) {
			t.Errorf("%q: a rejected value was stored (parallel %d, heartbeat %v)", c.args, *rf.Parallel, *o.HeartbeatEvery)
		}
	}
	var help bytes.Buffer
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(&help)
	AtLeast(fs, "trials", 200, 1, strconv.Atoi, "trial `budget`")
	RegisterObs(fs).WithHeartbeat(fs)
	fs.PrintDefaults()
	if !strings.Contains(help.String(), "-trials budget") || !strings.Contains(help.String(), "(default 200)") ||
		strings.Contains(help.String(), "default 0s") {
		t.Errorf("help text:\n%s", help.String())
	}
}

// ValidatePoints names the first matrix point its check rejects.
func TestValidatePoints(t *testing.T) {
	spec := sweep.Spec[reunion.Options]{Name: "t", Base: reunion.DefaultOptions(),
		Axes: []sweep.Axis[reunion.Options]{reunion.LatencyAxis([]int64{0, -5})}}
	if err := ValidatePoints(spec, reunion.Options.Validate); err == nil ||
		!strings.Contains(err.Error(), "latency=-5: reunion: comparison latency -5") {
		t.Errorf("err = %v, want the latency=-5 point named", err)
	}
	spec.Axes = []sweep.Axis[reunion.Options]{reunion.LatencyAxis([]int64{0, 10})}
	if err := ValidatePoints(spec, reunion.Options.Validate); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	if err := ValidatePoints(spec, reunion.Options.ValidateTrial); err == nil || !strings.Contains(err.Error(), "commit target 0") {
		t.Errorf("a trial cell without a commit target passed: %v", err)
	}
}

// The stop path flushes a complete profile: a CLI that runs it before
// exiting leaves a readable (non-empty) file even when the run failed.
func TestStartCPUProfileStopFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := StartCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile after stop: %v, %v", fi, err)
	}

	stop, err = StartCPUProfile("")
	if err != nil {
		t.Fatalf("no profile: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("no-op stop: %v", err)
	}
	if _, err := StartCPUProfile(filepath.Join(t.TempDir(), "missing", "cpu.prof")); err == nil {
		t.Fatal("uncreatable profile path accepted")
	}
}
