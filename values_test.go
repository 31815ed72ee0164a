package reunion

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reunion/internal/workload"
)

// TestZeroIsAValue walks every numeric Options field, each Config knob
// Validate checks, and every numeric flag of reunion-sweep and reunion-inject at zero and below. Each value
// either runs as given, so what ran matches its label, or is rejected:
// an error from Run naming the field, exit 2 from a CLI. No zero stands
// for a default anywhere between a flag and a run.
func TestZeroIsAValue(t *testing.T) {
	base := DefaultOptions()
	base.Mode, base.Workload = ModeStrict, workload.Apache()
	base.WarmCycles, base.MeasureCycles = 2_000, 2_000
	run := func(set func(*Options)) (Result, error) {
		o := base
		set(&o)
		return Run(o)
	}
	ref, err := run(func(*Options) {})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		set  func(*Options)
		// check, for a value that runs, tells its run from the default's;
		// a nil check means the value must be rejected with an error
		// naming want.
		check func(t *testing.T, r Result)
		want  string
	}{
		{"Threads 0", func(o *Options) { o.Config.LogicalProcessors = 0 }, nil, "logical processors 0"},
		{"Threads -1", func(o *Options) { o.Config.LogicalProcessors = -1 }, nil, "logical processors -1"},
		{"Seed 0", func(o *Options) { o.Seed = 0 }, func(t *testing.T, r Result) {
			if reflect.DeepEqual(r, ref) {
				t.Error("seed 0 ran the default seed's run")
			}
		}, ""},
		{"CompareLatency 0", func(o *Options) { o.Config.CompareLatency = 0 }, func(t *testing.T, r Result) {
			if reflect.DeepEqual(r, ref) {
				t.Error("latency 0 ran the default latency's run")
			}
		}, ""},
		{"CompareLatency -5", func(o *Options) { o.Config.CompareLatency = -5 }, nil, "comparison latency -5"},
		{"FPInterval 0", func(o *Options) { o.Config.Core.FPInterval = 0 }, nil, "fingerprint interval 0"},
		{"FPInterval -2", func(o *Options) { o.Config.Core.FPInterval = -2 }, nil, "fingerprint interval -2"},
		{"InterruptEvery -1", func(o *Options) { o.Config.InterruptEvery = -1 }, nil, "interrupt interval -1"},
		{"InterruptCost -1", func(o *Options) { o.Config.InterruptCost = -1 }, nil, "interrupt cost -1"},
		{"WarmCycles 0", func(o *Options) { o.WarmCycles = 0 }, nil, "warm cycles 0"},
		{"WarmCycles -1", func(o *Options) { o.WarmCycles = -1 }, nil, "warm cycles -1"},
		{"MeasureCycles 0", func(o *Options) { o.MeasureCycles = 0 }, nil, "measure cycles 0"},
		{"MeasureCycles -5", func(o *Options) { o.MeasureCycles = -5 }, nil, "measure cycles -5"},
		{"CommitTarget 0", func(o *Options) { o.CommitTarget = 0 }, func(t *testing.T, r Result) {
			if r.Cycles != base.MeasureCycles || r.TrialComplete {
				t.Errorf("commit target 0 did not run the fixed window: %d cycles, trial complete %v", r.Cycles, r.TrialComplete)
			}
		}, ""},
		{"CommitTarget -3", func(o *Options) { o.CommitTarget = -3 }, nil, "commit target -3"},
		{"TrialDeadline 0", func(o *Options) { o.TrialDeadline = 0 }, nil, "trial deadline 0"},
		{"TrialDeadline -1", func(o *Options) { o.TrialDeadline = -1 }, nil, "trial deadline -1"},
		{"TraceEvents 0", func(o *Options) { o.TraceEvents = 0 }, func(t *testing.T, r Result) {
			if r.TraceDump != "" {
				t.Errorf("trace events 0 recorded events: %q", r.TraceDump)
			}
		}, ""},
		{"TraceEvents -1", func(o *Options) { o.TraceEvents = -1 }, nil, "trace events -1"},
	} {
		t.Run("Options/"+c.name, func(t *testing.T) {
			r, err := run(c.set)
			if c.check == nil {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want an error naming %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, r)
		})
	}

	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/reunion-sweep", "./cmd/reunion-inject").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	sweepArgs := []string{"-workloads", "apache", "-modes", "non-redundant", "-warm", "2000", "-measure", "2000", "-quiet", "-out", "-"}
	injectArgs := []string{"-workloads", "apache", "-mode", "non-redundant", "-warm", "2000", "-target", "200",
		"-deadline", "60000", "-trials", "1", "-parallel", "1", "-quiet", "-out", "-"}

	// distinct checks that a run wrote one record per label value of
	// axis, each with metrics of its own: two labels that ran the same
	// simulation would carry equal metrics.
	distinct := func(axis string, values ...string) func(t *testing.T, stdout []byte) {
		return func(t *testing.T, stdout []byte) {
			seen := map[string]string{}
			for _, line := range bytes.Split(stdout, []byte("\n")) {
				var rec struct {
					Labels  map[string]string `json:"labels"`
					Metrics json.RawMessage   `json:"metrics"`
				}
				if !bytes.HasPrefix(line, []byte("{")) || json.Unmarshal(line, &rec) != nil {
					continue
				}
				v := rec.Labels[axis]
				for other, m := range seen {
					if m == string(rec.Metrics) {
						t.Errorf("%s=%s and %s=%s ran the same simulation", axis, v, axis, other)
					}
				}
				seen[v] = string(rec.Metrics)
			}
			for _, v := range values {
				if _, ok := seen[v]; !ok {
					t.Errorf("no record labelled %s=%s in %q", axis, v, stdout)
				}
			}
		}
	}
	labelled := func(axis, value string) func(t *testing.T, stdout []byte) {
		return func(t *testing.T, stdout []byte) {
			if !bytes.Contains(stdout, []byte(`"`+axis+`":"`+value+`"`)) {
				t.Errorf("no record labelled %s=%s in %q", axis, value, stdout)
			}
		}
	}

	for _, c := range []struct {
		cli  string
		args []string
		// check, for a value that runs (exit 0), reads its stdout; a nil
		// check means the value must exit 2 before anything runs.
		check func(t *testing.T, stdout []byte)
	}{
		{"reunion-sweep", []string{"-warm", "0"}, nil},
		{"reunion-sweep", []string{"-warm", "-1"}, nil},
		{"reunion-sweep", []string{"-measure", "0"}, nil},
		{"reunion-sweep", []string{"-measure", "-5"}, nil},
		{"reunion-sweep", []string{"-parallel", "0"}, nil},
		{"reunion-sweep", []string{"-parallel", "-3"}, nil},
		{"reunion-sweep", []string{"-experiment", "fig5", "-parallel", "-3"}, nil},
		{"reunion-sweep", []string{"-experiment", "config", "-parallel", "0"}, nil},
		{"reunion-sweep", []string{"-latencies", "0,10", "-modes", "strict"}, distinct("latency", "0", "10")},
		{"reunion-sweep", []string{"-latencies", "-5"}, nil},
		{"reunion-sweep", []string{"-intervals", "0"}, nil},
		{"reunion-sweep", []string{"-intervals", "-2"}, nil},
		{"reunion-sweep", []string{"-seeds", "0,24301"}, distinct("seed", "0", "24301")},
		{"reunion-sweep", []string{"-seeds", "-1"}, nil},
		{"reunion-sweep", []string{"-heartbeat", "0"}, labelled("seed", "1")},
		{"reunion-sweep", []string{"-heartbeat", "-1s"}, nil},
		{"reunion-sweep", []string{"-experiment", "config", "-heartbeat", "-1s"}, nil},
		{"reunion-inject", []string{"-warm", "0"}, nil},
		{"reunion-inject", []string{"-warm", "-1"}, nil},
		{"reunion-inject", []string{"-target", "0"}, nil},
		{"reunion-inject", []string{"-target", "0", "-window", "0-100"}, nil},
		{"reunion-inject", []string{"-target", "-1"}, nil},
		{"reunion-inject", []string{"-deadline", "0"}, nil},
		{"reunion-inject", []string{"-deadline", "-1"}, nil},
		{"reunion-inject", []string{"-trials", "0"}, nil},
		{"reunion-inject", []string{"-trials", "-5"}, nil},
		{"reunion-inject", []string{"-trace-dump", "0"}, labelled("seed", "1")},
		{"reunion-inject", []string{"-trace-dump", "-4"}, nil},
		{"reunion-inject", []string{"-parallel", "0"}, nil},
		{"reunion-inject", []string{"-parallel", "-3"}, nil},
		{"reunion-inject", []string{"-seeds", "0"}, labelled("seed", "0")},
		{"reunion-inject", []string{"-seeds", "-1"}, nil},
		{"reunion-inject", []string{"-heartbeat", "0"}, labelled("seed", "1")},
		{"reunion-inject", []string{"-heartbeat", "-1s"}, nil},
	} {
		t.Run(c.cli+"/"+strings.Join(c.args, "_"), func(t *testing.T) {
			args := append(append([]string{}, sweepArgs...), c.args...)
			if c.cli == "reunion-inject" {
				args = append(append([]string{}, injectArgs...), c.args...)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, c.cli), args...)
			cmd.Dir, cmd.Stdout, cmd.Stderr = t.TempDir(), &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if c.check == nil {
				if code != 2 || stderr.Len() == 0 {
					t.Fatalf("exit %d, stderr %q; want exit 2 with a message", code, stderr.String())
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			c.check(t, stdout.Bytes())
		})
	}
}

// TestConfigRunsAsGiven: a machine set through Options.Config runs as
// given. Its comparison latency and fingerprint interval reach the built
// system and change the run; neither is overwritten by a default.
func TestConfigRunsAsGiven(t *testing.T) {
	def := DefaultOptions()
	def.Mode, def.Workload = ModeReunion, workload.Apache()
	def.WarmCycles, def.MeasureCycles = 2_000, 2_000
	o := def
	o.Config.CompareLatency, o.Config.Core.FPInterval = 40, 50
	if cfg := buildSystem(o).Cfg; cfg.CompareLatency != 40 || cfg.Core.FPInterval != 50 {
		t.Errorf("built latency %d, interval %d; want 40 and 50", cfg.CompareLatency, cfg.Core.FPInterval)
	}
	ref, err := Run(def)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Compares == ref.Compares || got.Compares == 0 {
		t.Errorf("latency 40, interval 50 made %d compares, the default machine %d", got.Compares, ref.Compares)
	}
}
