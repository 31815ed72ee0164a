package reunion

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"reunion/internal/campaign"
	"reunion/internal/fault"
	"reunion/internal/sweep"
	"reunion/internal/workload"
)

func injectTestOptions() Options {
	o := DefaultOptions()
	o.Workload, o.Seed, o.WarmCycles = mustWorkload("apache"), 1, 5_000
	o.CommitTarget, o.TrialDeadline = 500, 60_000
	return o
}

func mustWorkload(name string) workload.Params {
	p, ok := workload.ByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	return p
}

// TestCommitDigestDeterministic: the golden digest is a pure function of
// the options — two identical runs agree, a different seed disagrees.
func TestCommitDigestDeterministic(t *testing.T) {
	o := injectTestOptions()
	o.Mode = ModeNonRedundant
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !a.DigestOK || !b.DigestOK {
		t.Fatalf("digests did not latch: %v %v", a.DigestOK, b.DigestOK)
	}
	if a.CommitDigest != b.CommitDigest {
		t.Fatalf("same options, different commit digests: %x vs %x", a.CommitDigest, b.CommitDigest)
	}
	if a.ArchDigest != b.ArchDigest {
		t.Fatalf("same options, different arch digests: %x vs %x", a.ArchDigest, b.ArchDigest)
	}
	o.Seed = 2
	c, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.CommitDigest == a.CommitDigest {
		t.Fatal("different seeds produced the same commit digest")
	}
}

// TestInjectedRunObservability: a single-shot injection under Reunion is
// fired, detected, recovered, and the committed stream still matches the
// fault-free golden at the same instruction boundary.
func TestInjectedRunObservability(t *testing.T) {
	o := injectTestOptions()
	o.Mode = ModeReunion
	golden, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Inject = &fault.Injection{Core: 3, Cycle: 200, Bit: 17}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !r.FaultArmed || !r.FaultFired {
		t.Fatalf("fault not consumed: armed=%v fired=%v", r.FaultArmed, r.FaultFired)
	}
	if !r.FaultDetected || r.DetectLatency < 0 {
		t.Fatalf("fault not detected: detected=%v latency=%d", r.FaultDetected, r.DetectLatency)
	}
	if r.FaultSquashed == 0 {
		t.Fatal("detected flip should have been squashed by rollback")
	}
	if !r.TrialComplete || !r.DigestOK {
		t.Fatalf("trial incomplete: complete=%v digestOK=%v", r.TrialComplete, r.DigestOK)
	}
	if r.CommitDigest != golden.CommitDigest {
		t.Fatalf("recovered run diverged from golden: %x vs %x", r.CommitDigest, golden.CommitDigest)
	}
	if campaign.Classify(campaign.Observation{
		Completed: r.TrialComplete, DigestOK: r.DigestOK,
		Armed: r.FaultArmed, Fired: r.FaultFired, Detected: r.FaultDetected,
		Digest: r.CommitDigest, GoldenDigest: golden.CommitDigest,
	}) != campaign.Detected {
		t.Fatal("classification disagrees")
	}
}

// TestCampaignEndToEnd runs a small real campaign through the engine and
// checks the acceptance shape: every trial classified, Reunion free of
// SDCs, the non-redundant baseline corrupting under the same fault
// stream, detected trials carrying latencies.
func TestCampaignEndToEnd(t *testing.T) {
	model := campaign.FaultModel{BitHi: 63, WindowHi: 400}
	eng := campaign.Engine[Options]{
		Spec: campaign.Spec[Options]{
			Matrix: sweep.Spec[Options]{
				Name: "e2e",
				Base: injectTestOptions(),
				Axes: []sweep.Axis[Options]{
					sweep.NewAxis("mode", []Mode{ModeReunion, ModeNonRedundant}, Mode.String,
						func(o *Options, m Mode) { o.Mode = m }),
				},
			},
			Model:         model,
			Trials:        6,
			Seed:          0xfa017,
			StreamExclude: []string{"mode"},
		},
		RunTrial: TrialRunner(model, NewWarmCache()),
	}
	rep, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Trials() != 12 {
		t.Fatalf("classified %d of 12 trials", rep.Total.Trials())
	}
	// Cells are in matrix order, as the coverage table prints them.
	if len(rep.Cells) != 2 || rep.Cells[0].Name != "mode=reunion" || rep.Cells[1].Name != "mode=non-redundant" {
		t.Fatalf("cells missing or out of matrix order: %+v", rep.Cells)
	}
	re, nr := &rep.Cells[0], &rep.Cells[1]
	if re.Count(campaign.SDC) != 0 || re.Count(campaign.DUE) != 0 {
		t.Fatalf("reunion cell not clean: %+v", re.Counts)
	}
	if re.Count(campaign.Detected) == 0 {
		t.Fatalf("reunion detected nothing: %+v", re.Counts)
	}
	if nr.Count(campaign.SDC) == 0 {
		t.Fatalf("non-redundant baseline shows no SDCs under the same fault stream: %+v", nr.Counts)
	}
	if nr.Count(campaign.Detected) != 0 {
		t.Fatalf("non-redundant mode cannot detect faults: %+v", nr.Counts)
	}
	if n := re.LatencyCycles.N(); n != re.Count(campaign.Detected) {
		t.Fatalf("latency histogram %d entries for %d detected", n, re.Count(campaign.Detected))
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty coverage table")
	}
}

// TestRunKeysCoverEveryOption perturbs each leaf field of Options in
// turn, Config and the core and L2 configs inside it included, and checks
// which memo keys see it: warmKey every field that shapes the system up
// to the measurement boundary, trialKey those plus the trial window,
// baselineKey those plus the measurement window minus the two pair-only
// knobs. A new Options or Config field fails here until it is placed,
// instead of silently sharing a warm, golden or baseline run between
// cells that differ.
func TestRunKeysCoverEveryOption(t *testing.T) {
	measureOnly := map[string]bool{"MeasureCycles": true, "Inject": true, "CommitTarget": true,
		"TrialDeadline": true, "TraceEvents": true, "Warm": true}
	trialOnly := map[string]bool{"CommitTarget": true, "TrialDeadline": true}
	pairOnly := map[string]bool{"Config.CompareLatency": true, "Config.L2.Phantom": true}
	var base Options
	var leaves int
	var walk func(path string, index []int, typ reflect.Type)
	walk = func(path string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			name := path + sf.Name
			idx := append(append([]int{}, index...), i)
			o := base
			f := reflect.ValueOf(&o).Elem().FieldByIndex(idx)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(1)
			case reflect.Uint8, reflect.Uint64:
				f.SetUint(1)
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Pointer:
				f.Set(reflect.New(f.Type().Elem()))
			case reflect.Struct:
				if sf.Type != reflect.TypeOf(workload.Params{}) {
					walk(name+".", idx, sf.Type)
					continue
				}
				o.Workload.PrivateBytes = 1 // same name, different program
			default:
				t.Fatalf("no perturbation for Options.%s (%s)", name, f.Kind())
			}
			leaves++
			for _, k := range []struct {
				key  func(Options) string
				name string
				want bool
			}{
				{warmKey, "warmKey", !measureOnly[name]},
				{trialKey, "trialKey", !measureOnly[name] || trialOnly[name]},
				{baselineKey, "baselineKey", !measureOnly[name] && !pairOnly[name] || name == "MeasureCycles"},
			} {
				if got := k.key(o) != k.key(base); got != k.want {
					t.Errorf("Options.%s: %s changes = %v, want %v", name, k.name, got, k.want)
				}
			}
		}
	}
	walk("", nil, reflect.TypeOf(base))
	t.Logf("%d leaf fields", leaves)
}
