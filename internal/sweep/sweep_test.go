package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type cfg struct {
	A, B, C int
}

func testSpec(na, nb int) Spec[cfg] {
	return Spec[cfg]{
		Name: "test",
		Axes: []Axis[cfg]{
			NewAxis("a", seq(na), itoa, func(c *cfg, v int) { c.A = v }),
			NewAxis("b", seq(nb), itoa, func(c *cfg, v int) { c.B = v }),
		},
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func TestCrossProductOrder(t *testing.T) {
	s := testSpec(2, 3)
	if got := s.Size(); got != 6 {
		t.Fatalf("Size = %d, want 6", got)
	}
	pts := s.Points()
	wantNames := []string{
		"a=0,b=0", "a=0,b=1", "a=0,b=2",
		"a=1,b=0", "a=1,b=1", "a=1,b=2",
	}
	for i, p := range pts {
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
		if p.Name() != wantNames[i] {
			t.Errorf("point %d name = %q, want %q", i, p.Name(), wantNames[i])
		}
		if p.Config.A != i/3 || p.Config.B != i%3 {
			t.Errorf("point %d config = %+v", i, p.Config)
		}
	}
}

func TestApplyOrderAndBaseIsolation(t *testing.T) {
	// Later axes apply after earlier ones, and every point starts from a
	// fresh copy of Base.
	s := Spec[cfg]{
		Base: cfg{C: 7},
		Axes: []Axis[cfg]{
			NewAxis("a", seq(2), itoa, func(c *cfg, v int) { c.A = v; c.C = v }),
			NewAxis("b", seq(2), itoa, func(c *cfg, v int) { c.B = v; c.C += 10 * v }),
		},
	}
	pts := s.Points()
	if pts[3].Config.C != 1+10 {
		t.Errorf("apply order broken: %+v", pts[3].Config)
	}
	if pts[0].Config.C != 0 {
		t.Errorf("point 0: %+v", pts[0].Config)
	}
	// Base must be untouched.
	if s.Base.A != 0 || s.Base.C != 7 {
		t.Errorf("base mutated: %+v", s.Base)
	}
}

// groupShape is one Group input of the dispatch tests.
type groupShape struct {
	name  string
	group func(Point[cfg]) int
}

// groupShapes are none (each point its own group), contiguous blocks
// like a campaign's cells, and a stride that interleaves groups across
// the matrix.
var groupShapes = []groupShape{
	{"none", nil},
	{"block", func(p Point[cfg]) int { return p.Config.A }},
	{"stride", func(p Point[cfg]) int { return p.Index % 3 }},
}

// TestDeterministicOrdering is the engine's core contract: the result
// slice and the Emit stream are identical at parallelism 1, 2 and 8 and
// under any Group, even when completion order is scrambled.
func TestDeterministicOrdering(t *testing.T) {
	s := testSpec(5, 8) // 40 points
	run := func(par int, group func(Point[cfg]) int) ([]Result[cfg, int], []int) {
		var emitted []int
		r := Runner[cfg, int]{
			Parallelism: par,
			Group:       group,
			Run: func(_ context.Context, p Point[cfg]) (int, error) {
				// Scramble completion order: early points sleep longest.
				time.Sleep(time.Duration(40-p.Index) * 100 * time.Microsecond)
				return p.Config.A*100 + p.Config.B, nil
			},
			Emit: func(res Result[cfg, int]) error {
				emitted = append(emitted, res.Point.Index)
				return nil
			},
		}
		results, err := r.Sweep(context.Background(), s)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return results, emitted
	}

	serial, emitSerial := run(1, nil)
	for i, idx := range emitSerial {
		if idx != i {
			t.Fatalf("emit out of order at %d: got index %d", i, idx)
		}
	}
	for _, sh := range groupShapes {
		for _, par := range []int{1, 2, 8} {
			got, emitGot := run(par, sh.group)
			for i := range serial {
				if serial[i].Out != got[i].Out || serial[i].Point.Name() != got[i].Point.Name() {
					t.Errorf("group=%s par=%d point %d differs: serial=%+v got=%+v", sh.name, par, i, serial[i], got[i])
				}
			}
			if !reflect.DeepEqual(emitSerial, emitGot) {
				t.Errorf("group=%s par=%d emit order differs:\nserial: %v\ngot:    %v", sh.name, par, emitSerial, emitGot)
			}
		}
	}
}

// TestGroupDispatchSpreadsGroups probes the dispatch rule from inside
// Run: a point starts while another point of its group is running only
// when no other group has an untaken point left. Two workers make the
// probe exact: each worker starts its points in the order it takes
// them, so when two points of one group run side by side, every point
// taken before the later of the two has already started.
func TestGroupDispatchSpreadsGroups(t *testing.T) {
	s := testSpec(6, 5) // 30 points
	shapes := []groupShape{groupShapes[1], groupShapes[2],
		{"uneven", func(p Point[cfg]) int { return min(p.Index/20, 1) }}}
	for _, sh := range shapes {
		groups := make([]int, s.Size())
		for i := range groups {
			groups[i] = sh.group(s.Point(i))
		}
		var mu sync.Mutex
		running := make(map[int]int)
		started := make([]bool, s.Size())
		r := Runner[cfg, int]{
			Parallelism: 2,
			Group:       sh.group,
			Run: func(_ context.Context, p Point[cfg]) (int, error) {
				g := groups[p.Index]
				mu.Lock()
				if running[g] > 0 {
					for i, st := range started {
						if !st && i != p.Index && groups[i] != g {
							t.Errorf("group=%s: point %d (group %d) started beside a running point of its group while point %d of group %d was untaken",
								sh.name, p.Index, g, i, groups[i])
							break
						}
					}
				}
				started[p.Index] = true
				running[g]++
				mu.Unlock()
				time.Sleep(time.Duration(p.Index%3+1) * 200 * time.Microsecond)
				mu.Lock()
				running[g]--
				mu.Unlock()
				return p.Index, nil
			},
		}
		if _, err := r.Sweep(context.Background(), s); err != nil {
			t.Fatalf("group=%s: %v", sh.name, err)
		}
	}
}

// TestParallelismIsReal: workers run side by side, also when every
// point shares one busy group.
func TestParallelismIsReal(t *testing.T) {
	for _, group := range []func(Point[cfg]) int{nil, func(Point[cfg]) int { return 0 }} {
		var cur, peak atomic.Int64
		r := Runner[cfg, int]{
			Parallelism: 4,
			Group:       group,
			Run: func(_ context.Context, p Point[cfg]) (int, error) {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				cur.Add(-1)
				return 0, nil
			},
		}
		if _, err := r.Sweep(context.Background(), testSpec(4, 4)); err != nil {
			t.Fatal(err)
		}
		if peak.Load() < 2 {
			t.Errorf("one group=%v: peak concurrency %d; want >= 2 with 4 workers", group != nil, peak.Load())
		}
	}
}

// TestCancellationMidSweep: under any Group, points never taken stay
// ErrSkipped, and Emit sees only a contiguous prefix of the matrix.
func TestCancellationMidSweep(t *testing.T) {
	for _, sh := range groupShapes {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		var mu sync.Mutex
		executed := make(map[int]bool)
		var emitted []int
		r := Runner[cfg, int]{
			Parallelism: 2,
			Group:       sh.group,
			Run: func(ctx context.Context, p Point[cfg]) (int, error) {
				mu.Lock()
				executed[p.Index] = true
				mu.Unlock()
				if ran.Add(1) == 4 {
					cancel()
				}
				time.Sleep(time.Millisecond)
				return p.Index, nil
			},
			Emit: func(res Result[cfg, int]) error {
				emitted = append(emitted, res.Point.Index)
				return nil
			},
		}
		results, err := r.Sweep(ctx, testSpec(10, 10))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("group=%s: err = %v, want context.Canceled", sh.name, err)
		}
		var done, skipped int
		for _, res := range results {
			switch {
			case res.Err == nil:
				done++
			case errors.Is(res.Err, ErrSkipped):
				skipped++
			default:
				t.Errorf("group=%s point %d: unexpected error %v", sh.name, res.Point.Index, res.Err)
			}
			if !executed[res.Point.Index] && !errors.Is(res.Err, ErrSkipped) {
				t.Errorf("group=%s point %d: never run but err = %v, want ErrSkipped", sh.name, res.Point.Index, res.Err)
			}
		}
		if done == 0 || skipped == 0 {
			t.Errorf("group=%s: done=%d skipped=%d; want some of both", sh.name, done, skipped)
		}
		if done+skipped != 100 {
			t.Errorf("group=%s: done+skipped = %d, want 100", sh.name, done+skipped)
		}
		for k, idx := range emitted {
			if idx != k {
				t.Fatalf("group=%s: emitted %v, want a contiguous prefix", sh.name, emitted)
			}
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	r := Runner[cfg, int]{
		Parallelism: 4,
		Run: func(_ context.Context, p Point[cfg]) (int, error) {
			if p.Index == 3 {
				panic("boom")
			}
			return p.Index, nil
		},
	}
	results, err := r.Sweep(context.Background(), testSpec(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Point.Index == 3 {
			if res.Err == nil || !strings.Contains(res.Err.Error(), "panic") {
				t.Errorf("point 3: err = %v, want panic error", res.Err)
			}
			continue
		}
		if res.Err != nil || res.Out != res.Point.Index {
			t.Errorf("point %d: out=%d err=%v", res.Point.Index, res.Out, res.Err)
		}
	}
	if err := FirstError(results); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("FirstError = %v", err)
	}
}

func TestEmitErrorFailsSweep(t *testing.T) {
	emitErr := errors.New("disk full")
	var ran atomic.Int64
	r := Runner[cfg, int]{
		Parallelism: 2,
		Run: func(_ context.Context, p Point[cfg]) (int, error) {
			ran.Add(1)
			time.Sleep(time.Millisecond)
			return p.Index, nil
		},
		Emit: func(res Result[cfg, int]) error {
			if res.Point.Index == 2 {
				return emitErr
			}
			return nil
		},
	}
	results, err := r.Sweep(context.Background(), testSpec(10, 10))
	if !errors.Is(err, emitErr) {
		t.Fatalf("err = %v, want wrapped %v", err, emitErr)
	}
	// The emit failure must stop dispatching: with 100 points there is no
	// reason to finish the matrix once results cannot be written.
	if ran.Load() == 100 {
		t.Error("all 100 points ran despite the emit failure")
	}
	var skipped int
	for _, res := range results {
		if errors.Is(res.Err, ErrSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no points marked skipped after emit failure")
	}
}

func TestProgressCountsEveryRun(t *testing.T) {
	var calls, lastDone, total int
	r := Runner[cfg, int]{
		Parallelism: 3,
		Run:         func(_ context.Context, p Point[cfg]) (int, error) { return 0, nil },
		Progress: func(done, n int, res Result[cfg, int]) {
			calls++
			lastDone = done
			total = n
		},
	}
	if _, err := r.Sweep(context.Background(), testSpec(3, 4)); err != nil {
		t.Fatal(err)
	}
	if calls != 12 || lastDone != 12 || total != 12 {
		t.Errorf("calls=%d lastDone=%d total=%d, want 12/12/12", calls, lastDone, total)
	}
}

func TestOutputs(t *testing.T) {
	r := Runner[cfg, int]{
		Run: func(_ context.Context, p Point[cfg]) (int, error) { return p.Index * p.Index, nil },
	}
	results, err := r.Sweep(context.Background(), testSpec(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Outputs(results)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, []int{0, 1, 4, 9}) {
		t.Errorf("Outputs = %v", out)
	}
}

func TestEmptyAxisYieldsEmptySweep(t *testing.T) {
	s := Spec[cfg]{Axes: []Axis[cfg]{{Name: "empty"}}}
	r := Runner[cfg, int]{Run: func(_ context.Context, p Point[cfg]) (int, error) { return 0, nil }}
	results, err := r.Sweep(context.Background(), s)
	if err != nil || len(results) != 0 {
		t.Fatalf("results=%v err=%v", results, err)
	}
}

// TestSweepIndicesSubset: a subset run yields the same per-point results
// and records as the whole-matrix run, in the order the indices were
// given, at any parallelism — the contract the distribution layer's
// shard byte-identity rests on.
func TestSweepIndicesSubset(t *testing.T) {
	s := testSpec(3, 4) // 12 points
	run := func(c *cfg) (int, error) { return c.A*100 + c.B, nil }
	full, err := (&Runner[cfg, int]{
		Run: func(_ context.Context, p Point[cfg]) (int, error) { return run(&p.Config) },
	}).Sweep(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}

	indices := []int{7, 2, 11, 2} // arbitrary order, one duplicate
	for _, par := range []int{1, 4} {
		var emitted []int
		r := Runner[cfg, int]{
			Parallelism: par,
			Run: func(_ context.Context, p Point[cfg]) (int, error) {
				time.Sleep(time.Duration(p.Index) * 50 * time.Microsecond)
				return run(&p.Config)
			},
			Emit: func(res Result[cfg, int]) error {
				emitted = append(emitted, res.Point.Index)
				return nil
			},
		}
		sub, err := r.SweepIndices(context.Background(), s, indices)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) != len(indices) {
			t.Fatalf("par=%d: %d results for %d indices", par, len(sub), len(indices))
		}
		for k, i := range indices {
			if sub[k].Err != nil {
				t.Fatalf("par=%d: index %d: %v", par, i, sub[k].Err)
			}
			if sub[k].Point.Index != i || sub[k].Point.Name() != full[i].Point.Name() || sub[k].Out != full[i].Out {
				t.Errorf("par=%d position %d: got point %d (%s) out=%d, want point %d (%s) out=%d",
					par, k, sub[k].Point.Index, sub[k].Point.Name(), sub[k].Out,
					i, full[i].Point.Name(), full[i].Out)
			}
		}
		if !reflect.DeepEqual(emitted, indices) {
			t.Errorf("par=%d: emit order %v, want %v", par, emitted, indices)
		}
	}
}

func TestSweepIndicesValidation(t *testing.T) {
	s := testSpec(2, 2)
	r := Runner[cfg, int]{Run: func(_ context.Context, p Point[cfg]) (int, error) { return 0, nil }}
	if _, err := r.SweepIndices(context.Background(), s, []int{0, 4}); err == nil {
		t.Fatal("index past Size accepted")
	}
	if _, err := r.SweepIndices(context.Background(), s, []int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	res, err := r.SweepIndices(context.Background(), s, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty indices: res=%v err=%v", res, err)
	}
}
