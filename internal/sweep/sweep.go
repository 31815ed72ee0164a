// Package sweep runs cross-product experiment matrices on a worker pool.
//
// The paper's evaluation is a matrix — execution models × workloads ×
// latency/phantom/TLB/consistency sweeps — and this package is the engine
// that executes such matrices in parallel while keeping the results
// deterministic.
//
// A Spec declares the matrix: a base configuration plus one Axis per
// swept dimension, where each axis value is a named mutation of the
// configuration. Points enumerates the cross product in a fixed row-major
// order (the last axis varies fastest), so every cell has a stable index
// and a stable set of axis labels that depend only on the spec, never on
// scheduling.
//
// A Runner executes the points on a bounded worker pool (default
// GOMAXPROCS) with context cancellation and per-run panic isolation.
// Points that contend for one resource can share a Group, and the
// workers then run points of different groups side by side.
// Results come back two ways: as a slice indexed by point — identical for
// any parallelism — and, optionally, streamed through an in-order Emit
// callback as soon as each contiguous prefix of the matrix completes,
// which is how results reach sinks (see Sink) while the sweep is still
// running. Because each point's configuration (including any seed fan-out
// encoded in its axes) is a pure function of its coordinates, matched-pair
// comparisons between cells stay reproducible at any worker count.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"reunion/internal/obs"
)

// Value is one named setting of an axis: Apply mutates the configuration
// a point is built from. Apply must not retain the pointer.
type Value[C any] struct {
	Name  string
	Apply func(*C)
}

// Axis is one dimension of the cross product.
type Axis[C any] struct {
	Name   string
	Values []Value[C]
}

// NewAxis builds an axis from a slice of typed values, a label formatter,
// and a setter. It is the common case of sweeping one field.
func NewAxis[C, V any](name string, vals []V, format func(V) string, apply func(*C, V)) Axis[C] {
	ax := Axis[C]{Name: name}
	for _, v := range vals {
		v := v
		ax.Values = append(ax.Values, Value[C]{
			Name:  format(v),
			Apply: func(c *C) { apply(c, v) },
		})
	}
	return ax
}

// Dedupe drops duplicate axis values, preserving first-seen order, and
// writes one "<tool>: ignoring duplicate <axis> value ..." line per
// duplicate to w. CLI axis-flag parsers use it before NewAxis: a
// duplicated flag value (e.g. -seeds 1,1) would silently run every
// matching cell twice and skew aggregate averages.
func Dedupe[V comparable](w io.Writer, tool, axis string, vals []V, format func(V) string) []V {
	seen := make(map[V]bool, len(vals))
	out := vals[:0]
	for _, v := range vals {
		if seen[v] {
			fmt.Fprintf(w, "%s: ignoring duplicate %s value %q\n", tool, axis, format(v))
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// Spec declares a sweep: a base configuration and the axes whose cross
// product defines the run matrix.
type Spec[C any] struct {
	Name string
	Base C
	Axes []Axis[C]
}

// Label is one axis coordinate of a point.
type Label struct {
	Axis, Value string
}

// Point is one cell of the matrix: its index in enumeration order, its
// axis coordinates, and the fully composed configuration.
type Point[C any] struct {
	Index  int
	Labels []Label
	Config C
}

// Name renders the point's coordinates as "axis=value,axis=value".
func (p Point[C]) Name() string {
	parts := make([]string, len(p.Labels))
	for i, l := range p.Labels {
		parts[i] = l.Axis + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// LabelMap returns the point's coordinates as a map (sink records).
func (p Point[C]) LabelMap() map[string]string {
	m := make(map[string]string, len(p.Labels))
	for _, l := range p.Labels {
		m[l.Axis] = l.Value
	}
	return m
}

// FingerprintParts renders the spec's identity — its name plus every
// axis and value name, in order — for a distribution-layer run
// fingerprint (dist.Fingerprint): two specs that could produce
// different record streams render different parts. Callers append
// whatever the axes do not capture (the base configuration, campaign
// draw parameters).
func (s Spec[C]) FingerprintParts() []string {
	parts := []string{"spec:" + s.Name}
	for _, ax := range s.Axes {
		parts = append(parts, "axis:"+ax.Name)
		for _, v := range ax.Values {
			parts = append(parts, v.Name)
		}
	}
	return parts
}

// Size returns the number of points in the cross product.
func (s Spec[C]) Size() int {
	n := 1
	for _, a := range s.Axes {
		n *= len(a.Values)
	}
	return n
}

// Point decodes index i into its cell: the base configuration with each
// axis value applied in axis order. Row-major: the last axis varies
// fastest.
func (s Spec[C]) Point(i int) Point[C] {
	p := Point[C]{Index: i, Config: s.Base, Labels: make([]Label, len(s.Axes))}
	idx := make([]int, len(s.Axes))
	rem := i
	for a := len(s.Axes) - 1; a >= 0; a-- {
		k := len(s.Axes[a].Values)
		idx[a] = rem % k
		rem /= k
	}
	for a, ax := range s.Axes {
		v := ax.Values[idx[a]]
		p.Labels[a] = Label{Axis: ax.Name, Value: v.Name}
		if v.Apply != nil {
			v.Apply(&p.Config)
		}
	}
	return p
}

// Points enumerates the whole matrix in index order.
func (s Spec[C]) Points() []Point[C] {
	pts := make([]Point[C], s.Size())
	for i := range pts {
		pts[i] = s.Point(i)
	}
	return pts
}

// Result is the outcome of one point's run.
type Result[C, R any] struct {
	Point Point[C]
	Out   R
	Err   error
}

// ErrSkipped marks points that were never run because the sweep was
// cancelled first.
var ErrSkipped = errors.New("sweep: run skipped (cancelled)")

// Runner executes a Spec on a worker pool.
type Runner[C, R any] struct {
	// Run executes one point. It is called from multiple goroutines and
	// must be safe for concurrent use across distinct points.
	Run func(ctx context.Context, p Point[C]) (R, error)
	// Parallelism bounds the worker pool; 0 or below means GOMAXPROCS
	// (a library convenience: the CLIs refuse a -parallel below 1).
	Parallelism int
	// Group, if set, names each point's group: points of one group
	// contend for a shared resource (a campaign cell's warm state), so a
	// free worker takes the lowest untaken point whose group has nothing
	// running, and starts a second point of a busy group only when every
	// remaining point's group is busy. Nil puts each point in a group of
	// its own, which dispatches in point order. Grouping changes only
	// which points run side by side: results and the Emit stream are the
	// same for any Group, though a grouped sweep finishes points out of
	// order, so Emit holds back more completed results.
	Group func(Point[C]) int
	// Progress, if set, observes every completed run in completion order
	// (non-deterministic under parallelism; for live reporting only). It is
	// called from the Sweep goroutine, never concurrently.
	Progress func(done, total int, r Result[C, R])
	// Emit, if set, receives results in strict point-index order, each as
	// soon as the contiguous prefix up to it has completed. A non-nil
	// error stops emission and fails the sweep. Called from the Sweep
	// goroutine, never concurrently.
	Emit func(r Result[C, R]) error
	// Trace, if set, receives a sweep/run span per point with its index,
	// name and err. Pure observer — results, Progress, and the Emit
	// stream are unaffected (asserted by the telemetry equivalence tests).
	Trace *obs.Tracer
}

// Sweep runs every point of the spec and returns results indexed by
// point, so the output is deterministic for any parallelism. On
// cancellation it returns the partial results (unrun points carry
// ErrSkipped) and the context's error. Individual run failures and panics
// are isolated into their point's Result.Err rather than failing the
// sweep.
func (r *Runner[C, R]) Sweep(ctx context.Context, spec Spec[C]) ([]Result[C, R], error) {
	return r.sweepPoints(ctx, spec.Points())
}

// SweepIndices runs only the given points of the spec, identified by
// their global matrix indices, in the given order: results come back (and
// Emit fires) by position in indices, carrying each point's global Index
// and labels unchanged. It is how a distribution layer runs one shard's
// slice of a matrix — because Spec.Point is a pure function of the index,
// a subset run's records are byte-identical to the same points of a
// whole-matrix run at any parallelism. Every index must lie in
// [0, spec.Size()); duplicates are legal (each runs independently).
func (r *Runner[C, R]) SweepIndices(ctx context.Context, spec Spec[C], indices []int) ([]Result[C, R], error) {
	size := spec.Size()
	points := make([]Point[C], len(indices))
	for k, i := range indices {
		if i < 0 || i >= size {
			return nil, fmt.Errorf("sweep: index %d out of range [0,%d)", i, size)
		}
		points[k] = spec.Point(i)
	}
	return r.sweepPoints(ctx, points)
}

// sweepPoints is the shared worker-pool body: results, Progress, and the
// in-order Emit stream are all positional over the given points.
func (r *Runner[C, R]) sweepPoints(ctx context.Context, points []Point[C]) ([]Result[C, R], error) {
	n := len(points)
	results := make([]Result[C, R], n)
	for i := range results {
		results[i] = Result[C, R]{Point: points[i], Err: ErrSkipped}
	}
	if n == 0 {
		return results, ctx.Err()
	}

	// A derived context lets an Emit failure stop dispatching promptly:
	// once results can no longer be written there is no point finishing
	// the rest of the matrix.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	par := r.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}

	d := newDispatcher(points, r.Group)
	completions := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take(ctx)
				if !ok {
					return
				}
				results[i] = r.runOne(ctx, points[i])
				d.release(i)
				completions <- i
			}
		}()
	}
	go func() {
		wg.Wait()
		close(completions)
	}()

	// The collector is the only goroutine that calls Progress and Emit.
	// Emission is gated on the contiguous completed prefix, which is what
	// makes streamed output identical at any worker count.
	emitted := 0
	done := 0
	completed := make([]bool, n)
	var emitErr error
	for i := range completions {
		done++
		if r.Progress != nil {
			r.Progress(done, n, results[i])
		}
		completed[i] = true
		for emitErr == nil && r.Emit != nil && emitted < n && completed[emitted] {
			if err := r.Emit(results[emitted]); err != nil {
				emitErr = fmt.Errorf("sweep: emit point %d: %w", emitted, err)
				cancel()
			} else {
				emitted++
			}
		}
	}
	if emitErr != nil {
		return results, emitErr
	}
	return results, ctx.Err()
}

// dispatcher hands points to the workers so that concurrent workers run
// different groups. take returns the lowest-position untaken point whose
// group has nothing running; when every remaining point's group is
// busy, it returns the lowest-position untaken point, which then shares
// its group with a running point exactly as in-order dispatch would.
// Positions order the points, so a SweepIndices run still starts its
// points in the order the indices were given whenever groups allow. A
// take scans only the untaken points of busy groups ahead of the one it
// returns.
type dispatcher struct {
	mu    sync.Mutex
	group []int       // group of each position
	busy  map[int]int // running points per group
	taken []bool
	next  int // every position below next is taken
}

// newDispatcher groups the points with group, or puts each point in a
// group of its own when group is nil.
func newDispatcher[C any](points []Point[C], group func(Point[C]) int) *dispatcher {
	d := &dispatcher{group: make([]int, len(points)), busy: make(map[int]int), taken: make([]bool, len(points))}
	for i, p := range points {
		d.group[i] = i
		if group != nil {
			d.group[i] = group(p)
		}
	}
	return d
}

// take claims the next point to run, or reports false once every point
// is taken or ctx is done.
func (d *dispatcher) take(ctx context.Context) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.next < len(d.taken) && d.taken[d.next] {
		d.next++
	}
	if d.next == len(d.taken) || ctx.Err() != nil {
		return 0, false
	}
	pick := d.next
	for i := d.next; i < len(d.taken); i++ {
		if !d.taken[i] && d.busy[d.group[i]] == 0 {
			pick = i
			break
		}
	}
	d.taken[pick] = true
	d.busy[d.group[pick]]++
	return pick, true
}

// release marks a taken point's run finished.
func (d *dispatcher) release(i int) {
	d.mu.Lock()
	d.busy[d.group[i]]--
	d.mu.Unlock()
}

// runOne executes a single point, converting a panic into that point's
// error so one bad configuration cannot take down the whole matrix.
func (r *Runner[C, R]) runOne(ctx context.Context, p Point[C]) (res Result[C, R]) {
	res.Point = p
	var sp *obs.Span
	if r.Trace != nil {
		sp = r.Trace.StartSpan("sweep", "run", obs.Arg{Key: "index", Val: p.Index}, obs.Arg{Key: "point", Val: p.Name()})
	}
	defer func() {
		if rec := recover(); rec != nil {
			res.Err = fmt.Errorf("sweep: panic in point %d (%s): %v", p.Index, p.Name(), rec)
		}
		sp.End(obs.Arg{Key: "err", Val: res.Err != nil})
	}()
	if err := ctx.Err(); err != nil {
		res.Err = ErrSkipped
		return
	}
	res.Out, res.Err = r.Run(ctx, p)
	return
}

// FirstError returns the first per-point error in index order (ignoring
// none), a convenience for sweeps that treat any failure as fatal.
func FirstError[C, R any](results []Result[C, R]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("point %d (%s): %w", r.Point.Index, r.Point.Name(), r.Err)
		}
	}
	return nil
}

// Outputs extracts the Out of every result in index order, failing on the
// first per-point error.
func Outputs[C, R any](results []Result[C, R]) ([]R, error) {
	if err := FirstError(results); err != nil {
		return nil, err
	}
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Out
	}
	return out, nil
}
