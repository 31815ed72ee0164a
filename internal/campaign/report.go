package campaign

import (
	"fmt"
	"io"
	"strings"

	"reunion/internal/stats"
	"reunion/internal/sweep"
)

// CellReport aggregates one cell's trials: outcome counts, masking
// sub-causes, and detection-latency distributions.
type CellReport struct {
	// Name is the cell's coordinates rendered "axis=value,axis=value".
	Name string
	// Labels are the cell's coordinates (no trial axis).
	Labels []sweep.Label

	Counts [numOutcomes]int64
	// Unfired counts masked trials whose fault was never consumed (armed
	// on a dead path, or the trial ended first) — architecturally masked
	// without ever entering the datapath.
	Unfired int64
	// Retired/Squashed total the flipped results that reached
	// architectural state vs. were discarded by rollback or squash.
	Retired, Squashed int64

	// Latency distributions over detected trials.
	LatencyCycles stats.Histogram
	LatencyInstrs stats.Histogram
}

// Trials returns the cell's total classified trials.
func (c *CellReport) Trials() int64 {
	var n int64
	for _, k := range c.Counts {
		n += k
	}
	return n
}

// Count returns the number of trials with the given outcome.
func (c *CellReport) Count(o Outcome) int64 { return c.Counts[o] }

// Coverage returns the detection coverage — detected / (detected + SDC +
// DUE), the fraction of architecturally consequential faults the
// machinery caught — with its 95% Wilson interval. ok is false when no
// trial was consequential (every fault masked), in which case coverage is
// undefined rather than perfect.
func (c *CellReport) Coverage() (p, lo, hi float64, ok bool) {
	k := c.Counts[Detected]
	n := k + c.Counts[SDC] + c.Counts[DUE]
	if n == 0 {
		return 0, 0, 1, false
	}
	lo, hi = stats.WilsonCI(k, n)
	return float64(k) / float64(n), lo, hi, true
}

func (c *CellReport) add(tr trialRun) {
	c.Counts[tr.out]++
	o := tr.obs
	c.Retired += o.Retired
	c.Squashed += o.Squashed
	if tr.out == Masked && !o.Fired {
		c.Unfired++
	}
	if tr.out == Detected {
		c.LatencyCycles.Add(o.LatencyCycles)
		c.LatencyInstrs.Add(o.LatencyInstrs)
	}
}

// Report aggregates a whole campaign: per-cell breakdowns plus a total.
type Report struct {
	Name          string
	TrialsPerCell int
	Cells         []CellReport
	Total         CellReport
}

func newReport[C any](name string, trials int, cells []sweep.Point[C]) *Report {
	r := &Report{Name: name, TrialsPerCell: trials, Total: CellReport{Name: "TOTAL"}}
	for _, c := range cells {
		r.Cells = append(r.Cells, CellReport{Name: c.Name(), Labels: c.Labels})
	}
	return r
}

func (r *Report) add(tr trialRun) {
	if tr.trial.Cell >= 0 && tr.trial.Cell < len(r.Cells) {
		r.Cells[tr.trial.Cell].add(tr)
	}
	r.Total.add(tr)
}

// WriteTable renders the coverage summary: one row per cell plus the
// total, with outcome counts, detection coverage (95% Wilson interval),
// and detection-latency quantiles in cycles.
func (r *Report) WriteTable(w io.Writer) {
	nameW := len("TOTAL")
	for _, c := range r.Cells {
		if len(c.Name) > nameW {
			nameW = len(c.Name)
		}
	}
	fmt.Fprintf(w, "%-*s %7s %7s %8s %5s %5s %-19s %22s\n",
		nameW, "cell", "trials", "masked", "detected", "sdc", "due", "coverage [95% CI]", "latency p50/p95/max")
	row := func(c *CellReport) {
		cov := "      n/a          "
		if p, lo, hi, ok := c.Coverage(); ok {
			cov = fmt.Sprintf("%.3f [%.3f,%.3f]", p, lo, hi)
		}
		lat := strings.Repeat(" ", 22)
		if c.LatencyCycles.N() > 0 {
			lat = fmt.Sprintf("%8d/%6d/%6dc", c.LatencyCycles.Quantile(0.5),
				c.LatencyCycles.Quantile(0.95), c.LatencyCycles.Max())
		}
		fmt.Fprintf(w, "%-*s %7d %7d %8d %5d %5d %-19s %s\n",
			nameW, c.Name, c.Trials(), c.Count(Masked), c.Count(Detected),
			c.Count(SDC), c.Count(DUE), cov, lat)
	}
	for i := range r.Cells {
		row(&r.Cells[i])
	}
	row(&r.Total)
	fmt.Fprintf(w, "masked-unfired %d of %d masked; flipped results retired %d, squashed %d\n",
		r.Total.Unfired, r.Total.Count(Masked), r.Total.Retired, r.Total.Squashed)
}
