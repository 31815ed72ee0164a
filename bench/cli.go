package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A cliWorkload is a fault-injection campaign run the way a user runs
// one: reunion-inject writes journals, reunion-merge assembles them.
type cliWorkload struct {
	trials int
	// shards > 0 runs the campaign as that many -shard i/n workers, one
	// after another, sharing a fresh disk checkpoint store; 0 runs one
	// worker without a store.
	shards int
	args   []string // reunion-inject flags besides those every round passes
}

var (
	// campaign: the trials of a cell share its warm state, so host time
	// goes to restore, allocation and the warm-cache entry lock.
	campaignWorkload = cliWorkload{
		trials: 60,
		args: []string{"-mode", "reunion,non-redundant", "-workloads", "apache,dss-q1,ocean",
			"-warm", "20000", "-target", "2000"},
	}
	// fleet-store: contiguous shards split both cells, so shard 0 warms
	// and stores apache, shard 1 fetches apache and warms and stores
	// oracle-oltp, and shard 2 fetches oracle-oltp — the serialized
	// checkpoint path at the FullExp warm length.
	fleetStoreWorkload = cliWorkload{
		trials: 24,
		shards: 3,
		args: []string{"-mode", "reunion", "-workloads", "apache,oracle-oltp",
			"-warm", "100000", "-target", "2000"},
	}
)

// cliParallel is every reunion-inject run's -parallel: the most worker
// threads a CLI round keeps busy.
const cliParallel = 2

// cliProbes is how many start-up probes run before the first round.
const cliProbes = 11

var (
	binDir    = filepath.Join(buildDir, "bin")
	injectBin = filepath.Join(binDir, "reunion-inject")
	mergeBin  = filepath.Join(binDir, "reunion-merge")
)

// cliRound is what one round of a CLI workload measured.
type cliRound struct {
	sample
	worker, merge time.Duration // wall time of the inject processes and of the merge process
	workerCPU     time.Duration
	journalBytes  int64
	rssKB         int64 // largest child peak RSS
}

func runCLI(b *bench, w cliWorkload) error {
	build := exec.CommandContext(b.ctx, "go", "build", "-o", binDir+"/", "./cmd/reunion-inject", "./cmd/reunion-merge")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build CLIs: %w", err)
	}

	// Set-up is CLI start-up: loading each binary and running its
	// initialization to a no-op exit. Probes run before the first round
	// and again before each untraced round, so their median samples the
	// host over the whole run rather than one moment of it.
	var probes []float64
	probe := func(n int) error {
		for range n {
			t := time.Now()
			if _, err := b.runProc(injectBin, "-list"); err != nil {
				return err
			}
			if _, err := b.runProc(mergeBin, "-h"); err != nil {
				return err
			}
			probes = append(probes, time.Since(t).Seconds())
		}
		return nil
	}
	if err := probe(cliProbes); err != nil {
		return err
	}

	var all []cliRound
	round := func(traced bool) func() (sample, error) {
		return func() (sample, error) {
			if !traced {
				if err := probe(1); err != nil {
					return sample{}, err
				}
			}
			r, err := b.cliRound(w, len(all), traced)
			all = append(all, r)
			return r.sample, err
		}
	}
	plain, err := timeRounds(b.budget, round(false))
	if err != nil {
		return err
	}
	b.set("setup_s", "s", median(probes))
	b.setRounds(plain)
	var worker, workerCPU time.Duration
	var peakKB int64
	for _, r := range all {
		worker += r.worker
		workerCPU += r.workerCPU
		peakKB = max(peakKB, r.rssKB)
	}
	b.set("peak_rss_mb", "MB", float64(peakKB)/1024)
	b.set("host.cpu_util", "frac", workerCPU.Seconds()/(worker.Seconds()*cliParallel))
	b.set("host.wait_s", "s", (worker.Seconds()*cliParallel-workerCPU.Seconds())/float64(len(all)))
	if !b.traced {
		return nil
	}

	nplain := len(all)
	traced, err := timeRounds(b.budget, round(true))
	if err != nil {
		return err
	}
	b.setOverhead(plain, traced)
	var wall, merge time.Duration
	var journal int64
	worker = 0
	for _, r := range all[nplain:] {
		wall += r.wall
		worker += r.worker
		merge += r.merge
		journal += r.journalBytes
	}
	n := float64(len(traced))
	b.set("phase.worker_s", "s", worker.Seconds()/n)
	b.set("phase.merge_s", "s", merge.Seconds()/n)
	b.set("dist.journal_bytes", "bytes", float64(journal)/n)
	b.set("trace.phase_gap_frac", "frac", 1-(worker+merge).Seconds()/wall.Seconds())

	profiles, _ := filepath.Glob(filepath.Join(b.traceDir, "round*", "inject*.prof"))
	layers, err := profileLayers(b.ctx, profiles...)
	if err != nil {
		return err
	}
	b.setLayers(layers, len(traced))
	spans := map[string]*spanStats{}
	traces, _ := filepath.Glob(filepath.Join(b.traceDir, "round*", "inject*.trace.json"))
	for _, p := range traces {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		err = foldSpans(f, spans)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	b.setSpans(spans, len(traced))
	return nil
}

// cliRound runs one campaign round in its own directory: the inject
// workers, then the merge. A CLI that fails or output that fails a check
// counts as failed operations; only the benchmark's own errors are
// returned.
func (b *bench) cliRound(w cliWorkload, k int, traced bool) (cliRound, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", k))
	if traced {
		dir = filepath.Join(b.traceDir, fmt.Sprintf("round%d", k))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cliRound{}, err
	}
	store := filepath.Join(dir, "store")
	defer os.RemoveAll(store)
	seed := strconv.FormatUint(b.seed, 10)
	ops := w.trials + 1 // every trial, and the merge
	b.attempt(ops)

	var r cliRound
	var journals []string
	start := time.Now()
	for i := 0; i < max(1, w.shards); i++ {
		j := filepath.Join(dir, fmt.Sprintf("journal%d.jsonl", i))
		journals = append(journals, j)
		args := append([]string{"-trials", strconv.Itoa(w.trials), "-seeds", seed, "-campaign-seed", seed,
			"-parallel", strconv.Itoa(cliParallel), "-quiet", "-journal", j}, w.args...)
		if w.shards > 0 {
			args = append(args, "-shard", fmt.Sprintf("%d/%d", i, w.shards), "-ckpt-store", store)
		}
		if traced {
			args = append(args, "-cpuprofile", filepath.Join(dir, fmt.Sprintf("inject%d.prof", i)),
				"-trace-out", filepath.Join(dir, fmt.Sprintf("inject%d.trace.json", i)))
		}
		p, err := b.runProc(injectBin, args...)
		r.worker += p.wall
		r.workerCPU += p.cpu
		r.rssKB = max(r.rssKB, p.rssKB)
		if err != nil {
			r.wall = time.Since(start)
			b.fail(ops, err.Error())
			return r, nil
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	args := []string{"-out", merged, "-quiet"}
	if traced {
		args = append(args, "-trace-out", filepath.Join(dir, "merge.trace.json"))
	}
	p, err := b.runProc(mergeBin, append(args, journals...)...)
	r.sample = sample{wall: time.Since(start), cpu: r.workerCPU + p.cpu, ops: float64(w.trials)}
	r.merge = p.wall
	r.rssKB = max(r.rssKB, p.rssKB)
	if err != nil {
		b.fail(ops, err.Error())
		return r, nil
	}
	for _, j := range journals {
		if fi, err := os.Stat(j); err == nil {
			r.journalBytes += fi.Size()
		}
	}
	if err := b.checkMerged(merged, w.trials); err != nil {
		return r, err
	}
	for _, p := range append(journals, merged) {
		os.Remove(p)
	}
	return r, nil
}

// checkMerged checks a merged campaign stream: one record per trial, no
// Reunion-mode trial silently corrupted or lost (the paper's coverage
// claim), and the stream's digest.
func (b *bench) checkMerged(path string, trials int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	if err := b.checkDigest(hex.EncodeToString(sum[:])); err != nil {
		b.fail(1, err.Error())
	}
	records := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var rec struct {
			Labels map[string]string `json:"labels"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%s record %d: %w", path, records, err)
		}
		records++
		if out := rec.Labels["outcome"]; rec.Labels["mode"] == "reunion" && out != "masked" && out != "detected" {
			b.fail(1, fmt.Sprintf("reunion-mode trial %s of %s ended %s", rec.Labels["trial"], rec.Labels["workload"], out))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if records != trials {
		b.fail(1, fmt.Sprintf("merged %d records for %d trials", records, trials))
	}
	return nil
}

type procStats struct {
	wall, cpu time.Duration
	rssKB     int64
}

// runProc runs a CLI to completion and returns its wall and CPU time and
// peak RSS.
func (b *bench) runProc(bin string, args ...string) (procStats, error) {
	cmd := exec.CommandContext(b.ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	p := procStats{wall: time.Since(start)}
	if st := cmd.ProcessState; st != nil {
		p.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			p.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		return p, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return p, nil
}
