package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"reunion/internal/obs"
)

// Outcome values of a merge (Manifest.Outcome).
const (
	// OutcomeSuccess: every record of the run verified and was written.
	OutcomeSuccess = "success"
	// OutcomePartial: the verified subset was written; Missing/Failed
	// say which index ranges are not in the output and why.
	OutcomePartial = "partial"
	// OutcomeFailed: no record of the run verified.
	OutcomeFailed = "failed"
)

// ExitCode maps an outcome to reunion-merge's exit code: 0 success,
// 3 partial, 1 failed.
func ExitCode(outcome string) int {
	switch outcome {
	case OutcomeSuccess:
		return 0
	case OutcomePartial:
		return 3
	default:
		return 1
	}
}

// IndexRange is a half-open [Lo, Hi) slice of the flattened index
// space.
type IndexRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// JournalFailure records one journal that was given to the merge but did
// not survive verification — a torn file, a missing or contradicted
// footer, an index-sequence break. Its range counts as missing from the
// output.
type JournalFailure struct {
	Path  string     `json:"path"`
	Range IndexRange `json:"range"`
	Err   string     `json:"err"`
}

// Manifest is the machine-readable result of a merge: which ranges of
// the run made it into the output, which did not, and why.
// reunion-merge -manifest writes one, so an operator can see which
// shards to rerun or -resume.
type Manifest struct {
	Spec        string `json:"spec"`
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total"`
	// Records is the number of verified records written to the output.
	Records int    `json:"records"`
	Outcome string `json:"outcome"` // "success" | "partial" | "failed"
	// Missing lists the index ranges absent from the output, coalesced
	// and in ascending order — no journal covered them, or the covering
	// journal failed verification.
	Missing []IndexRange `json:"missing,omitempty"`
	// Failed lists the given journals that failed verification.
	Failed []JournalFailure `json:"failed,omitempty"`
}

// Success reports whether the merge covered the whole run.
func (m *Manifest) Success() bool { return m.Outcome == OutcomeSuccess }

// WriteFile writes the manifest as indented JSON via a temporary file
// and rename, so a crashed writer never leaves a torn manifest — the
// file's whole point is to be trusted by tooling.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

// incomplete explains why a strict merge refused a manifest.
func (m *Manifest) incomplete() error {
	var why []string
	for _, f := range m.Failed {
		why = append(why, fmt.Sprintf("%s: %s", f.Path, f.Err))
	}
	for _, r := range m.Missing {
		why = append(why, fmt.Sprintf("range [%d,%d) missing", r.Lo, r.Hi))
	}
	return fmt.Errorf("dist: incomplete merge (%d of %d records verified): %s",
		m.Records, m.Total, strings.Join(why, "; "))
}

// member is one verified journal: its range and where its payload lies.
type member struct {
	path    string
	plan    Plan
	start   int64 // payload offset (the header's length)
	payload int64
	crc     uint64
}

// Merge reassembles range journals into one stream byte-identical to the
// single-process run and returns a Manifest accounting for every index
// of [0, Total). Paths may arrive in any order.
//
// It first verifies every journal end to end — header against the run
// the first journal names, every record against the journal's range,
// payload against the footer — and checks that the verified ranges do
// not overlap; the gaps between them are the manifest's missing ranges.
// Then it copies the verified payloads in index order through one
// buffered writer into a temporary file beside out, renamed into place
// at the end (out "" writes no file), and into tee when non-nil.
//
// The error split is deliberate: a journal that is individually broken
// (torn, unsealed, checksum-contradicted) is reported in the manifest
// and its range counted missing — the "partial" outcome a caller can
// act on. A contradictory set — zero journals, a journal of another
// format or run, two verified journals claiming overlapping ranges — is
// an error, because no output could be trusted. strict turns every
// outcome but success into an error too (returned with the manifest
// that explains it), and then nothing is written. A merge that verifies
// no record writes no file. On any other error the bytes already given
// to tee are meaningless.
func Merge(out string, paths []string, strict bool, tee io.Writer, tr *obs.Tracer) (*Manifest, error) {
	sp := tr.StartSpan("merge", "merge",
		obs.Arg{Key: "out", Val: out}, obs.Arg{Key: "journals", Val: len(paths)})
	m, err := merge(out, paths, strict, tee, tr)
	sp.End(obs.Arg{Key: "err", Val: err != nil})
	return m, err
}

func merge(out string, paths []string, strict bool, tee io.Writer, tr *obs.Tracer) (*Manifest, error) {
	if len(paths) == 0 {
		return nil, errors.New("dist: merge of zero journals")
	}
	var run Plan
	var ok []member
	m := &Manifest{}
	for i, path := range paths {
		mem, verr, err := verify(path)
		if err != nil {
			return nil, fmt.Errorf("dist: %s: %w", path, err)
		}
		if i == 0 {
			run = mem.plan
		} else if err := sameRun(mem.plan, run); err != nil {
			return nil, fmt.Errorf("dist: %s: %w", path, err)
		}
		if verr != nil {
			m.Failed = append(m.Failed, JournalFailure{Path: path,
				Range: IndexRange{mem.plan.Lo, mem.plan.Hi}, Err: verr.Error()})
			continue
		}
		ok = append(ok, mem)
	}

	// Tiling: verified ranges must not overlap (a corrupt set), and the
	// gaps between them are what the output is missing.
	sort.Slice(ok, func(i, j int) bool { return ok[i].plan.Lo < ok[j].plan.Lo })
	m.Spec, m.Fingerprint, m.Total = run.Spec, fmt.Sprintf("%016x", run.Fingerprint), run.Total
	next := 0
	for _, mem := range ok {
		if mem.plan.Count() == 0 {
			continue // an empty static shard covers nothing
		}
		if mem.plan.Lo < next {
			return nil, fmt.Errorf("dist: %s %s overlaps another verified journal's range ending at %d",
				mem.path, mem.plan, next)
		}
		if mem.plan.Lo > next {
			m.Missing = append(m.Missing, IndexRange{next, mem.plan.Lo})
		}
		next = mem.plan.Hi
		m.Records += mem.plan.Count()
	}
	if next < run.Total {
		m.Missing = append(m.Missing, IndexRange{next, run.Total})
	}
	switch {
	case len(m.Missing) == 0 && len(m.Failed) == 0:
		m.Outcome = OutcomeSuccess
	case m.Records > 0:
		m.Outcome = OutcomePartial
	default:
		m.Outcome = OutcomeFailed
	}
	if strict && !m.Success() {
		return m, m.incomplete()
	}
	if m.Records == 0 && !m.Success() {
		return m, nil
	}

	copyAll := func(w io.Writer) error {
		if tee != nil {
			w = io.MultiWriter(w, tee)
		}
		for _, mem := range ok {
			csp := tr.StartSpan("merge", "copy_journal",
				obs.Arg{Key: "path", Val: mem.path}, obs.Arg{Key: "range", Val: mem.plan.String()})
			err := mem.copyTo(w)
			csp.End(obs.Arg{Key: "records", Val: mem.plan.Count()}, obs.Arg{Key: "err", Val: err != nil})
			if err != nil {
				return err
			}
		}
		return nil
	}
	var err error
	if out == "" {
		err = copyAll(io.Discard)
	} else {
		err = writeAtomic(out, copyAll)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// verify opens the journal at path and checks it end to end. A journal
// that cannot be placed in the run — unreadable, no header, another
// format — is an error; one that can but whose body does not verify
// comes back with its plan and the verification error.
func verify(path string) (mem member, verr, err error) {
	f, err := os.Open(path)
	if err != nil {
		return mem, nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	plan, headLen, err := readHeader(r)
	if err == io.EOF {
		err = errors.New("no journal header")
	}
	if err != nil {
		return mem, nil, err
	}
	st, verr := replay(r, plan, true)
	return member{path: path, plan: plan, start: int64(headLen), payload: st.payload, crc: st.crc.Sum64()}, verr, nil
}

// copyTo copies the journal's verified payload bytes to w, checking them
// against the checksum verify computed: a file that changed since it was
// verified fails rather than leaking unverified bytes into the output.
func (mem member) copyTo(w io.Writer) error {
	f, err := os.Open(mem.path)
	if err != nil {
		return err
	}
	defer f.Close()
	crc := crc64.New(crcTable)
	if _, err := io.Copy(io.MultiWriter(w, crc), io.NewSectionReader(f, mem.start, mem.payload)); err != nil {
		return err
	}
	if crc.Sum64() != mem.crc {
		return fmt.Errorf("dist: %s changed between verification and copy", mem.path)
	}
	return nil
}

// writeAtomic writes path through one buffered writer into a temporary
// file in the same directory, renamed over path only when write and the
// flush and sync all succeed, so a failed writer never leaves a
// truncated or half-verified file behind.
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
