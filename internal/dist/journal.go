package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/crc64"
	"io"
	"os"

	"reunion/internal/obs"
	"reunion/internal/sweep"
)

// Format identifies the journal file format in the header line.
const Format = "reunion-dist-journal/2"

// crcTable is the CRC-64 (ECMA) polynomial the footer checksum uses.
var crcTable = crc64.MakeTable(crc64.ECMA)

// header is the first line of a journal: which range of which run the
// file holds, so resume and merge can refuse a journal written under a
// different run or for a different range.
type header struct {
	Format string `json:"format"`
	Plan
}

// footer is the last line of a complete journal: the record count and
// the CRC-64 of every payload byte (records including their newlines).
// Its presence marks the range finished; its checksum lets resume and
// merge distinguish "complete" from "complete-looking but corrupt".
type footer struct {
	Count int    `json:"count"`
	CRC64 string `json:"crc64"`
}

type headerLine struct {
	Header *header `json:"dist_header"`
}

type footerLine struct {
	Footer *footer `json:"dist_footer"`
}

// readHeader reads a journal's header line and returns the plan it pins
// and the line's byte length. io.EOF means there is no complete header
// line; a journal of another format is an error that names the format.
func readHeader(r *bufio.Reader) (Plan, int, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return Plan{}, 0, err
	}
	var hl headerLine
	if json.Unmarshal(line, &hl) != nil || hl.Header == nil {
		return Plan{}, 0, errors.New("first line is not a journal header")
	}
	if f := hl.Header.Format; f != Format {
		return Plan{}, 0, fmt.Errorf("journal format %q is not %q (re-run its range)", f, Format)
	}
	return hl.Header.Plan, len(line), hl.Header.validate()
}

// sameRun rejects a journal whose plan belongs to a different run than
// want — merging or resuming streams of two experiments must fail
// loudly.
func sameRun(got, want Plan) error {
	if got.Spec != want.Spec || got.Total != want.Total {
		return fmt.Errorf("journal is from a different run: spec=%q total=%d, want spec=%q total=%d",
			got.Spec, got.Total, want.Spec, want.Total)
	}
	if got.Fingerprint != want.Fingerprint {
		return fmt.Errorf("journal was written by a run with a different configuration (fingerprint %016x, want %016x) — same spec name and size, different flags",
			got.Fingerprint, want.Fingerprint)
	}
	return nil
}

// parseRecord extracts what the journal checks of a payload line: its
// global index and whether it is an error record.
func parseRecord(line []byte) (index int, failed, ok bool) {
	var rec struct {
		Index *int   `json:"index"`
		Err   string `json:"err"`
	}
	if json.Unmarshal(line, &rec) != nil || rec.Index == nil {
		return 0, false, false
	}
	return *rec.Index, rec.Err != "", true
}

// Journal is one range's resumable results file. It implements
// sweep.Sink: records must arrive in the plan's index order (the order
// the engines emit), each is appended as one JSONL payload line whose
// bytes are exactly what the single-process JSONL sink would write, and
// Finish seals the file with the checksummed footer once the range is
// complete. Close without Finish leaves the journal resumable.
type Journal struct {
	plan     Plan
	f        *os.File
	w        *bufio.Writer
	crc      hash.Hash64
	done     int
	failed   int
	complete bool
	closed   bool
}

// Create starts a fresh journal at path (truncating any existing file)
// and writes the header immediately, so even a range killed before its
// first record leaves a resumable file.
func Create(path string, plan Plan) (*Journal, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	hb, err := json.Marshal(headerLine{Header: &header{Format: Format, Plan: plan}})
	if err == nil {
		_, err = f.Write(append(hb, '\n'))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{plan: plan, f: f, w: bufio.NewWriter(f), crc: crc64.New(crcTable)}, nil
}

// Open resumes the journal at path: it validates the header against the
// plan, replays the payload — verifying that record k carries global
// index plan.Lo+k — and truncates the file back to the last complete
// record. A torn or index-mismatched tail (the kill-mid-record case) is
// discarded and recomputed — safe, because every record is a pure
// function of its index. A missing file starts fresh; a file whose
// footer verifies is reported complete via Complete. A journal of
// another format, run, or range, or whose footer contradicts its
// payload, is an error, never a silent partial resume.
func Open(path string, plan Plan) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return Create(path, plan)
	}
	if err != nil {
		return nil, err
	}
	j, err := resume(f, path, plan)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: resume %s: %w", path, err)
	}
	return j, nil
}

// resume replays an existing journal file and positions it for appending.
func resume(f *os.File, path string, plan Plan) (*Journal, error) {
	r := bufio.NewReader(f)
	got, headLen, err := readHeader(r)
	if err == io.EOF {
		// No complete header (torn first line or empty file): start over.
		f.Close()
		return Create(path, plan)
	}
	if err != nil {
		return nil, err
	}
	if err := sameRun(got, plan); err != nil {
		return nil, err
	}
	if got != plan {
		return nil, fmt.Errorf("journal is for %s, want %s", got, plan)
	}
	st, err := replay(r, plan, false)
	if err != nil {
		return nil, err
	}
	keep := int64(headLen) + st.payload + st.footer
	if err := f.Truncate(keep); err != nil {
		return nil, err
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		return nil, err
	}
	return &Journal{plan: plan, f: f, w: bufio.NewWriter(f), crc: st.crc,
		done: st.done, failed: st.failed, complete: st.footer > 0}, nil
}

// replayState is what replay learned about a journal's body.
type replayState struct {
	done, failed int
	crc          hash.Hash64
	// payload is the byte length of the verified payload; footer is the
	// byte length of the verified footer line, zero when there is none.
	payload, footer int64
}

// replay walks a journal body (reader positioned just past the header),
// verifying every line against the plan: payload records must carry
// consecutive range indices, a footer must match the payload's count and
// checksum and fill the whole range, and nothing may follow it. It is the
// ONE verifier behind both ends of the journal contract — resume
// (strict=false: the walk stops at the first torn or mismatched line and
// reports the verified prefix for truncate-and-recompute) and merge
// (strict=true: any torn, mismatched, or missing piece, including a
// missing footer, is an error) — so "complete" and "corrupt" cannot mean
// different things to the two.
func replay(r *bufio.Reader, plan Plan, strict bool) (replayState, error) {
	st := replayState{crc: crc64.New(crcTable)}
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			if strict {
				return st, errors.New("journal has no footer (range incomplete — run it to completion or -resume it first)")
			}
			// A torn final line (or a clean kill): recompute from here.
			return st, nil
		}
		if err != nil {
			return st, err
		}
		var fl footerLine
		if json.Unmarshal(line, &fl) == nil && fl.Footer != nil {
			if _, err := r.Peek(1); err != io.EOF {
				return st, errors.New("data after footer")
			}
			if fl.Footer.Count != st.done || fl.Footer.CRC64 != crcHex(st.crc) {
				return st, fmt.Errorf("footer mismatch: footer says %d records crc %s, payload has %d records crc %s",
					fl.Footer.Count, fl.Footer.CRC64, st.done, crcHex(st.crc))
			}
			if st.done != plan.Count() {
				// A footer consistent with its payload but short of the
				// range: sealed-but-incomplete fails at resume exactly as
				// it fails at merge.
				return st, fmt.Errorf("journal sealed with %d records, its range needs %d", st.done, plan.Count())
			}
			st.footer = int64(len(line))
			return st, nil
		}
		index, failed, ok := parseRecord(line)
		if !ok || st.done >= plan.Count() || index != plan.Lo+st.done {
			if !strict {
				// An intact line that is not the expected record: the tail
				// is untrustworthy. Drop it and everything after; the
				// records are deterministic, so recomputing is always safe.
				return st, nil
			}
			if !ok {
				return st, fmt.Errorf("record %d is not a valid payload line", st.done)
			}
			return st, fmt.Errorf("record %d carries index %d, range expects %d", st.done, index, plan.Lo+st.done)
		}
		if failed {
			st.failed++
		}
		st.crc.Write(line)
		st.payload += int64(len(line))
		st.done++
	}
}

// OpenOrCreate resolves a CLI's -journal/-resume pair: Open (resume from
// the last complete record) when resume is set, Create (start the range
// fresh, truncating any previous attempt) otherwise. With a tracer a
// resume's replay runs in a "journal_replay" span.
func OpenOrCreate(path string, plan Plan, resume bool, tr *obs.Tracer) (*Journal, error) {
	open := Create
	var sp *obs.Span
	if resume {
		open = Open
		sp = tr.StartSpan("journal", "journal_replay",
			obs.Arg{Key: "path", Val: path}, obs.Arg{Key: "range", Val: plan.String()})
	}
	j, err := open(path, plan)
	if err != nil {
		sp.End(obs.Arg{Key: "err", Val: true})
		return nil, err
	}
	sp.End(obs.Arg{Key: "replayed", Val: j.done})
	return j, nil
}

// SealOrClose is the one correct way to put a journal down after a run:
// a fully successful range is sealed with its footer (Finish); any
// failure leaves the journal footerless — resumable — and the run's
// error is returned unchanged.
func SealOrClose(j *Journal, runErr error) error {
	if runErr == nil {
		return j.Finish()
	}
	j.Close() // best-effort flush; the run error is what matters
	return runErr
}

// Done returns the number of records already journaled; the range's next
// record must carry global index Plan.Lo+Done().
func (j *Journal) Done() int { return j.done }

// Remaining returns the range's still-unjournaled global indices — what
// a resumed range passes to the engines.
func (j *Journal) Remaining() []int { return j.plan.Indices()[j.done:] }

// Complete reports whether the journal carries a verified footer (the
// range finished; nothing to run).
func (j *Journal) Complete() bool { return j.complete }

// Failed counts the journal's error records — runs that failed and were
// journaled as deterministic error records, both in this process and in
// the replayed prefix of a resumed journal. A CLI's exit code must
// reflect the whole range, not just the records run since the last
// resume.
func (j *Journal) Failed() int { return j.failed }

// Write appends one record. Records must arrive in the plan's index
// order; anything else means the caller and the journal disagree about
// the resume point, which must fail loudly rather than corrupt the file.
func (j *Journal) Write(rec sweep.Record) error {
	if j.closed || j.complete {
		return errors.New("dist: write to a closed or completed journal")
	}
	if j.done >= j.plan.Count() {
		return fmt.Errorf("dist: record %d past the journal's %d-record range", rec.Index, j.plan.Count())
	}
	if want := j.plan.Lo + j.done; rec.Index != want {
		return fmt.Errorf("dist: out-of-order record: got index %d, want %d", rec.Index, want)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line := append(b, '\n')
	j.crc.Write(line)
	if _, err := j.w.Write(line); err != nil {
		return err
	}
	j.done++
	if rec.Err != "" {
		j.failed++
	}
	return nil
}

// Finish seals a complete journal: it verifies every range record was
// written, appends the checksummed footer, and syncs and closes the
// file. Finishing an already-complete journal just closes it.
func (j *Journal) Finish() error {
	if j.closed {
		return errors.New("dist: Finish on a closed journal")
	}
	if !j.complete {
		if j.done != j.plan.Count() {
			return fmt.Errorf("dist: Finish with %d of %d records journaled", j.done, j.plan.Count())
		}
		fb, err := json.Marshal(footerLine{Footer: &footer{Count: j.done, CRC64: crcHex(j.crc)}})
		if err != nil {
			return err
		}
		if _, err := j.w.Write(append(fb, '\n')); err != nil {
			return err
		}
		j.complete = true
	}
	return j.close(true)
}

// Close flushes and closes without writing a footer, leaving the journal
// resumable. It satisfies sweep.Sink.Close and is safe to call after
// Finish (a no-op then).
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	return j.close(false)
}

func (j *Journal) close(sync bool) error {
	j.closed = true
	err := j.w.Flush()
	if sync {
		if serr := j.f.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

func crcHex(h hash.Hash64) string { return fmt.Sprintf("%016x", h.Sum64()) }
