package lint

import (
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRepoIsClean: every package of the module type-checks, and the
// check reports on none of them.
func TestRepoIsClean(t *testing.T) {
	t.Chdir("../..")
	targets, err := load()
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	var checked []string
	for _, tg := range targets {
		checked = append(checked, tg.pkg.Path())
		for _, f := range snapshotComplete(tg) {
			t.Errorf("%s: %s", tg.fset.Position(f.pos), f.msg)
		}
	}
	// A clean result means something only if every package was checked.
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	if listed := strings.Fields(string(out)); !slices.Equal(slices.Sorted(slices.Values(checked)), listed) {
		t.Errorf("type-checked %d packages %v, but go list ./... names %d: %v", len(checked), checked, len(listed), listed)
	}
}

// TestLoadErrorIsNotClean: a module that does not type-check is a load
// error, never a clean result.
func TestLoadErrorIsNotClean(t *testing.T) {
	t.Chdir("testdata/broken")
	if targets, err := load(); err == nil {
		t.Fatalf("loaded %d packages of a module that does not type-check without error", len(targets))
	} else if !strings.Contains(err.Error(), "type-checking broken/bad") {
		t.Errorf("load error %q does not name the package that failed", err)
	}
}

func TestSnapshotComplete(t *testing.T) {
	checkFixture(t, "testdata/snapshotcomplete", snapshotComplete)
}

// checkFixture loads the fixture module in dir, runs check over each of
// its packages, and reports any mismatch between the findings and the
// `// want` expectations in the fixture source. An expectation sits on
// the line the finding is expected at:
//
//	lost []int // want `Core\.lost`
//
// The backquoted (or double-quoted) string is an unanchored regular
// expression matched against the finding's message; several patterns on
// one line expect several findings. A line with no `// want` comment
// expects none.
func checkFixture(t *testing.T, dir string, check func(*target) []finding) {
	t.Helper()
	t.Chdir(dir)
	targets, err := load()
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	type key struct {
		file string
		line int
	}
	pending := map[key][]string{} // unmatched finding messages
	for _, tg := range targets {
		for _, f := range check(tg) {
			pos := tg.fset.Position(f.pos)
			k := key{pos.Filename, pos.Line}
			pending[k] = append(pending[k], f.msg)
		}
	}
	for _, tg := range targets {
		for _, f := range tg.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := tg.fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, re := range parseWants(t, c.Text) {
						if !takeMatch(pending, k, re) {
							t.Errorf("%s:%d: no finding matching %q (have %v)", k.file, k.line, re, pending[k])
						}
					}
				}
			}
		}
	}
	for k, msgs := range pending {
		for _, m := range msgs {
			t.Errorf("%s:%d: unexpected finding: %s", k.file, k.line, m)
		}
	}
}

// takeMatch removes and reports the first pending finding at k matching
// re.
func takeMatch[K comparable](pending map[K][]string, k K, re *regexp.Regexp) bool {
	msgs := pending[k]
	for i, m := range msgs {
		if re.MatchString(m) {
			pending[k] = append(msgs[:i:i], msgs[i+1:]...)
			if len(pending[k]) == 0 {
				delete(pending, k)
			}
			return true
		}
	}
	return false
}

// parseWants extracts the expectation regexps from one comment, or nil
// if it is not a want comment.
func parseWants(t *testing.T, text string) []*regexp.Regexp {
	t.Helper()
	body, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil
	}
	var wants []*regexp.Regexp
	rest := strings.TrimSpace(body)
	for rest != "" {
		var raw string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("unterminated want pattern: %s", text)
			}
			raw = rest[1 : 1+end]
			rest = rest[2+end:]
		case '"':
			var err error
			end := strings.IndexByte(rest[1:], '"') // no escaped quotes in fixtures
			if end < 0 {
				t.Fatalf("unterminated want pattern: %s", text)
			}
			raw, err = strconv.Unquote(rest[:2+end])
			if err != nil {
				t.Fatalf("bad want pattern %s: %v", rest[:2+end], err)
			}
			rest = rest[2+end:]
		default:
			t.Fatalf("want pattern must be quoted or backquoted: %s", text)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("bad want regexp %q: %v", raw, err)
		}
		wants = append(wants, re)
		rest = strings.TrimSpace(rest)
	}
	if wants == nil {
		t.Fatalf("want comment with no patterns: %s", text)
	}
	return wants
}
