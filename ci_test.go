package hetkg

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCITier2RunsEveryCheckOnce holds ci.yml's tier-2 job to
// scripts/check.sh's step list: every step is called by exactly one CI step
// (`scripts/check.sh STEP`), none is missing and none runs twice. A tier-2
// command that is not a check.sh step may only check another build of the
// code (GOARCH or GOAMD64 set), which check.sh never makes.
func TestCITier2RunsEveryCheckOnce(t *testing.T) {
	script, err := os.ReadFile("scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^steps="([^"]*)"$`).FindSubmatch(script)
	if m == nil {
		t.Fatal(`scripts/check.sh declares no steps="..." list`)
	}
	steps := strings.Fields(string(m[1]))

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, run := range tier2Runs(t, string(ci)) {
		switch f := strings.Fields(run); {
		case len(f) > 0 && f[0] == "scripts/check.sh":
			if len(f) == 1 {
				f = append(f, steps...) // no argument runs every step
			}
			for _, s := range f[1:] {
				calls[s]++
			}
		case strings.HasPrefix(run, "GOARCH=") || strings.HasPrefix(run, "GOAMD64="):
		default:
			t.Errorf("tier-2 runs %q outside scripts/check.sh: make it a step there", run)
		}
	}
	for _, s := range steps {
		if calls[s] != 1 {
			t.Errorf("tier 2 runs check.sh step %q %d times, want once", s, calls[s])
		}
		delete(calls, s)
	}
	for s := range calls {
		t.Errorf("tier 2 calls check.sh step %q, which check.sh does not list", s)
	}
}

// tier2Runs returns the run commands of ci.yml's tier2 job, one per line
// of a multi-line run block.
func tier2Runs(t *testing.T, ci string) []string {
	t.Helper()
	var runs []string
	in, block := false, false
	for _, line := range strings.Split(ci, "\n") {
		trimmed := strings.TrimSpace(line)
		indent := len(line) - len(strings.TrimLeft(line, " "))
		switch {
		case trimmed == "" || strings.HasPrefix(trimmed, "#"):
			continue
		case indent == 2:
			in, block = trimmed == "tier2:", false
		case !in:
		case block && indent > 8:
			runs = append(runs, trimmed)
		case strings.HasPrefix(trimmed, "run:"):
			cmd := strings.TrimSpace(strings.TrimPrefix(trimmed, "run:"))
			if block = cmd == "|"; !block {
				runs = append(runs, cmd)
			}
		default:
			block = false
		}
	}
	if len(runs) == 0 {
		t.Fatal("ci.yml has no tier2 job with run steps")
	}
	return runs
}

// TestCheckFuzzesEveryFuzzer holds scripts/check.sh to the fuzzers in the
// tree: every Fuzz function under internal/ is run by a check.sh step
// (`fuzz FuzzX ./internal/pkg`), so one added with a new kernel or decoder
// cannot sit unrun, and CI runs that step once (above).
func TestCheckFuzzesEveryFuzzer(t *testing.T) {
	script, err := os.ReadFile("scripts/check.sh")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			found++
			call := "fuzz " + string(m[1]) + " ./" + filepath.ToSlash(filepath.Dir(path))
			if !regexp.MustCompile(`(?m)^\s*` + regexp.QuoteMeta(call) + `\s`).Match(script) {
				t.Errorf("%s declares %s, which no scripts/check.sh step runs (want a line %q)", path, m[1], call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no Fuzz function under internal/")
	}
}
