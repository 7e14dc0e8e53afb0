package hetkg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetkg/internal/plan"
)

// constStrings returns the value of every string constant declared in the
// given Go source file whose name starts with namePrefix.
func constStrings(t *testing.T, path, namePrefix string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, v := range vs.Values {
				if !strings.HasPrefix(vs.Names[i].Name, namePrefix) {
					continue
				}
				if lit, ok := v.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// TestNamesAreDocumented enforces that no metric or span is emitted without
// a documented meaning: every canonical name in the listed names.go files
// (restricted to a prefix where the doc covers one subsystem) must appear in
// the doc — from the given section heading to the end of the file, when one
// is named. A prefix that matches no name fails too, so a renamed family
// cannot silently drop out of its check.
func TestNamesAreDocumented(t *testing.T) {
	const metricNames, spanNames = "internal/metrics/names.go", "internal/span/names.go"
	for _, c := range []struct {
		what    string
		sources []string
		prefix  string
		doc     string
		section string
	}{
		{"metric", []string{metricNames}, "", "EXPERIMENTS.md", ""},
		{"cluster metric", []string{metricNames}, "cluster.", "OPERATIONS.md", ""},
		{"fleet metric", []string{metricNames}, "fleet.", "OPERATIONS.md", ""},
		{"link metric", []string{metricNames}, "ps.link.", "OPERATIONS.md", ""},
		{"span", []string{spanNames}, "", "DESIGN.md", ""},
		{"serving name", []string{metricNames, spanNames}, "serve.", "DESIGN.md", "## 9. Serving architecture"},
	} {
		raw, err := os.ReadFile(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if c.section != "" {
			i := strings.Index(text, "\n"+c.section)
			if i < 0 {
				t.Errorf("%s has no %q section", c.doc, c.section)
				continue
			}
			text = text[i:]
		}
		matched := 0
		for _, src := range c.sources {
			for _, name := range constStrings(t, src, "") {
				if !strings.HasPrefix(name, c.prefix) {
					continue
				}
				matched++
				if !strings.Contains(text, name) {
					t.Errorf("%s does not document %s %q (section %q)", c.doc, c.what, name, c.section)
				}
			}
		}
		if matched == 0 {
			t.Errorf("%v define no %q names (stale prefix?)", c.sources, c.prefix)
		}
	}
}

// TestExportedDeclarationsAreDocumented holds the packages other layers and
// the docs build on to "no undocumented exported surface": internal/metrics
// (the observability contract), internal/serve (the outward-facing query
// surface the facade aliases), internal/ckpt and internal/frame (the recovery
// file formats operators depend on), internal/telemetry, the cluster
// membership and elastic layer (the protocol OPERATIONS.md documents), and
// the experiment-plan layer (internal/plan, internal/artifact — DESIGN.md
// §14). Every exported top-level function, method, type, variable and
// constant there carries a doc comment; inside a parenthesized group the
// group's comment covers the names that have none of their own.
func TestExportedDeclarationsAreDocumented(t *testing.T) {
	var files []string
	for _, pattern := range []string{
		"internal/metrics/*.go", "internal/serve/*.go", "internal/ckpt/*.go", "internal/frame/*.go",
		"internal/telemetry/*.go", "internal/plan/*.go", "internal/plan/benchfmt/*.go", "internal/artifact/*.go",
		"internal/ps/member.go", "internal/train/elastic.go",
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil || len(matches) == 0 {
			t.Fatalf("%s matches no file (%v)", pattern, err)
		}
		files = append(files, matches...)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		undocumented := func(id *ast.Ident) {
			t.Errorf("%s: exported %s has no doc comment", fset.Position(id.Pos()), id.Name)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					undocumented(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() && spec.Doc == nil && d.Doc == nil {
							undocumented(spec.Name)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() && spec.Doc == nil && d.Doc == nil {
								undocumented(name)
							}
						}
					}
				}
			}
		}
	}
}

// TestCodecProfilesAreMeasuredAndTested: no wire codec profile ships
// unmeasured or untested — every canonical profile name in internal/ps must
// appear in EXPERIMENTS.md (the sweep documents its measured cost/accuracy
// trade-off) and be exercised by name in internal/ps/codec_test.go (golden
// wire format / negotiation coverage).
func TestCodecProfilesAreMeasuredAndTested(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tests, err := os.ReadFile("internal/ps/codec_test.go")
	if err != nil {
		t.Fatal(err)
	}
	names := constStrings(t, "internal/ps/codec.go", "Profile")
	if len(names) == 0 {
		t.Fatal("internal/ps/codec.go declares no Profile* names (stale prefix?)")
	}
	for _, name := range names {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("EXPERIMENTS.md does not document codec profile %q", name)
		}
		if !strings.Contains(string(tests), strconv.Quote(name)) {
			t.Errorf("internal/ps/codec_test.go does not cover codec profile %q", name)
		}
	}
}

// TestPlanKeysAreDocumented: the plan file is a user-facing config surface,
// so every plan key (the `plan:"..."` tags on train.RunConfig) must appear in
// DESIGN.md §14's schema table.
func TestPlanKeysAreDocumented(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## 14. ")
	if !ok {
		t.Fatal("DESIGN.md has no '## 14.' experiment-plan section")
	}
	keys := plan.SpecKeys()
	if len(keys) == 0 {
		t.Fatal("train.RunConfig declares no plan keys")
	}
	for _, key := range keys {
		if !strings.Contains(section, "`"+key+"`") {
			t.Errorf("DESIGN.md §14 does not document plan key %q", key)
		}
	}
}

// TestDocsNameNoRemovedBinary: the nine hetkg-* binaries were folded into
// verbs of the one `hetkg` binary, and a doc, script or CI file that still
// names one sends its reader to a command that does not exist. The schema
// ids that share the spelling (hetkg-bench/v3, ...) are spared by what
// follows the name. CHANGES.md and ROADMAP.md are history, ISSUE.md is the
// change request itself, and benchmark/ is frozen.
func TestDocsNameNoRemovedBinary(t *testing.T) {
	removed := regexp.MustCompile(`hetkg-(train|ps|serve|bench|eval|data|partition|trace|top)([^/\w-]|$)`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == "benchmark" || path == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		switch path {
		case "CHANGES.md", "ROADMAP.md", "ISSUE.md":
			return nil
		}
		switch filepath.Ext(path) {
		case ".md", ".sh", ".yml":
		default:
			if d.Name() != "Makefile" {
				return nil
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if m := removed.FindString(line); m != "" {
				t.Errorf("%s:%d names the removed binary %q (now a `hetkg` verb)", path, i+1, strings.TrimSpace(m))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSharedFlagsDeclaredOnce: a flag several verbs take has exactly one
// declaration — in internal/plan for the run identity, in cmd/hetkg's
// process.go for the plumbing — so no two verbs can spell, default or
// document it differently. Counted as string literals in non-test Go
// (map keys, e.g. a snapshot's "dataset" meta field, are not flag names).
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	count := map[string]int{
		"dataset": 0, "seed": 0, "machines": 0, "metrics-addr": 0,
		"artifacts": 0, "span-every": 0, "telemetry-every": 0, "grace": 0,
	}
	for _, dir := range []string{"cmd/hetkg", "internal/plan"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					ast.Inspect(n.Value, visit)
					return false
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
						if _, ok := count[s]; ok {
							count[s]++
						}
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}
	for name, n := range count {
		if n != 1 {
			t.Errorf("flag name %q is a string literal %d times under cmd/hetkg + internal/plan, want exactly 1", name, n)
		}
	}
}
