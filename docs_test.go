package hetkg_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// constStrings returns the value of every string constant declared in the
// given Go source file.
func constStrings(t *testing.T, path string) []string {
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
			for _, v := range spec.(*ast.ValueSpec).Values {
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
			for _, name := range constStrings(t, src) {
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
