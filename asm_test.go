package hetkg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetkg/internal/train"
)

// TestKernelAssemblyRules holds every assembly file under internal/ to two
// rules of the kernel contract (DESIGN.md §6) that no differential test
// sees on every CPU:
//   - no fused multiply-add: it rounds once where the Go loop rounds twice;
//   - a TEXT block that uses a Y register runs VZEROUPPER after its last Y
//     use before each RET, or every legacy SSE instruction after the call
//     pays a state transition (about 200 ns a call on a Xeon VM).
//
// A Y register counts whether it is written in the block or reached
// through one of the file's #define macros, defined before their use.
func TestKernelAssemblyRules(t *testing.T) {
	fma := regexp.MustCompile(`\bVFN?M(ADD|SUB)`)
	yReg := regexp.MustCompile(`\bY(1[0-5]|[0-9])\b`)
	ident := regexp.MustCompile(`\b[A-Z_][A-Z0-9_]*\b`)
	kernels := map[string]bool{} // TEXT blocks that use a Y register
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".s") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		yMacros := map[string]bool{}
		usesY := func(code string) bool {
			if yReg.MatchString(code) {
				return true
			}
			for _, w := range ident.FindAllString(code, -1) {
				if yMacros[w] {
					return true
				}
			}
			return false
		}
		text, dirty, continued := "", false, ""
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if fma.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add %q", path, i+1, strings.TrimSpace(code))
			}
			if continued != "" || strings.HasPrefix(code, "#define") { // a macro, maybe over several lines
				continued += strings.TrimSuffix(strings.TrimSpace(code), `\`) + " "
				if strings.HasSuffix(strings.TrimSpace(code), `\`) {
					continue
				}
				f := strings.Fields(continued)
				name, _, _ := strings.Cut(f[1], "(")
				yMacros[name] = usesY(strings.Join(f[2:], " "))
				continued = ""
				continue
			}
			switch f := strings.Fields(code); {
			case len(f) == 0:
			case f[0] == "TEXT":
				text, dirty = strings.TrimSuffix(f[1], ","), false
			case f[0] == "VZEROUPPER":
				dirty = false
			case f[0] == "RET" && dirty:
				t.Errorf("%s:%d: %s returns with no VZEROUPPER after its last Y register use", path, i+1, text)
			case text != "" && usesY(code):
				kernels[path+" "+text], dirty = true, true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kernels) < 9 {
		t.Errorf("%d TEXT blocks use a Y register, want the 9 kernels at least: %v", len(kernels), kernels)
	}
}

// TestNoGobInTheProduct fails on an encoding/gob import in any non-test Go
// file under internal/ or cmd/. gob's decoder is not hardened against
// adversarial input, and the product reads two trust boundaries, the shard
// socket and the artifact directory: their messages are explicit binary
// layouts or strictly decoded JSON (DESIGN.md §10.4, §11.2, §14.3). Tests
// may import gob, to build what an older build wrote.
func TestNoGobInTheProduct(t *testing.T) {
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
					t.Errorf("%s imports encoding/gob", fset.Position(imp.Pos()))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneRunDescription fails when train.Config or train.ElasticConfig
// declares a field RunConfig already declares. RunConfig is the one
// declaration of a run's knobs (DESIGN.md §14.1): the trainer embeds it and
// adds only what core derives from it, so a knob never gets a second name, a
// second default or a second meaning of zero.
func TestOneRunDescription(t *testing.T) {
	spec := reflect.TypeFor[RunConfig]()
	for _, typ := range []reflect.Type{reflect.TypeFor[train.Config](), reflect.TypeFor[train.ElasticConfig]()} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if _, ok := spec.FieldByName(f.Name); ok && !f.Anonymous {
				t.Errorf("%v.%s restates RunConfig.%s", typ, f.Name, f.Name)
			}
		}
	}
}

// TestNoKeyMapsOnTheTrainingPath fails on a map keyed by ps.Key,
// kg.EntityID or kg.RelationID in a non-test file of internal/train or in
// the hot table and its census (internal/cache cache.go, prefetch.go). A
// worker's per-key tables index by the dense ps.KeySpace index instead
// (DESIGN.md §3). The Table VI replay probes (policies.go, belady.go) keep
// their maps: they replay an access stream, not a training step.
func TestNoKeyMapsOnTheTrainingPath(t *testing.T) {
	files, err := filepath.Glob("internal/train/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "internal/cache/cache.go", "internal/cache/prefetch.go")
	keyed := map[string]bool{"ps.Key": true, "kg.EntityID": true, "kg.RelationID": true}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			if sel, ok := m.Key.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && keyed[pkg.Name+"."+sel.Sel.Name] {
					t.Errorf("%s: map keyed by %s.%s", fset.Position(m.Pos()), pkg.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
