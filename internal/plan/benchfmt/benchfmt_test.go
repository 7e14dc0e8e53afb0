package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	f := &File{
		Name:  "codecs",
		Scale: "tiny",
		Seed:  42,
		Meta:  map[string]string{"dataset": "fb15k"},
		Rows: []Row{
			{Name: "codec=fp32", Hash: strings.Repeat("ab", 32), Values: map[string]float64{"mrr": 0.41}, Wall: map[string]float64{"wall_ms": 120.5}},
			{Name: "codec=int8", Values: map[string]float64{"mrr": 0.40}},
		},
	}
	path, err := WriteDir(t.TempDir(), f)
	if err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	if filepath.Base(path) != "BENCH_codecs.json" {
		t.Errorf("path = %s", path)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.SchemaName != Schema {
		t.Errorf("schema = %q", got.SchemaName)
	}
	if got.Meta["dataset"] != "fb15k" || got.Meta[MetaGoArch] != runtime.GOARCH {
		t.Errorf("meta = %v, want the caller's keys plus goarch %s", got.Meta, runtime.GOARCH)
	}
	if !reflect.DeepEqual(got.Rows, f.Rows) || got.Name != f.Name || got.Seed != f.Seed {
		t.Fatalf("round trip:\n%+v\nwant\n%+v", got, f)
	}
	r, ok := got.RowByName("codec=int8")
	if !ok || r.Values["mrr"] != 0.40 {
		t.Errorf("RowByName = %+v, %v", r, ok)
	}
	if _, ok := got.RowByName("nope"); ok {
		t.Error("RowByName found a phantom row")
	}
}

func TestReadRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []struct{ name, body, wantSub string }{
		// The previous schema kept wall_ms among the values: refused by name.
		{"bad-schema.json", `{"schema":"hetkg-bench/v2","name":"x","rows":[]}`, `schema "hetkg-bench/v2", want "hetkg-bench/v3"`},
		{"no-name.json", `{"schema":"hetkg-bench/v3","rows":[]}`, "names no plan"},
		{"anon-row.json", `{"schema":"hetkg-bench/v3","name":"x","rows":[{"values":{"a":1}}]}`, "no name"},
		{"garbage.json", `not json`, "parsing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(write(tc.name, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Read error = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
	if _, err := Read(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("Read of a missing file succeeded")
	}
}

func TestNormalizeField(t *testing.T) {
	cases := map[string]string{
		"MRR":         "mrr",
		"B/iter":      "b_iter",
		"Hit ratio":   "hit_ratio",
		"  Wall  ":    "wall",
		"iters/sec":   "iters_sec",
		"++":          "",
		"Bytes (raw)": "bytes_raw",
	}
	for in, want := range cases {
		if got := NormalizeField(in); got != want {
			t.Errorf("NormalizeField(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRowFieldsSorted(t *testing.T) {
	r := Row{Values: map[string]float64{"z": 1, "a": 2, "m": 3}}
	if got := r.Fields(); !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("Fields = %v", got)
	}
}
