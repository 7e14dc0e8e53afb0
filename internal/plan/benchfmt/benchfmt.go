// Package benchfmt defines hetkg-bench/v3, the repo-wide machine-readable
// run snapshot format: one JSON file per plan or experiment, one row per
// run, and per row two flat maps of named floats — `values`, bit-deterministic
// for the configuration, and `wall`, whatever a clock measured. Everything
// that measures — `hetkg apply`, every `hetkg exp -bench-out` experiment —
// writes this one schema, and `hetkg compare` holds a snapshot's `values`
// equal to a committed baseline's. Keeping the package a leaf (stdlib only)
// lets internal/plan and cmd/hetkg share the writer without a cycle.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"unicode"
)

// Schema is the format identifier every file carries. v2 kept wall-clock
// readings (wall_ms, iters_per_sec) inside `values`; the id changed with the
// split so that a v2 file is refused by name, not compared across it.
const Schema = "hetkg-bench/v3"

// MetaGoArch is the Meta key WriteDir stamps with the GOARCH that produced the
// file: floating-point results are only bit-reproducible within one
// architecture (off amd64 the compiler may fuse x*y+z).
const MetaGoArch = "goarch"

// File is one perf snapshot: a named set of measurement rows plus the
// provenance needed to reproduce them.
type File struct {
	// SchemaName is always Schema; Read rejects anything else.
	SchemaName string `json:"schema"`
	// Name identifies the producing plan or experiment ("codecs", "ci").
	Name string `json:"name"`
	// Scale and Seed record the workload provenance when meaningful.
	Scale string `json:"scale,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// Meta holds free-form provenance (dataset, dim, machines, ...).
	Meta map[string]string `json:"meta,omitempty"`
	// Rows are the measurements, in resolution order.
	Rows []Row `json:"rows"`
}

// Row is one run's measurements.
type Row struct {
	// Name identifies the run within the file ("codec=int8" or a sweep
	// assignment like "cacheBudget=0.01,codec=fp32").
	Name string `json:"name"`
	// Hash, when set, is the run's canonical config hash (internal/plan),
	// tying the measurement to the exact configuration that produced it.
	Hash string `json:"hash,omitempty"`
	// Values maps measurement names to numbers that are bit-deterministic
	// for the configuration. Conventional keys: iters, mrr, loss,
	// hit_ratio, bytes_raw, bytes_wire, ratio.
	Values map[string]float64 `json:"values"`
	// Wall holds the row's wall-clock-derived readings (wall_ms,
	// iters_per_sec, measured computation time): informative, machine- and
	// scheduler-dependent, never compared — the same split as a timeline
	// record's metrics and wall.
	Wall map[string]float64 `json:"wall,omitempty"`
}

// Fields lists a row's measurement names, sorted.
func (r Row) Fields() []string {
	fs := make([]string, 0, len(r.Values))
	for f := range r.Values {
		fs = append(fs, f)
	}
	sort.Strings(fs)
	return fs
}

// RowByName finds a row by its Name.
func (f *File) RowByName(name string) (Row, bool) {
	for _, r := range f.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

// WriteDir marshals f (indented, schema and producing GOARCH stamped) under
// dir — created if need be — as BENCH_<name>.json, and returns the path.
func WriteDir(dir string, f *File) (string, error) {
	data, err := encode(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("benchfmt: creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "BENCH_"+f.Name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("benchfmt: writing snapshot: %w", err)
	}
	return path, nil
}

// encode stamps f with the schema and the producing GOARCH and returns the
// bytes WriteDir writes.
func encode(f *File) ([]byte, error) {
	f.SchemaName = Schema
	if f.Meta == nil {
		f.Meta = map[string]string{}
	}
	f.Meta[MetaGoArch] = runtime.GOARCH
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchfmt: encoding %s: %w", f.Name, err)
	}
	return append(data, '\n'), nil
}

// Read loads and validates a snapshot: the schema, a name, and one uniquely
// named row per run.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return parse(data, path)
}

// parse is Read on a snapshot's bytes; path names them in errors.
func parse(data []byte, path string) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: parsing %s: %w", path, err)
	}
	if f.SchemaName != Schema {
		return nil, fmt.Errorf("benchfmt: %s has schema %q, want %q", path, f.SchemaName, Schema)
	}
	if f.Name == "" {
		return nil, fmt.Errorf("benchfmt: %s names no plan or experiment", path)
	}
	seen := map[string]bool{}
	for i, r := range f.Rows {
		if r.Name == "" {
			return nil, fmt.Errorf("benchfmt: %s row %d has no name", path, i)
		}
		// RowByName finds the first row of a name; a second would go unread.
		if seen[r.Name] {
			return nil, fmt.Errorf("benchfmt: %s names row %q twice", path, r.Name)
		}
		seen[r.Name] = true
	}
	return &f, nil
}

// NormalizeField maps a human table header to a snapshot key: lowercased,
// runs of non-alphanumerics collapsed to single underscores ("B/iter" →
// "b_iter", "Hit ratio" → "hit_ratio").
func NormalizeField(h string) string {
	var b strings.Builder
	pendingSep := false
	for _, r := range strings.ToLower(h) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteRune(r)
		} else {
			pendingSep = true
		}
	}
	return b.String()
}
