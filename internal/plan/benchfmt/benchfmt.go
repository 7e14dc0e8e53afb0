// Package benchfmt defines hetkg-bench/v2, the repo-wide machine-readable
// perf snapshot format: one JSON file per plan or experiment, one row per
// run, one flat map of named float values per row. Everything that measures
// — `hetkg apply`, every `hetkg exp -bench-out` experiment — writes this
// one schema, and `hetkg compare` gates regressions against committed
// baselines of it. Keeping the package a leaf (stdlib only) lets both
// internal/core and internal/plan share the writer without a cycle.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Schema is the format identifier every file carries. v1 was the ad-hoc
// codecs-only format (hetkg-bench-codecs/v1); v2 generalizes it to any
// row set.
const Schema = "hetkg-bench/v2"

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
	// Values maps measurement names to numbers. Conventional keys:
	// wall_ms, iters, iters_per_sec, mrr, loss, hit_ratio, bytes_remote,
	// bytes_raw, bytes_wire, ratio. wall_ms and iters_per_sec are the only
	// wall-clock-derived (nondeterministic) values; everything else is
	// bit-deterministic for a given configuration.
	Values map[string]float64 `json:"values"`
}

// Value returns a named measurement and whether the row carries it.
func (r Row) Value(field string) (float64, bool) {
	v, ok := r.Values[field]
	return v, ok
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

// FileName is the conventional on-disk name for a snapshot: BENCH_<name>.json.
func FileName(name string) string { return "BENCH_" + name + ".json" }

// Write marshals f (indented, schema stamped) to path, creating parent
// directories.
func Write(path string, f *File) error {
	f.SchemaName = Schema
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: encoding %s: %w", f.Name, err)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("benchfmt: creating %s: %w", dir, err)
		}
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchfmt: writing snapshot: %w", err)
	}
	return nil
}

// WriteDir writes f under dir as BENCH_<name>.json and returns the path.
func WriteDir(dir string, f *File) (string, error) {
	path := filepath.Join(dir, FileName(f.Name))
	return path, Write(path, f)
}

// Read loads and validates a snapshot.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
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
	for i, r := range f.Rows {
		if r.Name == "" {
			return nil, fmt.Errorf("benchfmt: %s row %d has no name", path, i)
		}
	}
	return &f, nil
}

// FromTable converts a rendered experiment table (header + string cells)
// into a snapshot: the first column becomes the row name, and every
// remaining cell that parses as a number becomes a value keyed by the
// normalized header. This is the generic `hetkg exp -bench-out` path for
// experiments that don't assemble a richer File themselves. Cells render
// for humans, so the parser accepts the table conventions: "3.76x" ratios,
// "212ms"/"1.2s" durations (normalized to a _ms key), and "%"-suffixed
// percentages (normalized to a fraction).
func FromTable(name string, header []string, rows [][]string) *File {
	f := &File{SchemaName: Schema, Name: name}
	for _, row := range rows {
		if len(row) == 0 {
			continue
		}
		r := Row{Name: row[0], Values: map[string]float64{}}
		for i := 1; i < len(row) && i < len(header); i++ {
			key := NormalizeField(header[i])
			if key == "" {
				continue
			}
			if v, k, ok := parseCell(row[i], key); ok {
				r.Values[k] = v
			}
		}
		if len(r.Values) > 0 {
			f.Rows = append(f.Rows, r)
		}
	}
	return f
}

// NormalizeField maps a human table header to a value key: lowercased,
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

// parseCell extracts a float from a table cell, returning the (possibly
// adjusted) key. Durations gain a _ms suffix and are reported in
// milliseconds; percentages are divided by 100.
func parseCell(cell, key string) (float64, string, bool) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return 0, key, false
	}
	if v, err := strconv.ParseFloat(cell, 64); err == nil {
		return v, key, true
	}
	if strings.HasSuffix(cell, "x") {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64); err == nil {
			return v, key, true
		}
	}
	if strings.HasSuffix(cell, "%") {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64); err == nil {
			return v / 100, key, true
		}
	}
	if d, err := time.ParseDuration(cell); err == nil {
		if !strings.HasSuffix(key, "_ms") {
			key += "_ms"
		}
		return float64(d) / float64(time.Millisecond), key, true
	}
	return 0, key, false
}
