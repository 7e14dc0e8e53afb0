package plan

import (
	"path/filepath"
	"testing"

	"hetkg/internal/artifact"
	"hetkg/internal/plan/benchfmt"
)

const applyPlan = `
plan: apply-test
run:
  dataset: fb15k
  scale: tiny
  epochs: 1
  machines: 2
  evalMax: 50
sweep:
  codec: [fp32, int8]
`

// TestApplyWarmCacheSkipsGeneration is the acceptance proof for the
// artifact cache: a cold apply misses (and fills) the store; a warm apply
// of the same plan is served entirely from it — zero misses — while
// producing bit-identical deterministic measurements.
func TestApplyWarmCacheSkipsGeneration(t *testing.T) {
	p, err := Parse([]byte(applyPlan))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	st, err := artifact.Open(filepath.Join(t.TempDir(), "artifacts"))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	cold, err := Apply(p, ApplyOptions{Artifacts: st, Logf: t.Logf})
	if err != nil {
		t.Fatalf("cold Apply: %v", err)
	}
	if cold.CacheMisses == 0 {
		t.Fatal("cold apply reported no cache misses — nothing was generated?")
	}
	// Both runs share dataset and partition, so run 2 already hits.
	if cold.CacheHits == 0 {
		t.Error("cold apply's second run did not reuse the first run's artifacts")
	}

	warm, err := Apply(p, ApplyOptions{Artifacts: st})
	if err != nil {
		t.Fatalf("warm Apply: %v", err)
	}
	if warm.CacheMisses != 0 {
		t.Errorf("warm apply missed %d times, want 0 (generation not skipped)", warm.CacheMisses)
	}
	if warm.CacheHits == 0 {
		t.Error("warm apply reported no cache hits")
	}

	// Snapshot shape: one row per resolved run, hashed, with the
	// conventional measurements.
	f := cold.File
	if f.Name != "apply-test" || len(f.Rows) != 2 {
		t.Fatalf("snapshot = %+v", f)
	}
	wantRows := []string{"codec=fp32", "codec=int8"}
	for i, r := range f.Rows {
		if r.Name != wantRows[i] {
			t.Errorf("row %d = %q, want %q", i, r.Name, wantRows[i])
		}
		if len(r.Hash) != 64 {
			t.Errorf("row %q hash = %q", r.Name, r.Hash)
		}
		for _, field := range []string{"iters", "mrr", "loss", "hit_ratio"} {
			if _, ok := r.Values[field]; !ok {
				t.Errorf("row %q lacks %s (has %v)", r.Name, field, r.Fields())
			}
		}
	}

	// Cached intermediates must not change results: the warm pass passes
	// the gate against the cold one.
	if rep, err := Compare(warm.File, f); err != nil || !rep.OK() || rep.Compared != 12 {
		t.Errorf("warm vs cold: %v %+v", err, rep)
	}

	// int8 must actually compress relative to raw.
	if r, ok := f.RowByName("codec=int8"); ok {
		if r.Values["bytes_wire"] >= r.Values["bytes_raw"] {
			t.Errorf("int8 wire bytes %v not below raw %v", r.Values["bytes_wire"], r.Values["bytes_raw"])
		}
	}
}

// TestApplyNoStore runs a single-run plan without a cache attached.
func TestApplyNoStore(t *testing.T) {
	p, err := Parse([]byte("plan: bare\nrun:\n  scale: tiny\n  epochs: 1\n  machines: 2\n  evalMax: 50"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	res, err := Apply(p, ApplyOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.CacheHits != 0 || res.CacheMisses != 0 {
		t.Errorf("storeless apply counted cache traffic: %+v", res)
	}
	if len(res.File.Rows) != 1 || res.File.Rows[0].Name != "base" {
		t.Fatalf("rows = %+v", res.File.Rows)
	}
}

// TestApplySnapshotGatesItself closes the loop: a second apply of the same
// plan lands on the first one's values exactly, wall-clock apart, in memory
// and through the on-disk format.
func TestApplySnapshotGatesItself(t *testing.T) {
	p, err := Parse([]byte("plan: gate\nrun:\n  scale: tiny\n  epochs: 1\n  machines: 2\n  evalMax: 50"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	first, err := Apply(p, ApplyOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := Apply(p, ApplyOptions{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if rep, err := Compare(res.File, first.File); err != nil || !rep.OK() || rep.Compared != 6 {
		t.Fatalf("re-apply compare failed: %v %+v", err, rep)
	}
	if w := res.File.Rows[0].Wall; w["wall_ms"] <= 0 || w["iters_per_sec"] <= 0 {
		t.Errorf("wall = %v, want wall_ms and iters_per_sec", w)
	}
	if _, ok := res.File.Rows[0].Values["wall_ms"]; ok {
		t.Error("wall_ms recorded among the deterministic values")
	}
	// Round-trip through the on-disk format.
	path, err := benchfmt.WriteDir(t.TempDir(), res.File)
	if err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	loaded, err := benchfmt.Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rep, err := Compare(res.File, loaded); err != nil || !rep.OK() {
		t.Fatalf("round-tripped compare failed: %v %+v", err, rep)
	}
}
