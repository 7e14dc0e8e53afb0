package main

import (
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hetkg"
	"hetkg/internal/vec"
)

// TestEvalFindsTheCheckpointsScale is the regression test for `train -scale
// tiny -save m.ckpt && eval -ckpt m.ckpt`: the checkpoint recorded dataset
// and seed but not scale, so eval regenerated the preset at its own default
// (small) and indexed the tiny tables out of range — a panic in vec.Row. The
// checkpoint now records the scale and eval defaults to it; where the
// record is missing (older files) or wrong, the mismatch is an error that
// names the likely cause.
func TestEvalFindsTheCheckpointsScale(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "m.ckpt")
	var out, errb strings.Builder
	if code := run([]string{"train", "-scale", "tiny", "-epochs", "1", "-machines", "2", "-save", ckpt}, &out, &errb); code != 0 {
		t.Fatalf("train exited %d: %s", code, errb.String())
	}

	out.Reset()
	if code := run([]string{"eval", "-ckpt", ckpt, "-max", "50"}, &out, &errb); code != 0 {
		t.Fatalf("eval with the recorded scale exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "test triples: 50") || !strings.Contains(out.String(), "MRR") {
		t.Errorf("eval output:\n%s", out.String())
	}

	// A checkpoint from before the scale was recorded, evaluated without
	// -scale: the small graph does not fit the tiny tables.
	c, err := hetkg.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scale != "tiny" {
		t.Errorf("checkpoint records scale %q, want tiny", c.Scale)
	}
	c.Scale = ""
	if err := hetkg.WriteCheckpoint(ckpt, c); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"eval", "-ckpt", ckpt}, &out, &errb); code != 1 {
		t.Fatalf("eval of a scale-less tiny checkpoint at the default scale exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-scale") {
		t.Errorf("mismatch error does not name the likely cause: %s", errb.String())
	}
	if code := run([]string{"eval", "-ckpt", ckpt, "-scale", "tiny", "-max", "50"}, &out, &errb); code != 0 {
		t.Errorf("eval -scale tiny of the scale-less checkpoint exited %d: %s", code, errb.String())
	}

	// The same guard covers user-supplied triples: a TSV naming more
	// entities than the checkpoint holds.
	tsv := filepath.Join(t.TempDir(), "big.tsv")
	if code := run([]string{"data", "-scale", "small", "-stats=false", "-out", tsv}, &out, &errb); code != 0 {
		t.Fatalf("data exited %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"eval", "-ckpt", ckpt, "-in", tsv}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "-in") {
		t.Errorf("eval -in of an oversized graph exited %d: %s", code, errb.String())
	}
}

// TestMismatchedCheckpointIsRefused is the regression test for a header that
// names one model over another model's tables. serve.New and `hetkg eval`
// checked only that the tables were present, so {"rotate", 100×8, 4×8}
// loaded and the first score indexed a zero-length slice — in a serving
// sweep goroutine outside net/http's per-request recover, taking the process
// down — and {"complex", 8-wide} answered as if d were 4. Both
// now ask Checkpoint.Model, which refuses widths no base dimension produces;
// what `hetkg train -save` writes for the 2d-wide models still loads.
func TestMismatchedCheckpointIsRefused(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		model    string
		ent, rel int
	}{
		{"rotate", 8, 8},    // relations must be d = 4 wide
		{"transh", 8, 8},    // relations must be 2d = 16 wide
		{"complex", 8, 4},   // relations must be 2d = 8 wide
		{"complex", 7, 7},   // no d has 2d = 7
		{"transe", 16, 8},   // tables of different widths
		{"rescal", 4, 4},    // relations must be d² = 16 wide
		{"transe_l2", 8, 9}, // relation wider than entity
	} {
		ck := &hetkg.Checkpoint{
			ModelName: c.model, Dim: c.ent, Dataset: "fb15k", Scale: "tiny", Seed: 42,
			Entities: vec.NewMatrix(100, c.ent), Relations: vec.NewMatrix(4, c.rel),
		}
		wantErr := func(where string, err error) {
			t.Helper()
			if err == nil {
				t.Errorf("%s accepted %s over %d-wide entities and %d-wide relations", where, c.model, c.ent, c.rel)
				return
			}
			m, _ := hetkg.NewModel(c.model)
			for _, part := range []string{m.Name(), "width " + strconv.Itoa(c.ent), "width " + strconv.Itoa(c.rel)} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%s: error %q does not name %q", where, err, part)
				}
			}
		}
		_, err := hetkg.NewQueryServer(hetkg.QueryServerConfig{Checkpoint: ck})
		wantErr("serve.New", err)

		path := filepath.Join(dir, c.model+".ckpt")
		if err := hetkg.WriteCheckpoint(path, ck); err != nil {
			t.Fatal(err)
		}
		var out, errb strings.Builder
		if code := run([]string{"eval", "-ckpt", path, "-max", "5"}, &out, &errb); code != 1 {
			t.Errorf("eval of %s over %d/%d-wide tables exited %d, want 1\n%s", c.model, c.ent, c.rel, code, out.String())
		}
		wantErr("hetkg eval", errors.New(errb.String()))
	}

	for _, name := range []string{"complex", "rotate"} {
		path := filepath.Join(dir, name+"-trained.ckpt")
		var out, errb strings.Builder
		if code := run([]string{"train", "-scale", "tiny", "-model", name, "-dim", "8", "-epochs", "1", "-machines", "2", "-save", path}, &out, &errb); code != 0 {
			t.Fatalf("train -model %s exited %d: %s", name, code, errb.String())
		}
		if code := run([]string{"eval", "-ckpt", path, "-max", "20"}, &out, &errb); code != 0 {
			t.Errorf("eval of a trained %s checkpoint exited %d: %s", name, code, errb.String())
		}
		ck, err := hetkg.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Entities.Dim != 16 || ck.Dim != 16 {
			t.Errorf("%s at -dim 8: entity width %d, recorded Dim %d; want 16 and 16 (Dim stores the table width)", name, ck.Entities.Dim, ck.Dim)
		}
		srv, err := hetkg.NewQueryServer(hetkg.QueryServerConfig{Checkpoint: ck})
		if err != nil {
			t.Fatalf("serving a trained %s checkpoint: %v", name, err)
		}
		if _, err := srv.ScoreTriple(0, 0, 1); err != nil {
			t.Errorf("%s ScoreTriple: %v", name, err)
		}
		if res, err := srv.PredictInto(nil, 0, 0, true, 3); err != nil || len(res) != 3 {
			t.Errorf("%s PredictInto: %v, %v", name, res, err)
		}
		srv.Close()
	}
}
