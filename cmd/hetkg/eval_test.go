package main

import (
	"path/filepath"
	"strings"
	"testing"

	"hetkg"
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
