package ckpt

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetkg/internal/vec"
)

func sampleCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ents := vec.NewMatrix(10, 8)
	ents.InitXavier(rng)
	rels := vec.NewMatrix(3, 8)
	rels.InitXavier(rng)
	return &Checkpoint{
		ModelName: "transe",
		Dim:       8,
		Dataset:   "fb15k-like",
		Seed:      42,
		Epochs:    5,
		System:    "HET-KG-D",
		Entities:  ents,
		Relations: rels,
	}
}

func TestRoundTrip(t *testing.T) {
	c := sampleCheckpoint(t)
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.ModelName != c.ModelName || got.Dim != c.Dim || got.Dataset != c.Dataset ||
		got.Seed != c.Seed || got.Epochs != c.Epochs || got.System != c.System {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range c.Entities.Data {
		if got.Entities.Data[i] != c.Entities.Data[i] {
			t.Fatalf("entity datum %d differs", i)
		}
	}
	for i := range c.Relations.Data {
		if got.Relations.Data[i] != c.Relations.Data[i] {
			t.Fatalf("relation datum %d differs", i)
		}
	}
}

func TestFileRoundTripAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	c := sampleCheckpoint(t)
	if err := WriteFile(path, c); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Entities.Rows != 10 {
		t.Errorf("entities rows = %d", got.Entities.Rows)
	}
	// No temp litter left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(magic + "{bad json\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := Read(strings.NewReader(magic + "{}\n")); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := ReadFile("/nonexistent/path.ckpt"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestValidate(t *testing.T) {
	c := sampleCheckpoint(t)
	c.Entities = nil
	if err := Write(&bytes.Buffer{}, c); err == nil {
		t.Error("nil entities accepted")
	}
	c = sampleCheckpoint(t)
	c.ModelName = ""
	if err := Write(&bytes.Buffer{}, c); err == nil {
		t.Error("empty model accepted")
	}
	c = sampleCheckpoint(t)
	c.Dim = 0
	if err := Write(&bytes.Buffer{}, c); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestTruncatedFileFails(t *testing.T) {
	c := sampleCheckpoint(t)
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-10]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// TestBitFlipIsCorrupt flips one byte inside the matrix region of a saved
// checkpoint: the v1 layout had no checksum and loaded the damaged
// embeddings silently; v2 must refuse with a typed ErrCorrupt.
func TestBitFlipIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := WriteFile(path, sampleCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-40] ^= 0x01 // well inside the relation matrix, before the CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped checkpoint: error = %v, want ErrCorrupt", err)
	}
}

// TestReadsV1 keeps checkpoints written before the frame container (magic,
// header line, matrices; no length, no checksum) loadable.
func TestReadsV1(t *testing.T) {
	c := sampleCheckpoint(t)
	body, err := c.encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(append([]byte(magicV1), body...)))
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if got.ModelName != c.ModelName || got.Scale != "" || got.Entities.Rows != c.Entities.Rows ||
		got.Relations.Data[5] != c.Relations.Data[5] {
		t.Errorf("v1 checkpoint decoded wrong: %+v", got)
	}
}
