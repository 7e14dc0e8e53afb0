// Package ckpt serializes trained embedding checkpoints: a self-describing
// header (model, dimension, dataset provenance) followed by the entity and
// relation matrices in the vec binary format, inside the checksummed
// internal/frame container. Checkpoints let a training run's output feed the
// evaluation tool, downstream applications, or a resumed run without
// retraining.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hetkg/internal/frame"
	"hetkg/internal/model"
	"hetkg/internal/vec"
)

// magic identifies checkpoint files and versions the format. v1 files — the
// same body after the magic, with no length or checksum — still load.
const (
	magic   = "HETKG-CKPT-v2\n"
	magicV1 = "HETKG-CKPT-v1\n"
)

// ErrCorrupt reports a checkpoint or progress snapshot that exists but
// cannot be trusted: truncated mid-write, bad checksum, or not one of ours
// at all. Callers match with errors.Is; progress readers fall back to a
// coarser resume point.
var ErrCorrupt = frame.ErrCorrupt

// Checkpoint is a trained model's persistent state.
type Checkpoint struct {
	// ModelName is the model registry name the embeddings were trained
	// with ("transe", ...). Scoring requires the same model.
	ModelName string `json:"model"`
	// Dim is informational: `hetkg train -save` stores the entity table's
	// width here, which is the base dimension d for TransE-like models and
	// 2d for ComplEx and RotatE. Nothing may size a buffer from it; the
	// tables carry their own widths and Model checks them.
	Dim int `json:"dim"`
	// Dataset, Scale and Seed record provenance: the preset graph the run
	// trained on is regenerated from them. Scale is empty for a graph that
	// is not a preset and in files written before it was recorded.
	Dataset string `json:"dataset"`
	Scale   string `json:"scale,omitempty"`
	Seed    int64  `json:"seed"`
	// Epochs is how many epochs produced these embeddings.
	Epochs int `json:"epochs"`
	// System is which trainer produced them ("HET-KG-D", ...).
	System string `json:"system"`

	// Entities and Relations are the embedding tables (not serialized in
	// the JSON header; they follow it in binary form).
	Entities  *vec.Matrix `json:"-"`
	Relations *vec.Matrix `json:"-"`
}

// Validate reports whether the checkpoint is writable.
func (c *Checkpoint) Validate() error {
	if c.Entities == nil || c.Relations == nil {
		return fmt.Errorf("ckpt: missing embedding tables")
	}
	if c.ModelName == "" {
		return fmt.Errorf("ckpt: missing model name")
	}
	if c.Dim <= 0 {
		return fmt.Errorf("ckpt: non-positive dim %d", c.Dim)
	}
	return nil
}

// Model returns the scoring model the checkpoint names, after checking that
// the tables are ones that model can have produced: some base dimension
// gives exactly these entity and relation widths. A header naming one model
// over another model's tables would otherwise load and then index past a
// row, or score the wrong halves of it, on the first query.
func (c *Checkpoint) Model() (model.Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	m, err := model.New(c.ModelName)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if _, err := model.BaseDim(m, c.Entities.Dim, c.Relations.Dim); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return m, nil
}

// Write serializes the checkpoint.
func Write(w io.Writer, c *Checkpoint) error {
	body, err := c.encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(frame.Encode(magic, body)); err != nil {
		return fmt.Errorf("ckpt: writing checkpoint: %w", err)
	}
	return nil
}

// encode renders the frame body: the JSON header line, then both matrices.
func (c *Checkpoint) encode() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encoding header: %w", err)
	}
	body := bytes.NewBuffer(append(hdr, '\n'))
	body.Grow(2*16 + 4*(len(c.Entities.Data)+len(c.Relations.Data))) // two matrix headers + float32s
	if _, err := c.Entities.WriteTo(body); err != nil {
		return nil, fmt.Errorf("ckpt: writing entities: %w", err)
	}
	if _, err := c.Relations.WriteTo(body); err != nil {
		return nil, fmt.Errorf("ckpt: writing relations: %w", err)
	}
	return body.Bytes(), nil
}

// Read deserializes a checkpoint written by Write. A damaged file returns
// an error wrapping ErrCorrupt.
func Read(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading checkpoint: %w", err)
	}
	body, legacy := bytes.CutPrefix(raw, []byte(magicV1))
	if !legacy {
		if body, err = frame.Decode(magic, raw); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(body))
	hdr, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading header: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(hdr, &c); err != nil {
		return nil, fmt.Errorf("ckpt: decoding header: %w", err)
	}
	if c.Entities, err = vec.ReadMatrix(br); err != nil {
		return nil, fmt.Errorf("ckpt: reading entities: %w", err)
	}
	if c.Relations, err = vec.ReadMatrix(br); err != nil {
		return nil, fmt.Errorf("ckpt: reading relations: %w", err)
	}
	return &c, nil
}

// WriteFile writes the checkpoint to path atomically, so a crash never
// leaves a torn checkpoint.
func WriteFile(path string, c *Checkpoint) error {
	body, err := c.encode()
	if err != nil {
		return err
	}
	if err := frame.WriteFile(path, magic, body); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// ReadFile loads a checkpoint from path.
func ReadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening checkpoint: %w", err)
	}
	defer f.Close()
	return Read(f)
}
