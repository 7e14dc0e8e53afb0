package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hetkg/internal/frame"
)

// Partition progress snapshots are the elastic cluster's recovery records
// (DESIGN.md §11). The embeddings themselves survive a worker crash inside
// the parameter-server shards; what a crash loses is the dead worker's
// *position* — which epoch and iteration each of its partitions had
// reached. A worker therefore writes one tiny Progress file per owned
// partition every few iterations; whoever adopts the partition reads the
// snapshot, fast-forwards its deterministic sampler to that position, and
// resumes. Snapshots are advisory: when one is missing, torn, or corrupt,
// adoption falls back to the coordinator's last-heard progress (typed
// ErrCorrupt — never a panic — so the caller can count and continue).

// progMagic identifies progress snapshot files and versions the format.
const progMagic = "HETKG-PROG-v2\n"

// Progress is one partition's training position, durable across worker
// crashes. All fields are provenance-checked at restore: a snapshot from a
// different run (seed/dataset mismatch) is rejected as corrupt rather than
// silently resuming the wrong stream.
type Progress struct {
	// Partition is the partition (machine) index this snapshot belongs to.
	Partition int `json:"partition"`
	// Epoch is the 1-based epoch in progress.
	Epoch int `json:"epoch"`
	// Iteration is the number of completed iterations within Epoch.
	Iteration int `json:"iteration"`
	// Done records that every configured epoch has completed.
	Done bool `json:"done,omitempty"`
	// Dataset and Seed record provenance; restore verifies them.
	Dataset string `json:"dataset"`
	Seed    int64  `json:"seed"`
}

// WriteProgress serializes one snapshot: the JSON body in a checksummed
// frame that restore verifies.
func WriteProgress(w io.Writer, p *Progress) error {
	body, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("ckpt: encoding progress: %w", err)
	}
	if _, err := w.Write(frame.Encode(progMagic, body)); err != nil {
		return fmt.Errorf("ckpt: writing progress: %w", err)
	}
	return nil
}

// ReadProgress deserializes a snapshot written by WriteProgress. Torn,
// tampered, or foreign content returns an error wrapping ErrCorrupt.
func ReadProgress(r io.Reader) (*Progress, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading progress: %w", err)
	}
	body, err := frame.Decode(progMagic, raw)
	if err != nil {
		return nil, fmt.Errorf("ckpt: progress snapshot: %w", err)
	}
	var p Progress
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("%w: decoding body: %v", ErrCorrupt, err)
	}
	if p.Epoch < 1 || p.Iteration < 0 || p.Partition < 0 {
		return nil, fmt.Errorf("%w: implausible position (partition %d epoch %d iter %d)",
			ErrCorrupt, p.Partition, p.Epoch, p.Iteration)
	}
	return &p, nil
}

// ProgressPath names partition part's snapshot file under dir — the layout
// contract between the writer and whoever adopts the partition later.
func ProgressPath(dir string, part int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%03d.progress", part))
}

// WriteProgressFile atomically installs the snapshot for p.Partition under
// dir (same crash-safety contract as WriteFile), creating dir if needed.
func WriteProgressFile(dir string, p *Progress) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: creating progress dir: %w", err)
	}
	body, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("ckpt: encoding progress: %w", err)
	}
	if err := frame.WriteFile(ProgressPath(dir, p.Partition), progMagic, body); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	return nil
}

// ReadProgressFile loads partition part's snapshot from dir. A missing file
// returns an error satisfying os.IsNotExist (no snapshot yet — not
// corruption); anything unreadable wraps ErrCorrupt.
func ReadProgressFile(dir string, part int) (*Progress, error) {
	f, err := os.Open(ProgressPath(dir, part))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := ReadProgress(f)
	if err != nil {
		return nil, err
	}
	if p.Partition != part {
		return nil, fmt.Errorf("%w: file names partition %d, content says %d",
			ErrCorrupt, part, p.Partition)
	}
	return p, nil
}
