package frame_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hetkg/internal/artifact"
	"hetkg/internal/ckpt"
	"hetkg/internal/dataset"
	"hetkg/internal/frame"
	"hetkg/internal/kg"
	"hetkg/internal/partition"
	"hetkg/internal/vec"
)

// goodFrames returns one intact frame of each durable file kind, keyed by
// its magic: an embedding checkpoint, a progress snapshot and an artifact
// cache entry, each written by its own package.
func goodFrames(f *testing.F) map[string][]byte {
	var ck, prog bytes.Buffer
	if err := ckpt.Write(&ck, &ckpt.Checkpoint{
		ModelName: "transe", Dim: 2, Dataset: "fb15k", Seed: 42, Epochs: 1, System: "DGL-KE",
		Entities: vec.NewMatrix(3, 2), Relations: vec.NewMatrix(1, 2),
	}); err != nil {
		f.Fatal(err)
	}
	if err := ckpt.WriteProgress(&prog, &ckpt.Progress{
		Partition: 1, Epoch: 2, Iteration: 3, Dataset: "fb15k", Seed: 42,
	}); err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	store, err := artifact.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	if err := store.Put("dataset", artifact.KeyOf("seed"), dataset.EncodeGraph(fuzzGraph)); err != nil {
		f.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil || len(entries) != 1 {
		f.Fatalf("artifact entries %v, %v", entries, err)
	}
	art, err := os.ReadFile(entries[0])
	if err != nil {
		f.Fatal(err)
	}
	frames := map[string][]byte{
		"HETKG-CKPT-v2\n": ck.Bytes(),
		"HETKG-PROG-v2\n": prog.Bytes(),
		"HETKG-ART-v2\n":  art,
	}
	for magic, raw := range frames {
		if _, err := frame.Decode(magic, raw); err != nil {
			f.Fatalf("seed frame for %q: %v", magic, err)
		}
	}
	return frames
}

// fuzzGraph is the graph the partition body decoder reads bodies for.
var fuzzGraph = kg.MustNewGraph("fuzz", 6, 2, []kg.Triple{
	{Head: 0, Relation: 0, Tail: 1}, {Head: 1, Relation: 1, Tail: 2}, {Head: 3, Relation: 0, Tail: 4}, {Head: 5, Relation: 1, Tail: 0},
})

// ckptV2 and ckptV1 are the two checkpoint magics ckpt.Read accepts: the
// framed format, and the older unframed one (magic, then the body).
const ckptV2, ckptV1 = "HETKG-CKPT-v2\n", "HETKG-CKPT-v1\n"

// oversizedCheckpoint is a 69-byte v2 checkpoint with a good checksum and
// header whose entity table declares 2^20 × 2^20 floats and holds none.
func oversizedCheckpoint() []byte {
	body := []byte(`{"model":"transe","dim":2}` + "\n")
	body = binary.LittleEndian.AppendUint64(body, 1<<20)
	body = binary.LittleEndian.AppendUint64(body, 1<<20)
	return frame.Encode(ckptV2, body)
}

// sameCheckpoint reports whether two checkpoints hold the same header and
// bit-identical tables.
func sameCheckpoint(a, b *ckpt.Checkpoint) bool {
	ha, hb := *a, *b
	ha.Entities, ha.Relations, hb.Entities, hb.Relations = nil, nil, nil, nil
	return ha == hb && sameMatrix(a.Entities, b.Entities) && sameMatrix(a.Relations, b.Relations)
}

func sameMatrix(a, b *vec.Matrix) bool {
	if a.Rows != b.Rows || a.Dim != b.Dim || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// FuzzFrameDecode feeds arbitrary bytes to frame.Decode under every file
// kind's magic, to ckpt.ReadProgress, which decodes a progress snapshot's
// JSON body out of its frame, to ckpt.Read three ways: as is, framed as
// a v2 checkpoint body, and behind the v1 magic, and to the two artifact
// body decoders, dataset.DecodeGraph and partition.DecodeResult (for
// fuzzGraph). Nothing may panic, and every frame and checkpoint error must
// wrap ErrCorrupt. A frame that decodes re-encodes to the same bytes, any
// input framed as a body decodes back to itself, a progress snapshot that
// reads re-writes to one that reads the same, and a checkpoint that reads
// yields Checkpoint.Model without a panic and re-writes to one that reads
// back equal. A decoded graph is one kg.NewGraph accepts and re-encodes to
// the input; a decoded partitioning places every entity in [0,K) and its
// Subgraphs build. The corpus starts from one good file of each kind, a
// bare checkpoint body, a checkpoint whose table header declares more data
// than the file holds, and one body from each artifact body encoder.
func FuzzFrameDecode(f *testing.F) {
	frames := goodFrames(f)
	for _, raw := range frames {
		f.Add(raw)
	}
	body, err := frame.Decode(ckptV2, frames[ckptV2])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Add(oversizedCheckpoint())
	f.Add(dataset.EncodeGraph(fuzzGraph))
	part, err := (&partition.Random{Seed: 1}).Partition(fuzzGraph, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(partition.EncodeResult(part))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if g, err := dataset.DecodeGraph(raw); err == nil {
			if _, err := kg.NewGraph(g.Name, g.NumEntity, g.NumRel, g.Triples); err != nil {
				t.Fatalf("DecodeGraph returned a graph NewGraph refuses: %v", err)
			}
			if !bytes.Equal(dataset.EncodeGraph(g), raw) {
				t.Fatal("DecodeGraph accepted a body that does not re-encode to itself")
			}
		}
		if r, err := partition.DecodeResult(fuzzGraph, raw); err == nil {
			for e, p := range r.EntityPart {
				if p < 0 || int(p) >= r.K {
					t.Fatalf("DecodeResult placed entity %d in partition %d of %d", e, p, r.K)
				}
			}
			if again, err := partition.DecodeResult(fuzzGraph, partition.EncodeResult(r)); err != nil || !reflect.DeepEqual(again, r) {
				t.Fatalf("partitioning %+v re-read as %+v, %v", r, again, err)
			}
			r.Subgraphs(fuzzGraph)
		}
		for _, in := range [][]byte{raw, frame.Encode(ckptV2, raw), append([]byte(ckptV1), raw...)} {
			c, err := ckpt.Read(bytes.NewReader(in))
			if err != nil {
				if !errors.Is(err, frame.ErrCorrupt) {
					t.Fatalf("ckpt.Read: error %v does not wrap ErrCorrupt", err)
				}
				continue
			}
			c.Model() // an error is fine; a panic is not
			var again bytes.Buffer
			if err := ckpt.Write(&again, c); err != nil {
				t.Fatalf("ckpt.Read accepted a checkpoint Write refuses: %v", err)
			}
			if d, err := ckpt.Read(&again); err != nil || !sameCheckpoint(c, d) {
				t.Fatalf("checkpoint %+v re-read as %+v, %v", *c, d, err)
			}
		}

		for magic := range frames {
			body, err := frame.Decode(magic, raw)
			if err != nil && !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("Decode(%q): error %v does not wrap ErrCorrupt", magic, err)
			}
			if err == nil && !bytes.Equal(frame.Encode(magic, body), raw) {
				t.Fatalf("Decode(%q) accepted a frame that does not re-encode to itself", magic)
			}
			if got, err := frame.Decode(magic, frame.Encode(magic, raw)); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("Encode→Decode(%q) of %d bytes: %v", magic, len(raw), err)
			}
		}
		p, err := ckpt.ReadProgress(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, frame.ErrCorrupt) {
				t.Fatalf("ReadProgress: error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var again bytes.Buffer
		if err := ckpt.WriteProgress(&again, p); err != nil {
			t.Fatal(err)
		}
		q, err := ckpt.ReadProgress(&again)
		if err != nil || *q != *p {
			t.Fatalf("progress %+v re-read as %+v, %v", *p, q, err)
		}
	})
}
