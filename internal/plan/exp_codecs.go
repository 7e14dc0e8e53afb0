package plan

import (
	"fmt"

	"hetkg/internal/core"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// Wire-codec sweep: the negotiated codec layer's headline numbers. One
// training run per codec profile on identical data and seeds, reporting the
// pull+push payload bytes before and after encoding (ps.codec.bytes_raw /
// ps.codec.bytes_wire), the wire bytes per iteration, wall time, and the
// final MRR — the compression-vs-convergence trade the profiles span. The
// delta-int8 row is the PR's acceptance claim: ≥3x smaller wire payloads
// than fp32 with no accuracy change.

func init() {
	register(Experiment{
		ID:    "codecs",
		Title: "Wire codec sweep: payload compression vs convergence per profile  [extension]",
		Run:   runCodecs,
	})
}

func runCodecs(o Options) (*Table, error) {
	// commDim keeps rows wide enough (>= 64 floats) that per-row codec
	// headers are noise; at tiny widths the 5-byte delta header eats the
	// int8 savings and no profile could show its asymptotic ratio.
	base := core.RunConfig{Dataset: "fb15k", System: core.SystemHETKGD, Dim: commDim(o), Machines: 4, Epochs: 2}
	t := &Table{
		Title:  "Wire codecs on fb15k-like (HET-KG-D, TransE)",
		Header: []string{"Codec", "RawMB", "WireMB", "Ratio", "B/iter", "Wall", "MRR"},
		Meta: map[string]string{
			"dataset":  base.Dataset,
			"model":    "transe",
			"system":   spelling(base.System),
			"dim":      fmt.Sprint(base.Dim),
			"machines": fmt.Sprint(base.Machines),
			"epochs":   fmt.Sprint(base.Epochs),
		},
	}
	t.Note("ratio = codec payload bytes before / after encoding (pull + push, per-row headers included)")
	t.Note("claim: delta-int8 >= 3x vs fp32's 1x with matching MRR; topk trades MRR noise for the sparsest pushes")
	// The table shows megabytes; the snapshot keeps the byte count.
	mb := func(key string, bytes int64) Cell {
		return Cell{Text: fmt.Sprintf("%.2f", float64(bytes)/1e6), Value: float64(bytes), Key: key}
	}
	return t, o.sweep(Plan{
		Base:  base,
		Sweep: []SweepAxis{axis("codec", ps.ProfileFP32, ps.ProfileFP16, ps.ProfileInt8, ps.ProfileDeltaInt8, ps.ProfileTopK)},
	}, func(r outcome) {
		res := r.Result
		raw := res.Metrics.Counter(metrics.MPSCodecBytesRaw).Value()
		wire := res.Metrics.Counter(metrics.MPSCodecBytesWire).Value()
		iters := res.Metrics.Counter(metrics.MTrainIterations).Value()
		ratio := 0.0
		if wire > 0 {
			ratio = float64(raw) / float64(wire)
		}
		perIter := 0.0
		if iters > 0 {
			perIter = float64(wire) / float64(iters)
		}
		perIterCell := Fmt("%.0f", perIter)
		perIterCell.Key = "bytes_per_iter"
		t.AddRow(r.Spec.Codec, mb("bytes_raw", raw), mb("bytes_wire", wire), Fmt("%.2fx", ratio),
			perIterCell, Dur(r.Wall).Wall(), res.Final.MRR)
	})
}
