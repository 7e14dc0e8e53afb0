package train

import (
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/model"
	"hetkg/internal/opt"
	"hetkg/internal/partition"
	"hetkg/internal/sampler"
)

// Every registered model must train end-to-end (loss decreasing) on the
// HET-KG system — scoring, analytic gradients, variable row widths
// (TransH/RESCAL relations), cache updates, and PS pushes all composed.
func TestAllModelsTrainEndToEnd(t *testing.T) {
	for _, name := range model.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 2)
			cfg.Epochs = 2
			cfg.EvalEvery = -1
			cfg.Dim = 8 // RESCAL relations are d², keep it cheap
			m, err := model.New(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Model = m
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("HET-KG(%s): %v", name, err)
			}
			if res.Epochs[1].Loss >= res.Epochs[0].Loss {
				t.Errorf("%s loss did not decrease: %.4f → %.4f",
					name, res.Epochs[0].Loss, res.Epochs[1].Loss)
			}
			if res.Relations.Dim != m.RelationDim(cfg.Dim) {
				t.Errorf("%s relation table width %d, want %d",
					name, res.Relations.Dim, m.RelationDim(cfg.Dim))
			}
		})
	}
}

func TestMultipleWorkersPerMachine(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.WorkersPerMachine = 2
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("HET-KG 2x2 workers: %v", err)
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Error("loss did not decrease with 4 workers")
	}
	if res.HitRatio <= 0 {
		t.Error("caches never hit with multiple workers per machine")
	}
}

func TestQuantizedTraining(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 2
	exact, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := testConfig(t, 2)
	q.Epochs = 2
	q.Codec = "int8"
	quant, err := Run(q)
	if err != nil {
		t.Fatalf("quantized training: %v", err)
	}
	if quant.Traffic.RemoteBytes >= exact.Traffic.RemoteBytes {
		t.Errorf("quantized remote bytes %d not below exact %d",
			quant.Traffic.RemoteBytes, exact.Traffic.RemoteBytes)
	}
	if quant.Epochs[1].Loss >= quant.Epochs[0].Loss {
		t.Error("quantized training did not learn")
	}
	// Quality within a tolerant band of the exact run.
	if quant.Final.MRR < exact.Final.MRR*0.6 {
		t.Errorf("8-bit quantization collapsed MRR: %.3f vs %.3f",
			quant.Final.MRR, exact.Final.MRR)
	}
}

func TestAlternativeOptimizers(t *testing.T) {
	for _, name := range []string{"sgd", "adam"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 2)
			cfg.Epochs = 2
			cfg.EvalEvery = -1
			if name == "sgd" {
				cfg.LR = 0.05 // plain SGD needs a gentler rate
			}
			lr := cfg.LR
			cfg.NewOptimizer = func() opt.Optimizer {
				o, err := opt.New(name, float32(lr))
				if err != nil {
					t.Fatal(err)
				}
				return o
			}
			cfg.System = SystemDGLKE
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("DGL-KE(%s): %v", name, err)
			}
			if res.Epochs[1].Loss >= res.Epochs[0].Loss {
				t.Errorf("%s loss did not decrease: %.4f → %.4f",
					name, res.Epochs[0].Loss, res.Epochs[1].Loss)
			}
		})
	}
}

func TestAlternativePartitioners(t *testing.T) {
	for _, name := range []string{"random", "ldg"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 4)
			cfg.Epochs = 1
			cfg.EvalEvery = -1
			p, err := partition.New(name, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Partitioner = p
			if _, err := Run(cfg); err != nil {
				t.Fatalf("HET-KG with %s partitioner: %v", name, err)
			}
		})
	}
}

func TestRankingLossTraining(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Loss = model.RankingLoss{Margin: 1}
	cfg.Epochs = 2
	cfg.EvalEvery = -1
	cfg.System = SystemDGLKE
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("ranking-loss training: %v", err)
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Errorf("ranking loss did not decrease: %.4f → %.4f",
			res.Epochs[0].Loss, res.Epochs[1].Loss)
	}
}

func TestEmptyMachineTolerated(t *testing.T) {
	// With more machines than densely-connected regions, a machine can end
	// up with zero triples; training must proceed with the workers that
	// have data while the empty machine's shard keeps serving.
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	// Force a degenerate partition: everything on machine 0.
	cfg.Partitioner = &allOnZero{}
	cfg.System = SystemDGLKE
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("degenerate partition: %v", err)
	}
	if len(res.Epochs) != 1 {
		t.Error("epoch not recorded")
	}
}

// allOnZero assigns every entity (and thus every triple) to machine 0,
// leaving the other machines' shards empty of entities.
type allOnZero struct{}

func (*allOnZero) Name() string { return "all-on-zero" }

func (*allOnZero) Partition(g *kg.Graph, k int) (*partition.Result, error) {
	r := &partition.Result{K: k, EntityPart: make([]int32, g.NumEntity)}
	r.TripleIdx = make([][]int32, k)
	for i := range g.Triples {
		r.TripleIdx[0] = append(r.TripleIdx[0], int32(i))
	}
	return r, nil
}

func TestNegativeWeights(t *testing.T) {
	weights := func(scores []float32, temp float32) []float32 {
		out := make([]float32, len(scores))
		negativeWeightsInto(out, scores, temp)
		return out
	}
	// temp = 0: uniform.
	w := weights([]float32{1, 2, 3}, 0)
	for _, v := range w {
		if !approxF32(v, 1.0/3) {
			t.Fatalf("uniform weights = %v", w)
		}
	}
	// temp > 0: sums to 1, monotone in score.
	w = weights([]float32{-1, 0, 5}, 1)
	var sum float32
	for _, v := range w {
		sum += v
	}
	if !approxF32(sum, 1) {
		t.Errorf("weights sum to %v", sum)
	}
	if !(w[2] > w[1] && w[1] > w[0]) {
		t.Errorf("weights not monotone in score: %v", w)
	}
	// Numerical stability with huge scores.
	w = weights([]float32{1e8, 1e8 - 1}, 1)
	if w[0] <= 0 || w[0] > 1 || w[0] != w[0] {
		t.Errorf("unstable weights: %v", w)
	}
	if len(weights(nil, 1)) != 0 {
		t.Error("empty scores should give empty weights")
	}
}

func TestAdversarialTraining(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.AdversarialTemp = 1
	cfg.Epochs = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("adversarial training: %v", err)
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Errorf("adversarial loss did not decrease: %.4f → %.4f",
			res.Epochs[0].Loss, res.Epochs[1].Loss)
	}
	if res.Final.MRR < 0.1 {
		t.Errorf("adversarial MRR %.3f too low", res.Final.MRR)
	}
}

func approxF32(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-5
}

func TestDegreeWeightedNegativeTraining(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 2
	cfg.EvalEvery = -1
	cfg.NegativeWeights = sampler.DegreeWeights(cfg.Train.EntityDegrees())
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("degree-weighted training: %v", err)
	}
	if res.Epochs[1].Loss >= res.Epochs[0].Loss {
		t.Errorf("loss did not decrease: %.4f → %.4f", res.Epochs[0].Loss, res.Epochs[1].Loss)
	}
}
