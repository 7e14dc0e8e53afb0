package train

import (
	"testing"

	"hetkg/internal/eval"
)

// TestParallelismDeterministic pins the deterministic-parallelism contract:
// the same seed must produce bit-identical epoch losses and evaluation
// metrics whether the execution engine runs on one core or eight. Batch
// compute merges fixed shards in order and evaluation derives one RNG per
// ranking item, so nothing — not even the last float bit — may differ.
func TestParallelismDeterministic(t *testing.T) {
	run := func(system string, parallelism int) *Result {
		cfg := testConfig(t, 2)
		cfg.Epochs = 2
		cfg.Parallelism = parallelism
		var res *Result
		var err error
		if system == "hetkg" {
			res, err = cfg.run()
		} else {
			cfg.System = SystemDGLKE
			res, err = cfg.run()
		}
		if err != nil {
			t.Fatalf("%s (parallelism %d): %v", system, parallelism, err)
		}
		return res
	}
	for _, system := range []string{"dglke", "hetkg"} {
		t.Run(system, func(t *testing.T) {
			serial := run(system, 1)
			wide := run(system, 8)
			for i := range serial.Epochs {
				if serial.Epochs[i].Loss != wide.Epochs[i].Loss {
					t.Errorf("epoch %d loss differs: serial %v vs parallel %v",
						i+1, serial.Epochs[i].Loss, wide.Epochs[i].Loss)
				}
				if serial.Epochs[i].MRR != wide.Epochs[i].MRR {
					t.Errorf("epoch %d MRR differs: serial %v vs parallel %v",
						i+1, serial.Epochs[i].MRR, wide.Epochs[i].MRR)
				}
			}
			if serial.Final.MRR != wide.Final.MRR {
				t.Errorf("final MRR differs: serial %v vs parallel %v",
					serial.Final.MRR, wide.Final.MRR)
			}
			if serial.Final.MR != wide.Final.MR {
				t.Errorf("final MR differs: serial %v vs parallel %v",
					serial.Final.MR, wide.Final.MR)
			}
			for i := 0; i < serial.Entities.Rows; i++ {
				a, b := serial.Entities.Row(i), wide.Entities.Row(i)
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("entity %d dim %d differs: %v vs %v", i, j, a[j], b[j])
					}
				}
			}
		})
	}
}

// TestParallelEvalDeterministic checks the evaluator alone: sampled
// candidates derive from per-item RNGs, so any parallelism degree must
// produce the same Result.
func TestParallelEvalDeterministic(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.System = SystemDGLKE
	res, err := cfg.run()
	if err != nil {
		t.Fatal(err)
	}
	derived, err := cfg.derive()
	if err != nil {
		t.Fatal(err)
	}
	base := eval.Config{
		Model:         derived.model,
		Entities:      res.Entities,
		Relations:     res.Relations,
		Filter:        derived.filter,
		NumCandidates: 40,
		Seed:          99,
	}
	evalAt := func(p int) eval.Result {
		c := base
		c.Parallelism = p
		r, err := eval.Evaluate(c, derived.valid)
		if err != nil {
			t.Fatalf("Evaluate(parallelism %d): %v", p, err)
		}
		return r
	}
	serial := evalAt(1)
	for _, p := range []int{2, 4, 8} {
		wide := evalAt(p)
		if serial.MRR != wide.MRR || serial.MR != wide.MR || serial.N != wide.N {
			t.Errorf("parallelism %d: MRR/MR/N %v/%v/%d vs serial %v/%v/%d",
				p, wide.MRR, wide.MR, wide.N, serial.MRR, serial.MR, serial.N)
		}
		for k, v := range serial.Hits {
			if wide.Hits[k] != v {
				t.Errorf("parallelism %d: Hits@%d %v vs serial %v", p, k, wide.Hits[k], v)
			}
		}
	}
}
