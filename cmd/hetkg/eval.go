package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"

	"hetkg"
	"hetkg/internal/core"
	"hetkg/internal/eval"
	"hetkg/internal/kg"
)

func bindEval(fs *flag.FlagSet) action {
	var (
		ckptPath   = fs.String("ckpt", "", "checkpoint file written by hetkg train -save (required)")
		in         = fs.String("in", "", "TSV test triples (default: re-derive the preset's test split)")
		scale      = fs.String("scale", "", "scale of the provenance dataset (default: the one the checkpoint records; small for checkpoints that predate the record)")
		candidates = fs.Int("candidates", 0, "rank against this many sampled negatives (0 = all entities)")
		maxTriples = fs.Int("max", 1000, "maximum test triples to score (0 = all)")
		filtered   = fs.Bool("filtered", true, "exclude known positives from candidate rankings")
		task       = fs.String("task", "linkpred", "evaluation task: linkpred | classify")
		parallel   = fs.Int("parallelism", 0, "cores used to rank test triples (0 = all; results identical at any value)")
	)
	return func(stdout, stderr io.Writer) int {
		if *ckptPath == "" {
			return failf(stderr, 2, "-ckpt is required")
		}
		c, err := hetkg.ReadCheckpoint(*ckptPath)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		mdl, err := c.Model()
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		scale := cmp.Or(*scale, c.Scale, "small")
		sc, err := hetkg.ParseScale(scale)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		g, err := loadGraph(*in, c.Dataset, sc, c.Seed)
		if err != nil {
			return failf(stderr, 1, "%v (the checkpoint's dataset must be a preset unless test triples are passed with -in)", err)
		}
		test := g.Triples
		var filter *kg.TripleSet
		if *in != "" {
			filter = kg.NewTripleSet(test)
		} else {
			sp, err := core.Split(g, c.Seed)
			if err != nil {
				return failf(stderr, 1, "%v", err)
			}
			test, filter = sp.Test.Triples, sp.AllTriples()
		}
		// The graph is regenerated (or supplied) independently of the
		// checkpoint; ids beyond its tables mean the two do not belong
		// together, and scoring them would index out of range.
		if g.NumEntity > c.Entities.Rows || g.NumRel > c.Relations.Rows {
			return failf(stderr, 1, "test graph %s has %d entities and %d relations but the checkpoint's tables hold %d and %d: "+
				"it was not trained on this graph — most likely a different -scale (tried %q) or -in file than the training run's",
				g.Name, g.NumEntity, g.NumRel, c.Entities.Rows, c.Relations.Rows, scale)
		}
		if *maxTriples > 0 && len(test) > *maxTriples {
			test = test[:*maxTriples]
		}
		if !*filtered {
			filter = nil
		}

		cfg := hetkg.EvalConfig{
			Model:         mdl,
			Entities:      c.Entities,
			Relations:     c.Relations,
			Filter:        filter,
			NumCandidates: *candidates,
			Seed:          c.Seed + 99,
			Parallelism:   *parallel,
		}
		fmt.Fprintf(stdout, "checkpoint %s: model=%s dim=%d dataset=%s system=%s epochs=%d\n",
			*ckptPath, c.ModelName, c.Dim, c.Dataset, c.System, c.Epochs)
		switch *task {
		case "classify":
			// Use the first half of the test triples to learn thresholds and
			// the second half to measure accuracy.
			if len(test) < 4 {
				return failf(stderr, 1, "classify needs at least 4 test triples")
			}
			half := len(test) / 2
			cres, err := eval.Classify(cfg, test[:half], test[half:])
			if err != nil {
				return failf(stderr, 1, "classify: %v", err)
			}
			fmt.Fprintf(stdout, "triple classification over %d triples: accuracy %.3f (%d relations)\n",
				cres.N, cres.Accuracy, len(cres.PerRelation))
		default:
			res, err := hetkg.Evaluate(cfg, test)
			if err != nil {
				return failf(stderr, 1, "evaluate: %v", err)
			}
			fmt.Fprintf(stdout, "test triples: %d (%d rankings)\n", len(test), res.N)
			fmt.Fprintf(stdout, "%s | Hits@3 %.3f\n", res, res.Hits[3])
		}
		return 0
	}
}
