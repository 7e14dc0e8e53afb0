package main

import (
	"flag"
	"fmt"
	"io"

	"hetkg"
	"hetkg/internal/partition"
	"hetkg/internal/plan"
)

func bindPartition(fs *flag.FlagSet) action {
	var rc hetkg.RunConfig
	plan.BindIdentity(fs, &rc, &rc.Dataset, &rc.Scale, &rc.Seed)
	in := fs.String("in", "", "read triples from this TSV file instead of a preset")
	k := fs.Int("k", 4, "number of partitions")
	algo := fs.String("algo", "metis", "partitioner: metis | ldg | random")
	return func(stdout, stderr io.Writer) int {
		rc.Normalize() // as `hetkg train` partitions: -seed 0 means 42
		g, err := loadGraph(*in, rc.Dataset, rc.Scale, rc.Seed)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		p, err := partition.New(*algo, rc.Seed)
		if err != nil {
			return failf(stderr, 2, "%v", err)
		}
		res, err := p.Partition(g, *k)
		if err != nil {
			return failf(stderr, 1, "partition: %v", err)
		}

		fmt.Fprintf(stdout, "graph      %s: %d entities, %d relations, %d triples\n",
			g.Name, g.NumEntity, g.NumRel, g.NumTriples())
		fmt.Fprintf(stdout, "algorithm  %s, k=%d\n", p.Name(), *k)
		fmt.Fprintf(stdout, "edge cut   %d triples (%.1f%% cross-partition)\n",
			res.EdgeCut(g), 100*res.CutFraction(g))
		fmt.Fprintf(stdout, "balance    %.3f (max load / ideal load)\n", res.Balance())
		ents := make([]int, *k)
		for _, part := range res.EntityPart {
			ents[part]++
		}
		for i, idx := range res.TripleIdx {
			fmt.Fprintf(stdout, "  part %d: %d triples, %d entities\n", i, len(idx), ents[i])
		}
		return 0
	}
}
