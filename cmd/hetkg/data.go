package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hetkg"
	"hetkg/internal/kg"
	"hetkg/internal/plan"
)

func bindData(fs *flag.FlagSet) action {
	var rc hetkg.RunConfig
	plan.BindIdentity(fs, &rc, &rc.Dataset, &rc.Scale, &rc.Seed)
	out := fs.String("out", "", "write triples as TSV to this file")
	stats := fs.Bool("stats", true, "print structural statistics")
	return func(stdout, stderr io.Writer) int {
		rc.Normalize() // the graph `hetkg train` with these flags trains: -seed 0 means 42
		g, err := loadGraph("", rc.Dataset, rc.Scale, rc.Seed)
		if err != nil {
			return failf(stderr, 2, "%v", err)
		}
		if *stats {
			s := g.ComputeStats()
			fmt.Fprintf(stdout, "dataset         %s (scale=%s seed=%d)\n", g.Name, rc.Scale, rc.Seed)
			fmt.Fprintf(stdout, "entities        %d\n", s.NumEntity)
			fmt.Fprintf(stdout, "relations       %d\n", s.NumRel)
			fmt.Fprintf(stdout, "triples         %d\n", s.NumTriples)
			fmt.Fprintf(stdout, "max degree      %d\n", s.MaxEntityDegree)
			fmt.Fprintf(stdout, "mean degree     %.2f\n", s.MeanEntityDegree)
			fmt.Fprintf(stdout, "top1%% entities  %.1f%% of entity usage\n", 100*s.Top1PctEntityShare)
			fmt.Fprintf(stdout, "top1%% relations %.1f%% of relation usage\n", 100*s.Top1PctRelationShare)
			fmt.Fprintln(stdout, "(paper Fig. 2: access frequency is heavily skewed; relations hotter than entities)")
		}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return failf(stderr, 1, "create: %v", err)
			}
			if err := kg.WriteTSV(f, g); err != nil {
				f.Close()
				return failf(stderr, 1, "write: %v", err)
			}
			if err := f.Close(); err != nil {
				return failf(stderr, 1, "write: %v", err)
			}
			fmt.Fprintf(stdout, "wrote %d triples to %s\n", g.NumTriples(), *out)
		}
		return 0
	}
}
