package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"hetkg"
	"hetkg/internal/plan"
	"hetkg/internal/plan/benchfmt"
)

func bindExp(fs *flag.FlagSet) action {
	var rc hetkg.RunConfig
	plan.BindIdentity(fs, &rc, &rc.Scale, &rc.Seed)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		exp     = fs.String("exp", "all", "comma-separated experiment ids, or \"all\"")
		verbose = fs.Bool("v", false, "log progress")
		tlDir   = fs.String("timeline", "", "write one JSONL timeline per training run into this directory")
		bench   = fs.String("bench-out", "", "write one hetkg-bench/v3 snapshot (BENCH_<exp>.json, every table cell as its exact value) per experiment into this directory")
	)
	spanDir, spanN := bindSpan(fs, "write one span dump per training run into this directory", "batch")
	return func(stdout, stderr io.Writer) int {
		if *list {
			for _, e := range hetkg.Experiments() {
				fmt.Fprintf(stdout, "%-22s %s\n", e.ID, e.Title)
			}
			return 0
		}

		ids := hetkg.ExperimentIDs()
		if *exp != "all" {
			ids = strings.Split(*exp, ",")
		}
		opts := hetkg.ExperimentOptions{Scale: rc.Scale, Seed: rc.Seed}
		opts.TimelineDir, opts.SpanDir, opts.SpanEvery = *tlDir, *spanDir, *spanN
		if *verbose {
			opts.Logf = logTo(stderr, "[bench] ")
		}

		failed := false
		fail := func(format string, args ...any) {
			failed = true
			fmt.Fprintf(stderr, format+"\n", args...)
		}
		for _, id := range ids {
			id = strings.TrimSpace(id)
			e, ok := hetkg.ExperimentByID(id)
			if !ok {
				fail("unknown experiment %q (use -list)", id)
				continue
			}
			start := time.Now()
			tab, err := e.Run(opts)
			if err != nil {
				fail("%s failed: %v", id, err)
				continue
			}
			if *bench != "" {
				path, err := benchfmt.WriteDir(*bench, tab.Snapshot())
				if err != nil {
					fail("%s snapshot: %v", id, err)
					continue
				}
				fmt.Fprintf(stderr, "[bench] %s snapshot -> %s\n", id, path)
			}
			if err := tab.Render(stdout); err != nil {
				fail("render: %v", err)
				continue
			}
			fmt.Fprintf(stdout, "(%s wall time: %v, scale=%s, seed=%d)\n\n",
				id, time.Since(start).Round(time.Millisecond), tab.Scale, tab.Seed)
		}
		if failed {
			return 1
		}
		return 0
	}
}
