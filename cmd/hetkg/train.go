package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"hetkg"
	"hetkg/internal/plan"
)

// The run flags (dataset, model, cache, codec, ...) are the shared plan
// surface (plan.BindFlags) — bound straight to the core.RunConfig fields the
// plan-file `run:` keys name, with the same defaults — so train and `hetkg
// apply` cannot drift, and the run-identity subset of them is the very
// declaration `hetkg ps` binds. The flags declared here are deployment
// concerns (shards, checkpoints, observability) that plans never configure.
func bindTrain(fs *flag.FlagSet) action {
	rc := plan.BindFlags(fs)
	var (
		inFile   = fs.String("in", "", "train on TSV triples from this file instead of a preset")
		save     = fs.String("save", "", "write the trained embeddings to this checkpoint file")
		load     = fs.String("load", "", "resume training from this checkpoint file")
		shards   = fs.String("shards", "", "comma-separated shard (hetkg ps) addresses, one per machine, for a multi-process run")
		join     = fs.String("join", "", "coordinator address for an elastic cluster run (shard fleet is discovered from the join reply; see OPERATIONS.md)")
		ckptDir  = fs.String("ckpt-dir", "", "write per-partition progress snapshots to this directory for crash recovery (with -join)")
		ckptN    = fs.Int("ckpt-every", 0, "iterations between progress snapshots (0 = 16; with -join)")
		recoverD = fs.String("recover-from", "", "read adopted partitions' progress snapshots from this directory (default: -ckpt-dir)")
		rpcTO    = fs.Duration("rpc-timeout", 0, "per-attempt deadline on remote-shard RPCs (0 = default 10s, negative disables)")
		rpcRetry = fs.Int("rpc-retries", 0, "retry budget per remote-shard RPC after a link failure (0 = default 3, negative disables)")
		degStale = fs.Int("degraded-max-staleness", 0, "ride out shard outages by serving cached rows up to this many iterations stale and buffering pushes for replay (0 = fail fast; hetkg-c/hetkg-d only)")
		openArt  = bindArtifacts(fs, "")
		timeline = fs.String("timeline", "", "write the run's JSONL timeline to this file: one record per epoch plus one every -timeline-every iterations (hetkg trace compares them)")
		tlEvery  = fs.Int("timeline-every", 0, "iterations between timeline records (0 = default)")
		startObs = bindObs(fs)
		machine  = fs.Int("machine", -1, "run only this machine's workers (-1 = all; requires -shards for a real deployment); with -join, the partition this worker prefers")
	)
	spanOut, spanN := bindSpan(fs, "trace every Nth batch per worker and write the spans to this file", "batch")
	return func(stdout, stderr io.Writer) int {
		var err error
		if *inFile != "" {
			if rc.Graph, err = loadGraph(*inFile, "", 0, 0); err != nil {
				return failf(stderr, 1, "%v", err)
			}
			rc.Dataset = *inFile
		}
		// What the run prints and saves is what it trains: a flag left zero
		// means the default table's value (-seed 0 trains seed 42).
		rc.Normalize()
		if *shards != "" {
			rc.ShardAddrs = strings.Split(*shards, ",")
		}
		if *load != "" {
			if rc.Resume, err = hetkg.ReadCheckpoint(*load); err != nil {
				return failf(stderr, 1, "load: %v", err)
			}
			fmt.Fprintf(stdout, "resuming from %s (model=%s epochs=%d)\n", *load, rc.Resume.ModelName, rc.Resume.Epochs)
		}

		rc.Metrics = hetkg.NewMetricsRegistry()
		srv, err := startObs(rc.Metrics, stdout)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		if srv != nil {
			defer srv.Close()
		}
		if rc.Artifacts, err = openArt(); err != nil {
			return failf(stderr, 1, "artifacts: %v", err)
		}

		// Overlay the deployment-specific configuration onto the run flags.
		rc.JoinAddr = *join
		rc.CkptDir = *ckptDir
		rc.RecoverFrom = *recoverD
		rc.CkptEvery = *ckptN
		rc.ClusterLogf = logTo(stderr, "")
		rc.RPCTimeout = *rpcTO
		rc.RPCRetries = *rpcRetry
		rc.DegradedMaxStaleness = *degStale
		if *machine >= 0 {
			rc.LocalMachines = []int{*machine}
		}
		rc.TimelinePath = *timeline
		rc.TimelineEvery = *tlEvery
		rc.SpanPath, rc.SpanEvery = *spanOut, *spanN

		res, err := hetkg.Run(*rc)
		if err != nil {
			return failf(stderr, 1, "train: %v", err)
		}

		fmt.Fprintf(stdout, "system=%s dataset=%s scale=%s model=%s machines=%d seed=%d\n",
			res.System, rc.Dataset, rc.Scale, rc.ModelName, rc.Machines, rc.Seed)
		for _, e := range res.Epochs {
			fmt.Fprintf(stdout, "epoch %2d  loss %.4f  mrr %.3f  comp %v  comm %v  hit %.3f\n",
				e.Epoch, e.Loss, e.MRR, e.Comp.Round(1e6), e.Comm.Round(1e6), e.HitRatio)
		}
		fmt.Fprintf(stdout, "final: %s\n", res.Final)
		fmt.Fprintf(stdout, "time: comp %v + comm %v = %v (simulated cluster time)\n",
			res.Comp.Round(1e6), res.Comm.Round(1e6), res.Total().Round(1e6))
		fmt.Fprintf(stdout, "traffic: %s\n", res.Traffic)
		if res.HitRatio > 0 {
			fmt.Fprintf(stdout, "cache: hit ratio %.3f, refreshed rows %d\n", res.HitRatio, res.RefreshRows)
		}
		if *timeline != "" {
			fmt.Fprintf(stdout, "timeline written to %s\n", *timeline)
		}
		if *spanOut != "" {
			fmt.Fprintf(stdout, "spans written to %s\n", *spanOut)
			fmt.Fprintf(stdout, "analyze with: hetkg trace spans %s (Perfetto view: hetkg trace chrome %s)\n", *spanOut, *spanOut)
		}
		if *save != "" {
			scale := rc.Scale.String()
			if *inFile != "" {
				scale = "" // a triples file has no preset scale to regenerate from
			}
			err := hetkg.WriteCheckpoint(*save, &hetkg.Checkpoint{
				ModelName: rc.ModelName,
				Dim:       res.Entities.Dim,
				Dataset:   rc.Dataset,
				Scale:     scale,
				Seed:      rc.Seed,
				Epochs:    len(res.Epochs),
				System:    res.System,
				Entities:  res.Entities,
				Relations: res.Relations,
			})
			if err != nil {
				return failf(stderr, 1, "save: %v", err)
			}
			fmt.Fprintf(stdout, "checkpoint written to %s\n", *save)
		}
		return 0
	}
}
