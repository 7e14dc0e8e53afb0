package train

import (
	"os"
	"sync"
	"testing"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/telemetry"
)

// elasticMembership builds an in-process coordinator with a fast heartbeat
// so tests finish quickly.
func elasticMembership(t *testing.T, parts int) *ps.Membership {
	t.Helper()
	m, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     parts,
		HeartbeatEvery: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runElastic joins ec.Coordinator as ec.Label, preferring the given
// partitions, and runs cfg as that elastic worker.
func runElastic(cfg Config, ec ElasticConfig, preferred ...int) (*Result, error) {
	join, err := ec.Coordinator.Join(ps.JoinRequest{Label: ec.Label, Preferred: preferred})
	if err != nil {
		return nil, err
	}
	ec.Join = join
	cfg.Elastic = &ec
	return Run(cfg)
}

func TestElasticSingleWorkerTrains(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	m := elasticMembership(t, 2)
	res, err := runElastic(cfg, ElasticConfig{Coordinator: m, Label: "solo"})
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if res.System != "HET-KG-C/elastic" {
		t.Errorf("System = %q", res.System)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Fatalf("recorded %d epochs, want %d", len(res.Epochs), cfg.Epochs)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first {
		t.Errorf("loss did not decrease: %.4f → %.4f", first, last)
	}
	if res.Final.MRR < 0.15 {
		t.Errorf("final MRR = %.3f, want > 0.15", res.Final.MRR)
	}
	if !m.AllDone() {
		t.Error("coordinator does not agree the run finished")
	}
}

// TestElasticShipsTelemetry runs a solo elastic worker against a
// coordinator with a fleet aggregator and asserts the worker's registry
// snapshots arrived: piggybacked on heartbeats, labeled with the worker's
// role and label, carrying the live training counters.
func TestElasticShipsTelemetry(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	fleet := telemetry.NewFleet(telemetry.FleetConfig{})
	m, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     2,
		HeartbeatEvery: 5 * time.Millisecond,
		Telemetry:      fleet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runElastic(cfg, ElasticConfig{Coordinator: m, Label: "solo"}); err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	v := fleet.View()
	if len(v.Processes) != 1 {
		t.Fatalf("fleet processes = %+v, want the one worker", v.Processes)
	}
	p := v.Processes[0]
	if p.ID != "worker/solo" || p.Role != telemetry.RoleWorker {
		t.Fatalf("process = %+v", p)
	}
	if p.Reports < 1 {
		t.Fatalf("reports = %d, want >= 1", p.Reports)
	}
	// The last shipped snapshot carried the training counters.
	iters := cfg.Metrics.Counter(metrics.MTrainIterations).Value()
	if iters == 0 {
		t.Fatal("no iterations trained")
	}
}

// TestElasticTelemetryDisabledWithoutAggregator pins the refusal path: a
// coordinator without a Fleet rejects the first report and the worker
// silently stops shipping instead of failing the run.
func TestElasticTelemetryDisabledWithoutAggregator(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	m := elasticMembership(t, 2)
	if _, err := runElastic(cfg, ElasticConfig{Coordinator: m, Label: "mute"}); err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if !m.AllDone() {
		t.Error("run did not finish")
	}
}

// TestElasticResumeFromSnapshot pre-seeds the checkpoint directory as a
// crashed worker would have left it — partition 0 fully done, partition 1
// mid-run — and asserts the adopting process resumes rather than restarts,
// leaves fresh Done snapshots behind, and still completes the run.
func TestElasticResumeFromSnapshot(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	dir := t.TempDir()
	writeProg := func(p ckpt.Progress) {
		t.Helper()
		if err := ckpt.WriteProgressFile(dir, &p); err != nil {
			t.Fatal(err)
		}
	}
	writeProg(ckpt.Progress{Partition: 0, Epoch: cfg.Epochs, Done: true,
		Dataset: cfg.Dataset, Seed: cfg.Seed})
	writeProg(ckpt.Progress{Partition: 1, Epoch: 2, Iteration: 1,
		Dataset: cfg.Dataset, Seed: cfg.Seed})

	cfg.CkptDir, cfg.CkptEvery = dir, 4
	m := elasticMembership(t, 2)
	res, err := runElastic(cfg, ElasticConfig{Coordinator: m, Label: "resumer"})
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if res.Final.MRR <= 0 {
		t.Errorf("final MRR = %.3f after resume", res.Final.MRR)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptResumes).Value(); got < 1 {
		t.Errorf("cluster.ckpt_resumes = %d, want >= 1", got)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptWrites).Value(); got < 1 {
		t.Errorf("cluster.ckpt_writes = %d, want >= 1", got)
	}
	// The run's own snapshots must mark partition 1 done at the end.
	snap, err := ckpt.ReadProgressFile(dir, 1)
	if err != nil {
		t.Fatalf("final snapshot: %v", err)
	}
	if !snap.Done {
		t.Errorf("final snapshot for partition 1 = %+v, want Done", snap)
	}
}

// TestElasticIgnoresForeignAndCorruptSnapshots: a snapshot from another
// run's seed and a truncated file are both skipped (counted as corrupt) and
// training starts from the coordinator's hint instead of failing.
func TestElasticIgnoresForeignAndCorruptSnapshots(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	dir := t.TempDir()
	if err := ckpt.WriteProgressFile(dir, &ckpt.Progress{
		Partition: 0, Epoch: 2, Dataset: cfg.Dataset, Seed: cfg.Seed + 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt.ProgressPath(dir, 1),
		[]byte("HETKG-PROG-v1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.RecoverFrom = dir
	m := elasticMembership(t, 2)
	res, err := runElastic(cfg, ElasticConfig{Coordinator: m, Label: "skeptic"})
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Value(); got != 2 {
		t.Errorf("cluster.ckpt_corrupt = %d, want 2", got)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Errorf("recorded %d epochs, want %d (full restart from epoch 1)", len(res.Epochs), cfg.Epochs)
	}
}

// TestElasticTwoWorkersSplitThePartitions runs two elastic worker drivers
// concurrently against one coordinator: each keeps its preferred partition,
// both observe the cluster-wide completion, and neither errors.
func TestElasticTwoWorkersSplitThePartitions(t *testing.T) {
	m := elasticMembership(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]*Result, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := testConfig(t, 2)
			cfg.Dataset = "traintest"
			results[i], errs[i] = runElastic(cfg, ElasticConfig{
				Coordinator: m,
				Label:       "peer",
			}, i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !m.AllDone() {
		t.Error("cluster did not finish")
	}
	for i, res := range results {
		if res == nil || res.Final.MRR <= 0 {
			t.Errorf("worker %d has no final evaluation: %+v", i, res)
		}
	}
}

// TestElasticReadoptedPartitionRebuildsCPSTable drives one elastic process
// through losing a partition it had already built a CPS hot table for and
// getting it back: a late joiner preempts the partition (the coordinator
// has heard no progress for it yet), then expires under the fake clock, and
// the partition returns. Re-adoption builds a fresh worker with an empty
// HotCache, so the one-shot CPS build must run again — if "already built"
// outlives the worker, the partition trains uncached for the rest of the
// run.
func TestElasticReadoptedPartitionRebuildsCPSTable(t *testing.T) {
	now := time.Unix(0, 0)
	m, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     2,
		HeartbeatEvery: time.Second,
		WorkerTimeout:  3 * time.Second,
		Now:            func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	join, err := m.Join(ps.JoinRequest{Label: "survivor"})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Elastic = &ElasticConfig{Coordinator: m, Join: join, Label: "survivor"}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	env, err := setupPS(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.tr.Close()
	e, err := newElastic(&cfg, env)
	if err != nil {
		t.Fatalf("newElastic: %v", err)
	}
	train := func(part, turns int) *worker {
		t.Helper()
		r := e.runners[part]
		if r == nil || r.w == nil {
			t.Fatalf("partition %d not held (runners %v)", part, e.sortedParts())
		}
		for i := 0; i < turns; i++ {
			if err := e.turn(part, r); err != nil {
				t.Fatal(err)
			}
		}
		return r.w
	}
	if first := train(0, 3); first.hot.Len() == 0 {
		t.Fatal("first owner never built its hot table")
	}

	// A second worker joins before any progress was reported: partition 0
	// is still preemptible and moves to it.
	if _, err := m.Join(ps.JoinRequest{Label: "late"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.heartbeat(); err != nil {
		t.Fatal(err)
	}
	if _, held := e.runners[0]; held {
		t.Fatal("partition 0 was not reassigned away")
	}

	// The late joiner never beats; once it expires the partition comes back.
	now = now.Add(10 * time.Second)
	if _, err := e.heartbeat(); err != nil {
		t.Fatal(err)
	}
	w := train(0, 3)
	if w.hot.Len() == 0 {
		t.Error("re-adopted partition trains with an empty hot table (CPS build did not rerun)")
	}
	if w.hot.HitRatio() == 0 {
		t.Error("re-adopted partition has a zero hit ratio")
	}
}
