package train

import (
	"math"
	"strings"
	"testing"
	"time"

	"hetkg/internal/ckpt"
	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// TestRunPicksTheSystem: Run trains whichever of the four systems
// RunConfig.System names, and the system decides the hot table — DGL-KE looks
// nothing up in one, and HET-KG-D's rebuild every D iterations re-pulls
// more rows than HET-KG-C's one-shot build.
func TestRunPicksTheSystem(t *testing.T) {
	res := map[System]*Result{}
	for _, sys := range Systems() {
		cfg := testConfig(t, 2)
		cfg.Epochs = 2
		cfg.EvalEvery = -1
		cfg.CachePrefetchD = 8
		cfg.System = sys
		r, err := cfg.run()
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if r.System != string(sys) {
			t.Errorf("Run with System %s reports %q", sys, r.System)
		}
		res[sys] = r
	}
	if got := res[SystemDGLKE].CacheAccesses; got != 0 {
		t.Errorf("DGL-KE made %d hot-table lookups, want 0", got)
	}
	c, d := res[SystemHETKGC].RefreshRows, res[SystemHETKGD].RefreshRows
	if c == 0 || d <= c {
		t.Errorf("refreshed rows: HET-KG-D %d, HET-KG-C %d; want D's rebuilds above C's one build", d, c)
	}
}

// TestElasticRefusesPBG: PBG has no parameter-server driver, so a run
// that asks for it as an elastic worker is refused by name before anything
// is built.
func TestElasticRefusesPBG(t *testing.T) {
	m := elasticMembership(t, 2)
	cfg := testConfig(t, 2)
	cfg.System = SystemPBG
	cfg.hooks.coordinator, cfg.hooks.label = m, "pbg"
	if _, err := cfg.derive(); err == nil || !strings.Contains(err.Error(), "PBG") || !strings.Contains(err.Error(), "elastic") {
		t.Fatalf("derive = %v, want a refusal naming PBG and elastic mode", err)
	}
}

// TestElasticRefusesForeignPartitionCount: a coordinator that runs another
// number of partitions than this process has machines trains another run's
// layout, and the worker refuses to join its training.
func TestElasticRefusesForeignPartitionCount(t *testing.T) {
	cfg := testConfig(t, 2)
	_, err := runElastic(cfg, elasticMembership(t, 3), "foreign")
	if err == nil || !strings.Contains(err.Error(), "3 partitions") {
		t.Fatalf("elastic run against a 3-partition coordinator: %v, want a refusal naming its 3 partitions", err)
	}
}

// TestElasticSoloMatchesStatic: an elastic process that holds every
// partition trains exactly what the static trainer trains on the same
// run — the same driver, the same turn order. The partitions have
// unequal iterations per epoch, so the order depends on the epoch barrier,
// and the process heartbeats before nearly every turn, so it would depend
// on the clock if a beat could reorder turns. Only per-epoch MRR (elastic
// runs evaluate at the end) and the wall-clock fields are left out.
func TestElasticSoloMatchesStatic(t *testing.T) {
	for _, sys := range []System{SystemDGLKE, SystemHETKGC, SystemHETKGD} {
		t.Run(string(sys), func(t *testing.T) {
			cfg := testConfig(t, 3)
			cfg.Dataset = "traintest"
			cfg.System = sys
			if sys == SystemHETKGD {
				cfg.CachePrefetchD = 8
			}
			probe, err := cfg.derive()
			if err != nil {
				t.Fatal(err)
			}
			env, err := setupPS(probe)
			if err != nil {
				t.Fatal(err)
			}
			defer env.tr.Close()
			d, err := newStatic(probe, env)
			if err != nil {
				t.Fatal(err)
			}
			var ipe []int
			for _, id := range d.sortedParts() {
				ipe = append(ipe, d.runners[id].ipe)
			}
			if len(ipe) != cfg.Machines || ipe[0] == ipe[1] && ipe[1] == ipe[2] {
				t.Fatalf("iterations per epoch %v: want every partition present, not all equal", ipe)
			}

			want, err := cfg.run()
			if err != nil {
				t.Fatal(err)
			}
			// A 1µs cadence heartbeats every iteration; the timeout keeps
			// the lone worker alive however slow the machine runs.
			m, err := ps.NewMembership(ps.MemberConfig{
				Partitions:     cfg.Machines,
				HeartbeatEvery: time.Microsecond,
				WorkerTimeout:  time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := runElastic(cfg, m, "solo")
			if err != nil {
				t.Fatal(err)
			}
			if got.System != string(sys)+"/elastic" {
				t.Errorf("System = %q", got.System)
			}
			if len(got.Epochs) != len(want.Epochs) {
				t.Fatalf("%d epochs, static %d", len(got.Epochs), len(want.Epochs))
			}
			for i, g := range got.Epochs {
				w := want.Epochs[i]
				if g.Epoch != w.Epoch || g.Loss != w.Loss || g.HitRatio != w.HitRatio {
					t.Errorf("epoch %d: loss %v hit %v, static loss %v hit %v", w.Epoch, g.Loss, g.HitRatio, w.Loss, w.HitRatio)
				}
			}
			if got.Traffic != want.Traffic || got.HitRatio != want.HitRatio ||
				got.CacheAccesses != want.CacheAccesses || got.RefreshRows != want.RefreshRows {
				t.Errorf("traffic %+v hit %v accesses %d refresh %d, static %+v %v %d %d",
					got.Traffic, got.HitRatio, got.CacheAccesses, got.RefreshRows,
					want.Traffic, want.HitRatio, want.CacheAccesses, want.RefreshRows)
			}
			for name, pair := range map[string][2][]float32{
				"entity":   {got.Entities.Data, want.Entities.Data},
				"relation": {got.Relations.Data, want.Relations.Data},
			} {
				g, w := pair[0], pair[1]
				if len(g) != len(w) {
					t.Fatalf("%s table has %d values, static %d", name, len(g), len(w))
				}
				for i := range g {
					if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
						t.Fatalf("%s value %d = %v, static %v", name, i, g[i], w[i])
					}
				}
			}
		})
	}
}

// TestElasticSnapshotOutsideRunIsCorrupt: a checksum-valid snapshot whose
// position lies past the run (an iteration no epoch has) is corrupt, not a
// fast-forward target — adoption counts it and resumes from the hint.
func TestElasticSnapshotOutsideRunIsCorrupt(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	cfg.Metrics = metrics.NewRegistry()
	dir := t.TempDir()
	if err := ckpt.WriteProgressFile(dir, &ckpt.Progress{
		Partition: 0, Epoch: 1, Iteration: 1 << 40, Dataset: cfg.Dataset, Seed: cfg.Seed,
	}); err != nil {
		t.Fatal(err)
	}
	cfg.RecoverFrom = dir
	res, err := runElastic(cfg, elasticMembership(t, 2), "bounded")
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptCorrupt).Value(); got != 1 {
		t.Errorf("cluster.ckpt_corrupt = %d, want 1", got)
	}
	if got := cfg.Metrics.Counter(metrics.MClusterCkptResumes).Value(); got != 0 {
		t.Errorf("cluster.ckpt_resumes = %d, want 0 (both partitions start fresh)", got)
	}
	if len(res.Epochs) != cfg.Epochs {
		t.Errorf("recorded %d epochs, want %d", len(res.Epochs), cfg.Epochs)
	}
}

// TestElasticHintOutsideRunFailsAdoption: the coordinator keeps the
// furthest position any owner reported, so one bogus report becomes the
// next owner's resume hint. Adoption refuses it by partition instead of
// fast-forwarding the sampler toward it.
func TestElasticHintOutsideRunFailsAdoption(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Dataset = "traintest"
	m := elasticMembership(t, 2)
	liar, err := m.Join(ps.JoinRequest{Label: "liar", Preferred: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Leave(ps.LeaveRequest{WorkerID: liar.WorkerID, Progress: []ps.PartitionProgress{
		{Partition: 0, Epoch: 1, Iteration: 1 << 40},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err = runElastic(cfg, m, "adopter")
	if err == nil || !strings.Contains(err.Error(), "partition 0") {
		t.Fatalf("adoption error = %v, want one naming partition 0", err)
	}
}
