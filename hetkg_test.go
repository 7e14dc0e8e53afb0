package hetkg

import (
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModuleBuilds compiles and vets benchmark/ against this tree.
// benchmark/ is its own module (hetkg/benchmark, requiring only hetkg through
// `replace ..`), so `go test ./...` here never builds it, and its files may
// not change in a PR it measures: a rename of anything it uses — in the
// facade or in internal/* — must fail tier-1 here, not the benchmark driver
// later.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off") // the module needs no download; never try one
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer builds against this tree (go vet ./... in benchmark/: %v):\n%s", err, out)
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := Run(RunConfig{
		Dataset: "fb15k",
		Scale:   ScaleTiny,
		System:  SystemHETKGC,
		Epochs:  2,
		Seed:    1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Final.MRR <= 0 || res.Entities == nil || res.Relations == nil {
		t.Error("incomplete result through the facade")
	}
}

func TestFacadeDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 3 {
		t.Fatalf("DatasetNames = %v", names)
	}
	for _, n := range names {
		g, ok := DatasetByName(n, ScaleTiny, 1)
		if !ok || g.NumTriples() == 0 {
			t.Errorf("DatasetByName(%q) failed", n)
		}
	}
	g := FB15kLike(ScaleTiny, 1)
	if g.NumEntity != 500 {
		t.Errorf("FB15kLike tiny entities = %d", g.NumEntity)
	}
	if WN18Like(ScaleTiny, 1).NumRel != 18 {
		t.Error("WN18Like should have 18 relations")
	}
	if Freebase86mLike(ScaleTiny, 1).NumTriples() == 0 {
		t.Error("Freebase86mLike empty")
	}
}

func TestFacadeModelsAndEval(t *testing.T) {
	if len(ModelNames()) < 4 {
		t.Error("too few models")
	}
	m, err := NewModel("transe")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Dataset: "wn18", Scale: ScaleTiny, System: SystemDGLKE, Epochs: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, _ := DatasetByName("wn18", ScaleTiny, 2)
	ev, err := Evaluate(EvalConfig{
		Model:         m,
		Entities:      res.Entities,
		Relations:     res.Relations,
		NumCandidates: 20,
		Seed:          3,
	}, g.Triples[:50])
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.MRR <= 0 || ev.MRR > 1 {
		t.Errorf("MRR = %v out of range", ev.MRR)
	}
}

func TestFacadeReadTSV(t *testing.T) {
	g, vocab, err := ReadTSV(strings.NewReader("a\tr\tb\nb\tr\tc\n"), "mini")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != 2 || vocab.NumEntities() != 3 {
		t.Error("ReadTSV through facade broken")
	}
}

func TestFacadeExperiments(t *testing.T) {
	exps := Experiments()
	if len(exps) < 14 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	if _, ok := ExperimentByID("table6"); !ok {
		t.Error("table6 missing")
	}
	if len(ExperimentIDs()) != len(exps) {
		t.Error("IDs and Experiments disagree")
	}
}

func TestFacadeSystemsAndScales(t *testing.T) {
	if len(Systems()) != 4 {
		t.Error("Systems should list 4 systems")
	}
	if sc, err := ParseScale("paper"); err != nil || sc != ScalePaper {
		t.Error("ParseScale broken")
	}
	if _, err := ParseScale("tyni"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
	if Default1Gbps().RemoteBandwidthBps <= 0 {
		t.Error("Default1Gbps invalid")
	}
}

func TestFacadeCheckpointRoundTrip(t *testing.T) {
	res, err := Run(RunConfig{
		Dataset: "fb15k", Scale: ScaleTiny, System: SystemDGLKE, Epochs: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.ckpt"
	err = WriteCheckpoint(path, &Checkpoint{
		ModelName: "transe",
		Dim:       res.Entities.Dim,
		Dataset:   "fb15k",
		Seed:      4,
		Epochs:    1,
		System:    res.System,
		Entities:  res.Entities,
		Relations: res.Relations,
	})
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	c, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	if c.Entities.Rows != res.Entities.Rows {
		t.Error("checkpoint lost rows")
	}
}

func TestFacadeKNN(t *testing.T) {
	res, err := Run(RunConfig{
		Dataset: "fb15k", Scale: ScaleTiny, System: SystemDGLKE, Epochs: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewKNN(res.Entities, KNNCosine)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := ix.Neighbors(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 5 {
		t.Errorf("got %d neighbors", len(nb))
	}
}

func TestFacadeBuildAndServeShard(t *testing.T) {
	rc := RunConfig{Dataset: "fb15k", Scale: ScaleTiny, Machines: 2, Seed: 4}
	shard, err := BuildShard(rc, 0)
	if err != nil {
		t.Fatalf("BuildShard: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeShard(l, shard)
	defer l.Close()
	// A trainer can use it.
	rc.System = SystemDGLKE
	rc.Epochs = 1
	shard1, err := BuildShard(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeShard(l1, shard1)
	defer l1.Close()
	rc.ShardAddrs = []string{l.Addr().String(), l1.Addr().String()}
	if _, err := Run(rc); err != nil {
		t.Fatalf("training against facade-served shards: %v", err)
	}
}
