// Custom data: the full lifecycle on a user-supplied knowledge graph —
// write a TSV of facts, load it, train HET-KG on it, save a checkpoint,
// reload the checkpoint, and evaluate. This is the path a downstream user
// takes with their own data instead of the built-in benchmarks.
//
// Run with:
//
//	go run ./examples/customdata
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"hetkg"
)

// makeTSV fabricates a small "org chart" knowledge graph: people report to
// managers, belong to teams, and teams own services. Any real TSV of
// "head<TAB>relation<TAB>tail" lines works the same way.
func makeTSV(path string) error {
	rng := rand.New(rand.NewSource(4))
	var sb strings.Builder
	const people, teams, services = 300, 20, 60
	for p := 0; p < people; p++ {
		fmt.Fprintf(&sb, "person%d\tmember_of\tteam%d\n", p, rng.Intn(teams))
		fmt.Fprintf(&sb, "person%d\treports_to\tperson%d\n", p, rng.Intn(people/10))
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, "person%d\ton_call_for\tservice%d\n", p, rng.Intn(services))
		}
	}
	for s := 0; s < services; s++ {
		fmt.Fprintf(&sb, "team%d\towns\tservice%d\n", rng.Intn(teams), s)
		fmt.Fprintf(&sb, "service%d\tdepends_on\tservice%d\n", s, rng.Intn(services))
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

func main() {
	dir, err := os.MkdirTemp("", "hetkg-customdata")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	tsvPath := filepath.Join(dir, "orgchart.tsv")
	ckptPath := filepath.Join(dir, "orgchart.ckpt")

	if err := makeTSV(tsvPath); err != nil {
		log.Fatal(err)
	}

	// 1. Load the TSV. The vocabulary maps string labels ↔ dense ids.
	f, err := os.Open(tsvPath)
	if err != nil {
		log.Fatal(err)
	}
	g, vocab, err := hetkg.ReadTSV(f, "orgchart")
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d entities, %d relations, %d triples\n",
		tsvPath, g.NumEntity, g.NumRel, g.NumTriples())

	// 2. Train HET-KG on the custom graph.
	res, err := hetkg.Run(hetkg.RunConfig{
		Graph:     g,
		Dataset:   "orgchart",
		System:    hetkg.SystemHETKGD,
		ModelName: "distmult",
		Dim:       32,
		Epochs:    8,
		BatchSize: 32, // a graph of ~800 facts; the default batch is sized for presets
		Machines:  2,
		Seed:      4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %s (cache hit ratio %.1f%%)\n", res.Final, 100*res.HitRatio)

	// 3. Save a checkpoint and reload it — what a service embedding store
	// would do between training and serving.
	err = hetkg.WriteCheckpoint(ckptPath, &hetkg.Checkpoint{
		ModelName: "distmult",
		Dim:       res.Entities.Dim,
		Dataset:   "orgchart",
		Seed:      4,
		Epochs:    len(res.Epochs),
		System:    res.System,
		Entities:  res.Entities,
		Relations: res.Relations,
	})
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := hetkg.ReadCheckpoint(ckptPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint round trip: %d entity rows, %d relation rows\n",
		loaded.Entities.Rows, loaded.Relations.Rows)

	// 4. Query the reloaded embeddings: who is most plausibly on call for
	// service0? (Uses the vocabulary to translate labels ↔ ids.)
	mdl, err := hetkg.NewModel(loaded.ModelName)
	if err != nil {
		log.Fatal(err)
	}
	onCall := vocab.RelationID("on_call_for")
	service0 := vocab.EntityID("service0")
	r := loaded.Relations.Row(int(onCall))
	t := loaded.Entities.Row(int(service0))
	bestScore := float32(-1e30)
	best := ""
	for e := 0; e < loaded.Entities.Rows; e++ {
		label := vocab.EntityLabel(hetkg.EntityID(e))
		if !strings.HasPrefix(label, "person") {
			continue
		}
		if s := mdl.Score(loaded.Entities.Row(e), r, t); s > bestScore {
			bestScore, best = s, label
		}
	}
	fmt.Printf("most plausible (X, on_call_for, service0): %s (score %.3f)\n", best, bestScore)
}
