package ps

import (
	"fmt"
	"math"

	"hetkg/internal/opt"
	"hetkg/internal/vec"
)

// ClusterConfig describes a parameter-server deployment: one shard per
// machine, entity rows placed by the graph partitioner, relations striped.
// A trainer derives it from its run (train's clusterConfig), and so does
// every `hetkg ps` process, so they all agree on the layout and the rows.
type ClusterConfig struct {
	// NumMachines is the number of co-located server shards.
	NumMachines int
	// EntityPart is the partitioner's per-entity machine assignment; its
	// length defines the entity universe.
	EntityPart []int32
	// NumRelations is the relation universe size.
	NumRelations int
	// EntityDim and RelationDim are row widths.
	EntityDim, RelationDim int
	// NewOptimizer constructs each shard's gradient applier. Shards get
	// independent optimizers (their state is row-local anyway).
	NewOptimizer func() opt.Optimizer
	// Seed drives deterministic row initialization. Initialization is a
	// pure function of (Seed, key), so the same seed yields identical
	// global embeddings regardless of the machine count — essential for
	// comparing 1-machine and 8-machine runs of the same workload.
	Seed int64
	// InitialEntities and InitialRelations, when non-nil, seed the rows
	// from existing tables (resuming from a checkpoint) instead of the
	// deterministic random initialization. Shapes must match the universe
	// and dims.
	InitialEntities  *vec.Matrix
	InitialRelations *vec.Matrix
}

// validateInitial checks checkpoint-shaped tables against the config.
func (cfg *ClusterConfig) validateInitial() error {
	if cfg.InitialEntities != nil {
		if cfg.InitialEntities.Rows != len(cfg.EntityPart) || cfg.InitialEntities.Dim != cfg.EntityDim {
			return fmt.Errorf("ps: initial entities %dx%d, want %dx%d",
				cfg.InitialEntities.Rows, cfg.InitialEntities.Dim, len(cfg.EntityPart), cfg.EntityDim)
		}
	}
	if cfg.InitialRelations != nil {
		if cfg.InitialRelations.Rows != cfg.NumRelations || cfg.InitialRelations.Dim != cfg.RelationDim {
			return fmt.Errorf("ps: initial relations %dx%d, want %dx%d",
				cfg.InitialRelations.Rows, cfg.InitialRelations.Dim, cfg.NumRelations, cfg.RelationDim)
		}
	}
	return nil
}

// Cluster is a deployment's layout — the placement, the row widths and the
// universe sizes — and the shards this process hosts: every one of them
// (NewCluster), or none (NewLayout, for a trainer whose shards run in other
// processes).
type Cluster struct {
	Servers []*Server
	Place   *Placement

	entDim, relDim int
	keys           KeySpace
}

// NewLayout builds the layout cfg describes and hosts no shard, so it
// initialises no rows and reads neither NewOptimizer, Seed nor the initial
// tables. Its clients reach the shards over links (DialTCPLink).
func NewLayout(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumRelations < 1 {
		return nil, fmt.Errorf("ps: NumRelations %d < 1", cfg.NumRelations)
	}
	place, err := NewPlacement(cfg.NumMachines, cfg.EntityPart)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		Place:  place,
		entDim: cfg.EntityDim,
		relDim: cfg.RelationDim,
		keys:   KeySpace{NumEntity: len(cfg.EntityPart), NumRelation: cfg.NumRelations},
	}, nil
}

// NewCluster builds the layout and hosts every shard of it, initialised.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	for m := 0; m < cfg.NumMachines; m++ {
		srv, err := initShard(cfg, c.Place, m)
		if err != nil {
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// initShard builds machine's shard, its slabs sized from place's counts,
// and installs the rows place assigns to it: deterministic per-key
// initialization, or the checkpoint's rows on resume.
func initShard(cfg ClusterConfig, place *Placement, machine int) (*Server, error) {
	if cfg.EntityDim <= 0 || cfg.RelationDim <= 0 {
		return nil, fmt.Errorf("ps: non-positive dims %d/%d", cfg.EntityDim, cfg.RelationDim)
	}
	if cfg.NewOptimizer == nil {
		return nil, fmt.Errorf("ps: NewOptimizer is nil")
	}
	if err := cfg.validateInitial(); err != nil {
		return nil, err
	}
	numEnt := place.entityCount[machine]
	srv := &Server{
		machine: machine,
		entDim:  cfg.EntityDim,
		relDim:  cfg.RelationDim,
		place:   place,
		numRel:  cfg.NumRelations,
		numEnt:  numEnt,
		ents:    make([]float32, numEnt*cfg.EntityDim),
		rels:    make([]float32, place.shardRelations(machine, cfg.NumRelations)*cfg.RelationDim),
		optim:   cfg.NewOptimizer(),
	}
	keys := KeySpace{NumEntity: len(cfg.EntityPart), NumRelation: cfg.NumRelations}
	for i := range keys.Len() {
		k := keys.Key(i)
		slot, ok := place.slot(k, machine, cfg.NumRelations)
		if !ok {
			continue
		}
		initial, id := cfg.InitialEntities, int(k.Entity())
		if k.IsRelation() {
			initial, id = cfg.InitialRelations, int(k.Relation())
		}
		if row := srv.rowAt(slot); initial != nil {
			copy(row, initial.Row(id))
		} else {
			initRow(cfg.Seed, k, row, !k.IsRelation())
		}
	}
	return srv, nil
}

// initRow fills row deterministically from (seed, key) with the KGE uniform
// initialization; entity rows are additionally l2-normalized (the TransE
// convention).
func initRow(seed int64, k Key, row []float32, normalize bool) {
	s := splitmix64(uint64(seed) ^ (uint64(k) * 0x9E3779B97F4A7C15))
	bound := 6 / math.Sqrt(float64(len(row)))
	for i := range row {
		s = splitmix64(s)
		u := float64(s>>11) / float64(1<<53) // [0,1)
		row[i] = float32((u*2 - 1) * bound)
	}
	if normalize {
		vec.Normalize(row)
	}
}

// splitmix64 is the SplitMix64 PRNG step, used for per-key deterministic
// initialization independent of iteration order.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewClusterShard builds and initializes only machine m's shard of the
// cluster described by cfg. Because row initialization is a pure function
// of (Seed, key), a fleet of processes each calling NewClusterShard with
// the same configuration and a distinct machine index collectively hold
// exactly the state NewCluster would build in one process — the basis of
// the multi-process deployment (`hetkg ps`), whose trainer holds only the
// layout (NewLayout).
func NewClusterShard(cfg ClusterConfig, machine int) (*Server, error) {
	if machine < 0 || machine >= cfg.NumMachines {
		return nil, fmt.Errorf("ps: machine %d out of range [0,%d)", machine, cfg.NumMachines)
	}
	place, err := NewPlacement(cfg.NumMachines, cfg.EntityPart)
	if err != nil {
		return nil, err
	}
	return initShard(cfg, place, machine)
}

// GatherVia assembles the full embedding tables by pulling every row
// through the given transport. It reads only the layout, so it gathers
// from shards in other processes too. Pulls are batched per shard.
func (c *Cluster) GatherVia(tr *LinkTransport) (entities, relations *vec.Matrix, err error) {
	entities = vec.NewMatrix(c.keys.NumEntity, c.entDim)
	relations = vec.NewMatrix(c.keys.NumRelation, c.relDim)
	perShard := make([][]Key, c.Place.NumMachines())
	for i := range c.keys.Len() {
		k := c.keys.Key(i)
		s := c.Place.Shard(k)
		perShard[s] = append(perShard[s], k)
	}
	const batch = 4096
	for shard, keys := range perShard {
		for start := 0; start < len(keys); start += batch {
			ks := keys[start:min(start+batch, len(keys))]
			resp, err := tr.Pull(shard, &PullRequest{Keys: ks})
			if err != nil {
				return nil, nil, fmt.Errorf("ps: gather from shard %d: %w", shard, err)
			}
			off := 0
			for _, k := range ks {
				if k.IsRelation() {
					off += copy(relations.Row(int(k.Relation())), resp.Vals[off:])
				} else {
					off += copy(entities.Row(int(k.Entity())), resp.Vals[off:])
				}
			}
		}
	}
	return entities, relations, nil
}
