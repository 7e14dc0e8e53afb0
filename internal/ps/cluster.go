package ps

import (
	"fmt"
	"math"

	"hetkg/internal/kg"
	"hetkg/internal/opt"
	"hetkg/internal/vec"
)

// ClusterConfig describes a parameter-server deployment: one shard per
// machine, entity rows placed by the graph partitioner, relations striped.
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

// Cluster is a set of co-located server shards plus their placement.
type Cluster struct {
	Servers []*Server
	Place   *Placement

	entDim, relDim int
	numEntity      int
	numRel         int
}

// NewCluster builds and initializes all shards.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumMachines < 1 {
		return nil, fmt.Errorf("ps: NumMachines %d < 1", cfg.NumMachines)
	}
	if cfg.NumRelations < 1 {
		return nil, fmt.Errorf("ps: NumRelations %d < 1", cfg.NumRelations)
	}
	place, err := NewPlacement(cfg.NumMachines, cfg.EntityPart)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Place:     place,
		entDim:    cfg.EntityDim,
		relDim:    cfg.RelationDim,
		numEntity: len(cfg.EntityPart),
		numRel:    cfg.NumRelations,
	}
	for m := 0; m < cfg.NumMachines; m++ {
		srv, err := initShard(cfg, place, m)
		if err != nil {
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// initShard builds machine's shard and installs the rows place assigns to
// it: deterministic per-key initialization, or the checkpoint's rows on
// resume.
func initShard(cfg ClusterConfig, place *Placement, machine int) (*Server, error) {
	if cfg.NewOptimizer == nil {
		return nil, fmt.Errorf("ps: NewOptimizer is nil")
	}
	if err := cfg.validateInitial(); err != nil {
		return nil, err
	}
	srv, err := newServer(machine, place, cfg.NumRelations, cfg.EntityDim, cfg.RelationDim, cfg.NewOptimizer())
	if err != nil {
		return nil, err
	}
	for e := 0; e < len(cfg.EntityPart); e++ {
		k := EntityKey(kg.EntityID(e))
		slot, ok := place.slot(k, machine, cfg.NumRelations)
		if !ok {
			continue
		}
		row := srv.rowAt(slot)
		if cfg.InitialEntities != nil {
			copy(row, cfg.InitialEntities.Row(e))
		} else {
			initRow(cfg.Seed, k, row, true)
		}
	}
	for r := 0; r < cfg.NumRelations; r++ {
		k := RelationKey(kg.RelationID(r))
		slot, ok := place.slot(k, machine, cfg.NumRelations)
		if !ok {
			continue
		}
		row := srv.rowAt(slot)
		if cfg.InitialRelations != nil {
			copy(row, cfg.InitialRelations.Row(r))
		} else {
			initRow(cfg.Seed, k, row, false)
		}
	}
	return srv, nil
}

// EntityDim returns the entity row width.
func (c *Cluster) EntityDim() int { return c.entDim }

// RelationDim returns the relation row width.
func (c *Cluster) RelationDim() int { return c.relDim }

// NumEntities returns the entity universe size.
func (c *Cluster) NumEntities() int { return c.numEntity }

// NumRelations returns the relation universe size.
func (c *Cluster) NumRelations() int { return c.numRel }

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
// the multi-process deployment (`hetkg ps`).
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
// through the given transport — the gather path that works when the shards
// live in other processes. Pulls are batched per shard.
func (c *Cluster) GatherVia(tr *LinkTransport) (entities, relations *vec.Matrix, err error) {
	entities = vec.NewMatrix(c.numEntity, c.entDim)
	relations = vec.NewMatrix(c.numRel, c.relDim)
	perShard := make([][]Key, c.Place.NumMachines())
	for e := 0; e < c.numEntity; e++ {
		k := EntityKey(kg.EntityID(e))
		s := c.Place.Shard(k)
		perShard[s] = append(perShard[s], k)
	}
	for r := 0; r < c.numRel; r++ {
		k := RelationKey(kg.RelationID(r))
		s := c.Place.Shard(k)
		perShard[s] = append(perShard[s], k)
	}
	const batch = 4096
	for shard, keys := range perShard {
		for start := 0; start < len(keys); start += batch {
			end := start + batch
			if end > len(keys) {
				end = len(keys)
			}
			ks := keys[start:end]
			resp, err := tr.Pull(shard, &PullRequest{Keys: ks})
			if err != nil {
				return nil, nil, fmt.Errorf("ps: gather from shard %d: %w", shard, err)
			}
			off := 0
			for _, k := range ks {
				if k.IsRelation() {
					copy(relations.Row(int(k.Relation())), resp.Vals[off:off+c.relDim])
					off += c.relDim
				} else {
					copy(entities.Row(int(k.Entity())), resp.Vals[off:off+c.entDim])
					off += c.entDim
				}
			}
		}
	}
	return entities, relations, nil
}
