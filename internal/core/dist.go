package core

import (
	"fmt"
	"os"

	"hetkg/internal/ps"
	"hetkg/internal/train"
)

// Multi-process deployment: every process — the trainer and each `hetkg ps`
// shard — derives the identical cluster state from the same RunConfig
// through prepare. A shard process therefore needs no state transfer at
// startup: it computes its own rows and starts serving.

// joinCluster registers this process with the coordinator behind cc — here
// rather than in train, because the join reply's shard list builds the
// transport — and returns the run's elastic configuration. The machines this
// process was launched for (LocalMachines) are the partitions it prefers.
func joinCluster(rc *RunConfig, cc *ps.CoordClient) (*train.ElasticConfig, error) {
	host, _ := os.Hostname()
	label := fmt.Sprintf("%s:%d", host, os.Getpid())
	join, err := cc.Join(ps.JoinRequest{Label: label, Preferred: rc.LocalMachines})
	if err != nil {
		return nil, fmt.Errorf("core: joining cluster at %s: %w", rc.JoinAddr, err)
	}
	return &train.ElasticConfig{Coordinator: cc, Join: join, Label: label}, nil
}

// BuildShard constructs the single parameter-server shard that machine m of
// the given run owns — what a `hetkg ps` process hosts. The cluster
// configuration mirrors the one train builds from Run's train.Config.
func BuildShard(rc RunConfig, machine int) (*ps.Server, error) {
	p, err := prepare(&rc)
	if err != nil {
		return nil, err
	}
	pr, err := p.part.Partition(p.split.Train, rc.Machines)
	if err != nil {
		return nil, err
	}
	return ps.NewClusterShard(ps.ClusterConfig{
		NumMachines:  rc.Machines,
		EntityPart:   pr.EntityPart,
		NumRelations: p.split.Train.NumRel,
		EntityDim:    p.model.EntityDim(rc.Dim),
		RelationDim:  p.model.RelationDim(rc.Dim),
		NewOptimizer: p.newOpt,
		Seed:         rc.Seed,
	}, machine)
}
