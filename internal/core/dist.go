package core

import (
	"fmt"
	"os"

	"hetkg/internal/ps"
	"hetkg/internal/train"
)

// joinCluster registers this process with the coordinator behind cc and
// returns the run's elastic configuration, whose join reply names the shard
// fleet train dials. The machines this process was launched for
// (LocalMachines) are the partitions it prefers.
func joinCluster(rc *RunConfig, cc *ps.CoordClient) (*train.ElasticConfig, error) {
	host, _ := os.Hostname()
	label := fmt.Sprintf("%s:%d", host, os.Getpid())
	join, err := cc.Join(ps.JoinRequest{Label: label, Preferred: rc.LocalMachines})
	if err != nil {
		return nil, fmt.Errorf("core: joining cluster at %s: %w", rc.JoinAddr, err)
	}
	if len(join.ShardAddrs) == 0 {
		return nil, fmt.Errorf("core: the coordinator at %s advertises no shards", rc.JoinAddr)
	}
	return &train.ElasticConfig{Coordinator: cc, Join: join, Label: label}, nil
}

// BuildShard constructs the single parameter-server shard that machine m of
// the given run owns — what a `hetkg ps` process hosts. It derives the shard
// from rc as the run's trainers derive its layout (prepare, then
// train.BuildShard), so a shard process needs no state transfer at startup:
// it computes its own rows and starts serving.
func BuildShard(rc RunConfig, machine int) (*ps.Server, error) {
	p, err := prepare(&rc)
	if err != nil {
		return nil, err
	}
	return train.BuildShard(train.Config{
		RunConfig:    rc,
		Train:        p.split.Train,
		Model:        p.model,
		Partitioner:  p.part,
		NewOptimizer: p.newOpt,
	}, machine)
}
