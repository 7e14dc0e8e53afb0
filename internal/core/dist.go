package core

import (
	"fmt"
	"os"

	"hetkg/internal/cache"
	"hetkg/internal/ps"
	"hetkg/internal/train"
)

// Multi-process deployment: every process — the trainer and each `hetkg ps`
// shard — derives the identical cluster state from the same RunConfig
// through prepare. A shard process therefore needs no state transfer at
// startup: it computes its own rows and starts serving.

// runElastic joins the cluster at rc.JoinAddr and trains whatever the
// coordinator assigns (Run's elastic-mode dispatch). The registration
// happens here rather than in train.TrainElastic because the join reply's
// shard list is needed to build the transport.
func runElastic(rc RunConfig, tc train.Config) (*train.Result, error) {
	switch rc.System {
	case SystemDGLKE, SystemHETKGC, SystemHETKGD:
	default:
		return nil, fmt.Errorf("core: system %q does not support elastic mode", rc.System)
	}
	host, _ := os.Hostname()
	label := fmt.Sprintf("%s:%d", host, os.Getpid())
	cc, err := ps.DialCoordinator(rc.JoinAddr, 0)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	join, err := cc.Join(ps.JoinRequest{Label: label, Preferred: rc.LocalMachines})
	if err != nil {
		return nil, fmt.Errorf("core: joining cluster at %s: %w", rc.JoinAddr, err)
	}
	if join.Partitions != rc.Machines {
		return nil, fmt.Errorf("core: coordinator runs %d partitions, -machines says %d (all processes must share the run configuration)",
			join.Partitions, rc.Machines)
	}
	if len(join.ShardAddrs) != rc.Machines {
		return nil, fmt.Errorf("core: coordinator advertised %d shard addresses for %d machines",
			len(join.ShardAddrs), rc.Machines)
	}
	addrs, codec, lcfg := join.ShardAddrs, rc.Codec, rc.linkConfig()
	tc.NewTransport = func(*ps.Cluster) (ps.Transport, error) {
		return ps.DialTCPLink(addrs, codec, lcfg)
	}
	switch rc.System {
	case SystemHETKGC:
		tc.Cache.Strategy = cache.CPS
	case SystemHETKGD:
		tc.Cache.Strategy = cache.DPS
	}
	return train.TrainElastic(tc, train.ElasticConfig{
		Coordinator: cc,
		Join:        join,
		Label:       label,
		CkptDir:     rc.CkptDir,
		RecoverFrom: rc.RecoverFrom,
		CkptEvery:   rc.CkptEvery,
		NoCache:     rc.System == SystemDGLKE,
		Logf:        rc.ClusterLogf,
	})
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
