package ps

import (
	"net"
	"testing"
	"time"

	"hetkg/internal/kg"
	"hetkg/internal/opt"
)

// loopbackShard is one shard served on a loopback listener.
type loopbackShard struct {
	l net.Listener
	a *Acceptor
}

// stop closes the shard's listener and every connection it accepted, as a
// crashed shard process would.
func (s loopbackShard) stop() {
	s.l.Close()
	s.a.Shutdown(0)
}

// loopbackShards serves each of c's shards on its own loopback listener and
// returns their addresses; the shards stop when tb ends.
func loopbackShards(tb testing.TB, c *Cluster) ([]string, []loopbackShard) {
	tb.Helper()
	var addrs []string
	var shards []loopbackShard
	for _, srv := range c.Servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		s := loopbackShard{l: l, a: &Acceptor{}}
		go s.a.Serve(l, srv)
		tb.Cleanup(s.stop)
		addrs = append(addrs, l.Addr().String())
		shards = append(shards, s)
	}
	return addrs, shards
}

// chattyCluster is tcp-chatty's parameter shape: 4 shards, dim-16 rows, and
// a batch that touches 27 entities on each shard (entity i lives on shard
// i mod 4).
func chattyCluster(tb testing.TB) (*Cluster, []Key) {
	tb.Helper()
	const shards, perShard = 4, 27
	part := make([]int32, 4*shards*perShard)
	for i := range part {
		part[i] = int32(i % shards)
	}
	c, err := NewCluster(ClusterConfig{
		NumMachines:  shards,
		EntityPart:   part,
		NumRelations: 8,
		EntityDim:    16,
		RelationDim:  16,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         99,
	})
	if err != nil {
		tb.Fatal(err)
	}
	keys := make([]Key, shards*perShard)
	for i := range keys {
		keys[i] = EntityKey(kg.EntityID(i))
	}
	return c, keys
}

// BenchmarkClientPullPush times one batch's parameter traffic on
// tcp-chatty's shape: a worker Client on machine 0 pulls 27 dim-16 rows from
// each of 4 loopback shards into its rows (PullRows), then pushes a
// gradient for every one of them (PushRows).
func BenchmarkClientPullPush(b *testing.B) {
	c, keys := chattyCluster(b)
	addrs, _ := loopbackShards(b, c)
	tr, err := DialTCPLink(addrs, ProfileFP32, LinkConfig{RPCTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tr.Close() })
	cl, err := NewClient(0, c, tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	rows, grads := make([][]float32, len(keys)), make([][]float32, len(keys))
	for i, k := range keys {
		rows[i], grads[i] = make([]float32, cl.Width(k)), make([]float32, cl.Width(k))
		for j := range grads[i] {
			grads[i][j] = 1e-6
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.PullRows(keys, rows); err != nil {
			b.Fatal(err)
		}
		if err := cl.PushRows(keys, grads); err != nil {
			b.Fatal(err)
		}
	}
}
