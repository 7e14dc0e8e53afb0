package train_test

import (
	"flag"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetkg/internal/dataset"
	"hetkg/internal/metrics"
	"hetkg/internal/plan"
	"hetkg/internal/ps"
	"hetkg/internal/train"
)

// TestMultiProcessDeploymentMatchesLocal stands up the `hetkg ps`
// deployment shape — independently-derived shards behind real TCP
// listeners — and verifies a trainer pointed at them produces bit-identical
// embeddings to the all-in-one-process run. This is the correctness proof
// of the "no state transfer" deterministic-derivation design.
func TestMultiProcessDeploymentMatchesLocal(t *testing.T) {
	base := train.RunConfig{
		Dataset:  "fb15k",
		Scale:    dataset.Tiny,
		System:   train.SystemHETKGC,
		Machines: 2,
		Epochs:   1,
		Seed:     31,
	}
	// The second case exercises a part of the derivation a shard and a
	// trainer could disagree on: a non-default optimizer must reach the
	// shards too.
	derived := base
	derived.OptimizerName = "adam"
	t.Run("defaults", func(t *testing.T) { multiProcessMatchesLocal(t, base, base) })
	t.Run("adam", func(t *testing.T) { multiProcessMatchesLocal(t, derived, derived) })
	// tcp-chatty's shape: four shards, so each pull and push is one round of
	// four overlapped requests.
	chatty := train.RunConfig{
		Dataset:   "wn18",
		Scale:     dataset.Tiny,
		System:    train.SystemDGLKE,
		Machines:  4,
		Dim:       16,
		BatchSize: 32,
		Epochs:    1,
		Seed:      31,
		Codec:     ps.ProfileFP32,
	}
	t.Run("4 shards", func(t *testing.T) { multiProcessMatchesLocal(t, chatty, chatty) })

	// The third case starts where the operator does: one run-identity argv,
	// given to a `hetkg ps` (which binds the identity flags alone) and to a
	// `hetkg train` (which binds them among its run flags). Every identity
	// flag is off its default, so a flag the shard's side dropped, renamed
	// or defaulted differently would derive different rows.
	identity := []string{"-dataset", "wn18", "-scale", "tiny", "-model", "distmult", "-dim", "12", "-lr", "0.05",
		"-optimizer", "adam", "-machines", "3", "-partitioner", "ldg", "-seed", "7"}
	var shardRC train.RunConfig
	psFlags := flag.NewFlagSet("ps", flag.ContinueOnError)
	plan.BindIdentity(psFlags, &shardRC)
	trainFlags := flag.NewFlagSet("train", flag.ContinueOnError)
	trainRC := plan.BindFlags(trainFlags)
	if err := psFlags.Parse(identity); err != nil {
		t.Fatal(err)
	}
	if err := trainFlags.Parse(append(identity, "-system", "hetkg-c", "-epochs", "1")); err != nil {
		t.Fatal(err)
	}
	t.Run("ps+train argv", func(t *testing.T) { multiProcessMatchesLocal(t, shardRC, *trainRC) })
}

// multiProcessMatchesLocal builds the shards from shardRC — the run as a
// shard process sees it — and trains trainRC against them and in-process.
func multiProcessMatchesLocal(t *testing.T, shardRC, rc train.RunConfig) {
	// "Processes": each shard built independently from the config.
	var addrs []string
	for m := 0; m < rc.Machines; m++ {
		shard, err := train.BuildShard(shardRC, m)
		if err != nil {
			t.Fatalf("train.BuildShard(%d): %v", m, err)
		}
		if shard.NumRows() == 0 {
			t.Fatalf("shard %d owns no rows", m)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
		go ps.ServeTCP(l, shard)
	}

	remote := rc
	remote.ShardAddrs = addrs
	remoteRes, err := train.Run(remote)
	if err != nil {
		t.Fatalf("remote-shard run: %v", err)
	}
	localRes, err := train.Run(rc)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	for i := range localRes.Entities.Data {
		if remoteRes.Entities.Data[i] != localRes.Entities.Data[i] {
			t.Fatalf("multi-process and local runs diverge at entity datum %d", i)
		}
	}
	for i := range localRes.Relations.Data {
		if remoteRes.Relations.Data[i] != localRes.Relations.Data[i] {
			t.Fatalf("multi-process and local runs diverge at relation datum %d", i)
		}
	}
	if remoteRes.Final.MRR != localRes.Final.MRR {
		t.Errorf("MRR differs: remote %v vs local %v", remoteRes.Final.MRR, localRes.Final.MRR)
	}
	if remoteRes.Traffic != localRes.Traffic {
		t.Errorf("traffic differs: remote %+v vs local %+v", remoteRes.Traffic, localRes.Traffic)
	}
}

// TestInProcessCodecMatchesTCP holds every negotiable codec profile to
// one result whichever conn its links run over: HET-KG-D trained against
// loopback shards and in-process (links over in-process shard sessions)
// must agree on every embedding bit, the final MRR and the metered traffic.
// "auto" is left out by design: in-process it resolves from the cost model,
// over TCP from the dial RTT.
func TestInProcessCodecMatchesTCP(t *testing.T) {
	for _, codec := range []string{ps.ProfileFP32, ps.ProfileFP16, ps.ProfileInt8, ps.ProfileDeltaInt8, ps.ProfileTopK} {
		t.Run(codec, func(t *testing.T) {
			rc := train.RunConfig{
				Dataset:  "fb15k",
				Scale:    dataset.Tiny,
				System:   train.SystemHETKGD,
				Machines: 2,
				Epochs:   2,
				Seed:     31,
				Codec:    codec,
			}
			multiProcessMatchesLocal(t, rc, rc)
		})
	}
}

// TestRunClosesItsShardConnections trains a tiny DGL-KE run against two
// loopback Acceptor shards, statically and as an elastic worker of a
// coordinator on shard 0, and then expects the shards to find every
// connection the run opened closed: a trainer that left its links open
// made each Acceptor.Shutdown wait out its full grace.
func TestRunClosesItsShardConnections(t *testing.T) {
	rc := train.RunConfig{
		Dataset:  "fb15k",
		Scale:    dataset.Tiny,
		System:   train.SystemDGLKE,
		Machines: 2,
		Epochs:   1,
		Seed:     31,
	}
	for _, name := range []string{"static", "elastic"} {
		t.Run(name, func(t *testing.T) {
			var open atomic.Int64
			var addrs []string
			var accs []*ps.Acceptor
			var ls []net.Listener
			for range rc.Machines {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				acc := &ps.Acceptor{}
				defer func() {
					l.Close()
					acc.Shutdown(0)
				}()
				ls, accs, addrs = append(ls, l), append(accs, acc), append(addrs, l.Addr().String())
			}
			run := rc
			if name == "elastic" {
				coord, err := ps.NewMembership(ps.MemberConfig{Partitions: rc.Machines, ShardAddrs: addrs})
				if err != nil {
					t.Fatal(err)
				}
				accs[0].Coordinator = coord
				run.JoinAddr = addrs[0]
			} else {
				run.ShardAddrs = addrs
			}
			for m, acc := range accs {
				shard, err := train.BuildShard(rc, m)
				if err != nil {
					t.Fatal(err)
				}
				go acc.Serve(countingListener{ls[m], &open}, shard)
			}
			if _, err := train.Run(run); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(5 * time.Second); open.Load() > 0 && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if n := open.Load(); n > 0 {
				t.Fatalf("%d shard connections still open after Run returned", n)
			}
		})
	}
}

// TestLoopbackRunsCountIdenticalSocketBytes runs one tiny DGL-KE job twice
// against two loopback shards and holds the shards' socket byte counts to
// each other. Every hello carries a random link id, so its uvarint must be
// one fixed length for the counts to be a function of the run.
func TestLoopbackRunsCountIdenticalSocketBytes(t *testing.T) {
	rc := train.RunConfig{
		Dataset:  "fb15k",
		Scale:    dataset.Tiny,
		System:   train.SystemDGLKE,
		Machines: 2,
		Epochs:   1,
		Seed:     31,
	}
	run := func() (rx, tx int64) {
		reg := metrics.NewRegistry()
		run := rc
		var accs []*ps.Acceptor
		for m := range rc.Machines {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			shard, err := train.BuildShard(rc, m)
			if err != nil {
				t.Fatal(err)
			}
			shard.Instrument(reg)
			acc := &ps.Acceptor{}
			go acc.Serve(l, shard)
			accs, run.ShardAddrs = append(accs, acc), append(run.ShardAddrs, l.Addr().String())
		}
		if _, err := train.Run(run); err != nil {
			t.Fatal(err)
		}
		// Run closed its links; waiting for the sessions to end counts
		// every reply a shard wrote.
		for _, acc := range accs {
			acc.Shutdown(5 * time.Second)
		}
		return reg.Counter(metrics.MPSTCPRxBytes).Value(), reg.Counter(metrics.MPSTCPTxBytes).Value()
	}
	rx1, tx1 := run()
	rx2, tx2 := run()
	if rx1 != rx2 || tx1 != tx2 {
		t.Errorf("identical runs read rx %d and %d B, tx %d and %d B", rx1, rx2, tx1, tx2)
	}
	if rx1 == 0 || tx1 == 0 {
		t.Errorf("no socket bytes counted (rx %d, tx %d)", rx1, tx1)
	}
}

// countingListener counts the connections it accepted that are not closed
// yet in open.
type countingListener struct {
	net.Listener
	open *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: c, open: l.open}, nil
}

// countedConn decrements open on its first Close.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

func TestShardAddrCountValidation(t *testing.T) {
	rc := train.RunConfig{
		Dataset:    "fb15k",
		Scale:      dataset.Tiny,
		System:     train.SystemDGLKE,
		Machines:   2,
		Epochs:     1,
		Seed:       31,
		ShardAddrs: []string{"127.0.0.1:1"},
	}
	if _, err := train.Run(rc); err == nil {
		t.Error("mismatched shard address count accepted")
	}
}

func TestBuildShardValidation(t *testing.T) {
	rc := train.RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, Machines: 2, Seed: 1}
	if _, err := train.BuildShard(rc, 5); err == nil {
		t.Error("out-of-range machine accepted")
	}
	bad := rc
	bad.Dataset = "nope"
	if _, err := train.BuildShard(bad, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	bad = rc
	bad.ModelName = "nope"
	if _, err := train.BuildShard(bad, 0); err == nil {
		t.Error("unknown model accepted")
	}
}
