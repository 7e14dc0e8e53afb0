package train

import (
	"net"
	"strings"
	"testing"

	"hetkg/internal/metrics"
	"hetkg/internal/ps"
	"hetkg/internal/span"
)

// serveShards hosts the shards of cfg's run on loopback listeners, each
// built by BuildShard as a `hetkg ps` process builds its own, traces them
// into cfg.Spans when it is set, and points cfg.ShardAddrs at them. The
// listeners close when t ends.
func serveShards(t *testing.T, cfg *Config) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for m := range cfg.Machines {
		srv, err := BuildShard(*cfg, m)
		if err != nil {
			t.Fatalf("BuildShard %d: %v", m, err)
		}
		if cfg.Spans != nil {
			srv.Trace(cfg.Spans.Tracer(m, span.WorkerShard))
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go ps.ServeTCP(l, srv)
		cfg.ShardAddrs = append(cfg.ShardAddrs, l.Addr().String())
	}
}

// TestTrainingOverRealTCP runs the full HET-KG training loop — prefetch,
// cache builds, staleness refreshes, per-batch pulls and pushes — through
// real loopback sockets instead of the in-process transport, proving the
// wire protocol carries the entire workload, not just single calls.
func TestTrainingOverRealTCP(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	serveShards(t, &cfg)

	tcpRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("HET-KG over TCP: %v", err)
	}
	if tcpRes.HitRatio <= 0 {
		t.Error("cache never hit over TCP")
	}

	// The exact same run over the in-process transport must produce
	// identical embeddings: the transport is pure plumbing.
	inprocCfg := testConfig(t, 2)
	inprocCfg.Epochs = 1
	inprocCfg.EvalEvery = -1
	inprocRes, err := Run(inprocCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tcpRes.Entities.Data {
		if tcpRes.Entities.Data[i] != inprocRes.Entities.Data[i] {
			t.Fatalf("TCP and in-process runs diverge at entity datum %d", i)
		}
	}
}

// TestRemoteShardsAreNotHosted: a run that names its shards dials them and
// holds only their layout. It builds no ps.Server, so it initialises no
// rows, and it registers none of the series only a shard publishes.
func TestRemoteShardsAreNotHosted(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1
	serveShards(t, &cfg)
	env, err := setupPS(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.tr.Close()
	if n := len(env.cluster.Servers); n != 0 {
		t.Fatalf("a run over ShardAddrs hosts %d shards, want none", n)
	}

	cfg.Metrics = metrics.NewRegistry()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range cfg.Metrics.Names() {
		if strings.HasPrefix(name, "ps.server.") || strings.HasPrefix(name, "ps.tcp.") {
			t.Errorf("a run over ShardAddrs registers the shard series %s", name)
		}
	}
}
