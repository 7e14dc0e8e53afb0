package core

import (
	"net"
	"testing"

	"hetkg/internal/dataset"
)

// TestMultiProcessDeploymentMatchesLocal stands up the cmd/hetkg-ps
// deployment shape — independently-derived shards behind real TCP
// listeners — and verifies a trainer pointed at them produces bit-identical
// embeddings to the all-in-one-process run. This is the correctness proof
// of the "no state transfer" deterministic-derivation design.
func TestMultiProcessDeploymentMatchesLocal(t *testing.T) {
	base := RunConfig{
		Dataset:  "fb15k",
		Scale:    dataset.Tiny,
		System:   SystemHETKGC,
		Machines: 2,
		Epochs:   1,
		Seed:     31,
	}
	// The second case exercises the parts of the derivation a shard and a
	// trainer could disagree on: reciprocal relations double the relation
	// table the shards must own, and a non-default optimizer must reach the
	// shards too.
	derived := base
	derived.InverseRelations = true
	derived.OptimizerName = "adam"
	t.Run("defaults", func(t *testing.T) { multiProcessMatchesLocal(t, base) })
	t.Run("inverse+adam", func(t *testing.T) { multiProcessMatchesLocal(t, derived) })
}

func multiProcessMatchesLocal(t *testing.T, rc RunConfig) {
	// "Processes": each shard built independently from the config.
	var addrs []string
	for m := 0; m < rc.Machines; m++ {
		shard, err := BuildShard(rc, m)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", m, err)
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
		srv := shard
		go serveShard(l, srv)
	}

	remote := rc
	remote.ShardAddrs = addrs
	remoteRes, err := Run(remote)
	if err != nil {
		t.Fatalf("remote-shard run: %v", err)
	}
	localRes, err := Run(rc)
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
}

func TestShardAddrCountValidation(t *testing.T) {
	rc := RunConfig{
		Dataset:    "fb15k",
		Scale:      dataset.Tiny,
		System:     SystemDGLKE,
		Machines:   2,
		Epochs:     1,
		Seed:       31,
		ShardAddrs: []string{"127.0.0.1:1"},
	}
	if _, err := Run(rc); err == nil {
		t.Error("mismatched shard address count accepted")
	}
}

func TestBuildShardValidation(t *testing.T) {
	rc := RunConfig{Dataset: "fb15k", Scale: dataset.Tiny, Machines: 2, Seed: 1}
	if _, err := BuildShard(rc, 5); err == nil {
		t.Error("out-of-range machine accepted")
	}
	bad := rc
	bad.Dataset = "nope"
	if _, err := BuildShard(bad, 0); err == nil {
		t.Error("unknown dataset accepted")
	}
	bad = rc
	bad.ModelName = "nope"
	if _, err := BuildShard(bad, 0); err == nil {
		t.Error("unknown model accepted")
	}
}
