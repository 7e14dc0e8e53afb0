package core

import (
	"net"
	"sync"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/ps"
)

// TestFullyDistributedWorkers runs the complete multi-process topology:
// two shard "processes" (independently derived PS shards behind TCP listeners) and two
// trainer "processes", each driving only its own machine's workers against
// the shared shards, concurrently. This is N× `hetkg ps` + N× `hetkg train
// -machine m`, the paper's actual deployment shape.
func TestFullyDistributedWorkers(t *testing.T) {
	base := RunConfig{
		Dataset:  "fb15k",
		Scale:    dataset.Tiny,
		System:   SystemHETKGC,
		Machines: 2,
		Epochs:   2,
		Seed:     37,
	}

	var addrs []string
	for m := 0; m < base.Machines; m++ {
		shard, err := BuildShard(base, m)
		if err != nil {
			t.Fatalf("BuildShard(%d): %v", m, err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
		go ps.ServeTCP(l, shard)
	}

	var wg sync.WaitGroup
	results := make([]*runOutcome, base.Machines)
	for m := 0; m < base.Machines; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rc := base
			rc.ShardAddrs = addrs
			rc.LocalMachines = []int{m}
			res, err := Run(rc)
			results[m] = &runOutcome{err: err}
			if err != nil {
				return
			}
			results[m].lossFirst = res.Epochs[0].Loss
			results[m].lossLast = res.Epochs[len(res.Epochs)-1].Loss
			results[m].mrr = res.Final.MRR
		}(m)
	}
	wg.Wait()

	for m, out := range results {
		if out.err != nil {
			t.Fatalf("trainer %d failed: %v", m, out.err)
		}
		if out.lossLast >= out.lossFirst {
			t.Errorf("trainer %d loss did not decrease: %.4f → %.4f", m, out.lossFirst, out.lossLast)
		}
		// Each trainer evaluates against the SHARED shard state, which has
		// seen both trainers' pushes.
		if out.mrr <= 0 {
			t.Errorf("trainer %d MRR = %v", m, out.mrr)
		}
	}
}

type runOutcome struct {
	err                 error
	lossFirst, lossLast float64
	mrr                 float64
}

func TestLocalMachinesSingleProcessSubset(t *testing.T) {
	// Running only machine 0's workers in-process must still work (its
	// shard co-hosted, the other shard idle) and touch only a subset of
	// the data.
	rc := RunConfig{
		Dataset:       "fb15k",
		Scale:         dataset.Tiny,
		System:        SystemDGLKE,
		Machines:      2,
		Epochs:        1,
		Seed:          37,
		LocalMachines: []int{0},
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("subset run: %v", err)
	}
	full := rc
	full.LocalMachines = nil
	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	subsetBytes := res.Traffic.LocalBytes + res.Traffic.RemoteBytes
	fullBytes := fres.Traffic.LocalBytes + fres.Traffic.RemoteBytes
	if subsetBytes >= fullBytes {
		t.Errorf("machine-0-only run moved %d bytes, full run %d — no reduction", subsetBytes, fullBytes)
	}
}
