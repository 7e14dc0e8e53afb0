package core

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"testing"
	"time"

	"hetkg/internal/dataset"
	"hetkg/internal/ps"
)

// The multi-process fault-injection harness (ISSUE: kill a worker
// mid-epoch, assert the run completes and the final MRR matches a
// no-failure run within noise). The parent test process hosts the two PS
// shards and the coordinator; trainer processes are separate OS processes
// obtained by re-executing the test binary with HETKG_ELASTIC_HELPER set,
// so a SIGKILL is a real process death: no deferred cleanup, no flushed
// snapshots, TCP connections cut mid-stream.

// procRunConfig is the run every process of the harness shares (the
// deterministic derivation demands identical configs everywhere).
func procRunConfig() RunConfig {
	return RunConfig{
		Dataset:   "fb15k",
		Scale:     dataset.Tiny,
		System:    SystemHETKGC,
		Machines:  2,
		Epochs:    4,
		BatchSize: 16,
		Seed:      42,
	}
}

const (
	helperEnv     = "HETKG_ELASTIC_HELPER"
	helperJoinEnv = "HETKG_ELASTIC_JOIN"
	helperCkptEnv = "HETKG_ELASTIC_CKPT"
)

// TestElasticWorkerHelperProcess is not a test: it is the body of the
// trainer child processes TestElasticKillRecovery spawns. Without the
// harness environment it skips immediately.
func TestElasticWorkerHelperProcess(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper body for TestElasticKillRecovery")
	}
	rc := procRunConfig()
	rc.JoinAddr = os.Getenv(helperJoinEnv)
	rc.CkptDir = os.Getenv(helperCkptEnv)
	rc.CkptEvery = 2
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("elastic worker: %v", err)
	}
	// The parent parses this line from the surviving worker's output.
	fmt.Printf("ELASTIC_FINAL_MRR=%.6f\n", res.Final.MRR)
}

func TestElasticKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness")
	}
	rc := procRunConfig()

	// Host both shards in-process; shard 0 doubles as the coordinator.
	shard0, err := BuildShard(rc, 0)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := BuildShard(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     rc.Machines,
		ShardAddrs:     []string{l0.Addr().String(), l1.Addr().String()},
		HeartbeatEvery: 50 * time.Millisecond,
		WorkerTimeout:  250 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc0 := &ps.Acceptor{Coordinator: coord}
	acc1 := &ps.Acceptor{}
	go acc0.Serve(l0, shard0)
	go acc1.Serve(l1, shard1)
	defer func() {
		l0.Close()
		l1.Close()
		acc0.Shutdown(time.Second)
		acc1.Shutdown(time.Second)
	}()

	ckptDir := t.TempDir()
	spawn := func(label string) (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestElasticWorkerHelperProcess$", "-test.v")
		cmd.Env = append(os.Environ(),
			helperEnv+"=1",
			helperJoinEnv+"="+l0.Addr().String(),
			helperCkptEnv+"="+ckptDir,
		)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", label, err)
		}
		return cmd, &out
	}

	// Victim first: it joins alone, is granted both partitions, and starts
	// training. We kill it as soon as the coordinator has heard real
	// progress on every partition — mid-epoch by construction.
	victim, victimOut := spawn("victim")
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim made no observable progress; output:\n%s", victimOut.String())
		}
		snap := coord.Snapshot()
		started := snap.Workers == 1 && snap.Done == 0
		for p := 0; started && p < rc.Machines; p++ {
			if snap.Owner[p] < 0 || (snap.Epoch[p] == 1 && snap.Iteration[p] == 0) {
				started = false
			}
		}
		if started {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The survivor joins as a spare (started partitions are never
	// preempted), so until the victim dies it owns nothing.
	survivor, survivorOut := spawn("survivor")
	for coord.Snapshot().Workers < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("survivor never joined; output:\n%s", survivorOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("killing victim: %v", err)
	}
	victim.Wait() // reaps the SIGKILLed process; failure expected

	done := make(chan error, 1)
	go func() { done <- survivor.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("survivor failed: %v\noutput:\n%s", err, survivorOut.String())
		}
	case <-time.After(60 * time.Second):
		survivor.Process.Kill()
		t.Fatalf("survivor did not finish the run; output:\n%s", survivorOut.String())
	}
	if !coord.AllDone() {
		t.Errorf("coordinator did not see every partition finish")
	}

	mrrRe := regexp.MustCompile(`ELASTIC_FINAL_MRR=([0-9.]+)`)
	match := mrrRe.FindStringSubmatch(survivorOut.String())
	if match == nil {
		t.Fatalf("survivor printed no final MRR; output:\n%s", survivorOut.String())
	}
	recovered, err := strconv.ParseFloat(match[1], 64)
	if err != nil {
		t.Fatal(err)
	}

	// No-failure reference: the same run, single process. Recovery replays
	// a handful of batches (those after the victim's last snapshot), so the
	// two runs differ only by that noise.
	base, err := Run(procRunConfig())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if base.Final.MRR <= 0.1 {
		t.Fatalf("baseline MRR %.3f too weak to compare against", base.Final.MRR)
	}
	lo, hi := base.Final.MRR/1.4, base.Final.MRR*1.4
	if recovered < lo || recovered > hi {
		t.Errorf("recovered MRR %.3f outside noise band [%.3f, %.3f] of no-failure MRR %.3f",
			recovered, lo, hi, base.Final.MRR)
	}
	t.Logf("recovered MRR %.3f vs no-failure %.3f", recovered, base.Final.MRR)
}

// TestRefusedJoinerReleasesItsPartitions: a `-join` process whose run is
// refused after it registered — here PBG, which has no elastic driver —
// hands its partitions back at once instead of holding them until the
// coordinator's worker timeout.
func TestRefusedJoinerReleasesItsPartitions(t *testing.T) {
	rc := procRunConfig()
	rc.System = SystemPBG
	shard0, err := BuildShard(rc, 0)
	if err != nil {
		t.Fatal(err)
	}
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := ps.NewMembership(ps.MemberConfig{
		Partitions:     rc.Machines,
		ShardAddrs:     []string{l0.Addr().String(), l0.Addr().String()},
		HeartbeatEvery: time.Second,
		WorkerTimeout:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := &ps.Acceptor{Coordinator: coord}
	go acc.Serve(l0, shard0)
	defer func() {
		l0.Close()
		acc.Shutdown(time.Second)
	}()
	rc.JoinAddr = l0.Addr().String()
	if _, err := Run(rc); err == nil {
		t.Fatal("PBG ran as an elastic worker")
	}
	if snap := coord.Snapshot(); snap.Workers != 0 || snap.Unassigned != rc.Machines {
		t.Errorf("after the refused run: %d workers, %d of %d partitions unassigned", snap.Workers, snap.Unassigned, rc.Machines)
	}
}
