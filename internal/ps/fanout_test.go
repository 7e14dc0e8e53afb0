package ps

import (
	"errors"
	"math"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
)

// fanOutClient serves the shards of served on loopback and returns a Client
// on machine 0 of c over sockets to them, plus the shards themselves.
// Retries and the breaker are off, so a stopped shard is reported down on
// the first call.
func fanOutClient(t *testing.T, c, served *Cluster) (*Client, []loopbackShard) {
	t.Helper()
	addrs, shards := loopbackShards(t, served)
	tr, err := DialTCPLink(addrs, ProfileFP32, LinkConfig{Retries: -1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cl, err := NewClient(0, c, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl, shards
}

// settledGoroutines returns runtime.NumGoroutine once it has stopped
// falling, or after a second.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// noGoroutineLeft fails t unless the goroutine count returns to start: a
// Pull or Push leaves no goroutine behind.
func noGoroutineLeft(t *testing.T, start int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Errorf("%s: %d goroutines, %d before it", what, n, start)
	}
}

func bitEqualRows(t *testing.T, what string, got, want map[Key][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Fatalf("%s: row %v has %d values, want %d", what, k, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%s: row %v value %d is %v, want %v", what, k, i, g[i], w[i])
			}
		}
	}
}

// TestFanOutRoundSendsEveryRequestFirst pins a round's overlap: a client's
// pull sends every shard its request before it reads any reply. The stub
// shards, over net.Pipe, each hold their reply until every stub has its
// request, so a round that read each reply before sending the next request
// could never finish. A stub that waits past the deadline answers with a
// push's ack, which poisons its link, so that round fails the pull rather
// than hang the test.
func TestFanOutRoundSendsEveryRequestFirst(t *testing.T) {
	c, keys := chattyCluster(t)
	var arrived atomic.Int32
	all := make(chan struct{})
	gate := func(req *wireRequest, num uint64) (*wireRequest, uint64) {
		if int(arrived.Add(1)) == len(c.Servers) {
			close(all)
		}
		select {
		case <-all:
			return req, num
		case <-time.After(2 * time.Second):
			return &wireRequest{Op: 'U'}, num
		}
	}
	fp32, _ := ResolveProfile(ProfileFP32)
	tr, err := newLinkTransport(make([]string, len(c.Servers)), fp32, LinkConfig{Retries: -1, BreakerThreshold: -1}, true,
		func(_ *LinkTransport, l *link) (*linkConn, error) {
			worker, shard := net.Pipe()
			go stubShard(c.Servers[l.shard], shard, gate)
			conn, err := handshakeClient(worker, l.prof, l.id)
			if err != nil {
				worker.Close()
			}
			return conn, err
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cl, err := NewClient(0, c, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Pull(keys, map[Key][]float32{}); err != nil {
		t.Fatalf("pull whose shards answer only once all %d hold a request: %v (%d arrived)", len(c.Servers), err, arrived.Load())
	}
}

// TestFanOutMatchesInProc: a Client whose per-shard RPCs go out as one
// round — over 4 loopback shards, and over 4 in-process fp32 links that
// call a transport — pulls the same bits as a Client over NewInProc's
// links on a twin cluster, before and after both push the same gradients.
func TestFanOutMatchesInProc(t *testing.T) {
	for _, over := range []string{"tcp", "in-process"} {
		c, keys := chattyCluster(t)
		twin, _ := chattyCluster(t)
		var cl *Client
		if over == "tcp" {
			cl, _ = fanOutClient(t, c, c)
		} else {
			tr, err := NewCodecTransport(NewInProc(c), c, ProfileFP32, netsim.CostModel{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			if cl, err = NewClient(0, c, tr, nil); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := NewClient(0, twin, NewInProc(twin), nil)
		if err != nil {
			t.Fatal(err)
		}
		start := settledGoroutines()
		pullBoth := func(what string) {
			got, want := map[Key][]float32{}, map[Key][]float32{}
			if err := cl.Pull(keys, got); err != nil {
				t.Fatal(err)
			}
			noGoroutineLeft(t, start, over+" "+what)
			if err := ref.Pull(keys, want); err != nil {
				t.Fatal(err)
			}
			bitEqualRows(t, over+" "+what, got, want)
		}
		pullBoth("first pull")
		for step := 0; step < 3; step++ {
			grads := map[Key][]float32{}
			for i, k := range keys {
				g := make([]float32, cl.Width(k))
				for j := range g {
					g[j] = float32(i*len(g)+j+step) * 1e-3
				}
				grads[k] = g
			}
			if err := cl.Push(grads); err != nil {
				t.Fatal(err)
			}
			noGoroutineLeft(t, start, over+" push")
			if err := ref.Push(grads); err != nil {
				t.Fatal(err)
			}
			pullBoth("pull after a push")
		}
	}
}

// shardByShard hides a LinkTransport behind the Transport interface.
type shardByShard struct{ Transport }

// TestFanOutDegradedKeysInShardOrder stops shards 1 and 3 under a live
// client: the pull and the push still reach shards 0 and 2, and the
// DegradedError lists the down shards' keys in the order the sequential
// path lists them — shard 1's, then shard 3's, each in request order —
// whichever RPC fails first. The sequential reference is a Client over the
// same links behind a Transport that is not a link, which calls them one
// shard at a time.
func TestFanOutDegradedKeysInShardOrder(t *testing.T) {
	c, keys := chattyCluster(t)
	cl, shards := fanOutClient(t, c, c)
	seq, err := NewClient(0, c, shardByShard{cl.links}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards[1].stop()
	shards[3].stop()
	start := settledGoroutines()

	degraded := func(cl *Client, op string) []Key {
		var err error
		if op == "pull" {
			err = cl.Pull(keys, map[Key][]float32{})
		} else {
			grads := map[Key][]float32{}
			for _, k := range keys {
				grads[k] = make([]float32, cl.Width(k))
			}
			err = cl.Push(grads)
		}
		var de *DegradedError
		if !errors.As(err, &de) || de.Op != op {
			t.Fatalf("%s with shards 1 and 3 down: %v, want a DegradedError", op, err)
		}
		var lde *LinkDownError
		if !errors.As(de.Err, &lde) || lde.Shard != 1 {
			t.Errorf("%s: degraded by %v, want shard 1's LinkDownError", op, de.Err)
		}
		return de.Keys
	}
	for _, op := range []string{"pull", "push"} {
		got := degraded(cl, op)
		noGoroutineLeft(t, start, op)
		want := degraded(seq, op)
		if len(got) != 2*len(keys)/4 {
			t.Fatalf("%s: %d keys reported down, want %d", op, len(got), 2*len(keys)/4)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: down key %d is %v, the sequential path's is %v", op, i, got[i], want[i])
			}
		}
		for i, k := range got {
			if s := c.Place.Shard(k); s != 1+2*(i/(len(got)/2)) {
				t.Fatalf("%s: down key %d (%v) is on shard %d", op, i, k, s)
			}
		}
	}

	// The healthy shards' rows still arrive.
	dst := map[Key][]float32{}
	cl.Pull(keys, dst)
	for _, k := range keys {
		if s := c.Place.Shard(k); (s == 0 || s == 2) != (dst[k] != nil) {
			t.Fatalf("row %v of shard %d: pulled %v", k, s, dst[k] != nil)
		}
	}
}

// TestFanOutReturnsShardOrderFirstRefusal: when shards 1 and 3 both refuse
// a request, the error returned is shard 1's, however the two replies race.
func TestFanOutReturnsShardOrderFirstRefusal(t *testing.T) {
	c, keys := chattyCluster(t)
	// The shards hold the entities of shards 1 and 3 the other way round
	// from the client's placement, so each refuses the keys it is sent.
	part := make([]int32, 4*len(keys))
	for i := range part {
		part[i] = int32(i % 4)
		if part[i]%2 == 1 {
			part[i] = 4 - part[i]
		}
	}
	served, err := NewCluster(ClusterConfig{
		NumMachines:  4,
		EntityPart:   part,
		NumRelations: 8,
		EntityDim:    16,
		RelationDim:  16,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := fanOutClient(t, c, served)
	start := settledGoroutines()
	for _, op := range []string{"pull", "push"} {
		for round := 0; round < 20; round++ {
			if op == "pull" {
				err = cl.Pull(keys, map[Key][]float32{})
			} else {
				grads := map[Key][]float32{}
				for _, k := range keys {
					grads[k] = make([]float32, cl.Width(k))
				}
				err = cl.Push(grads)
			}
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(err.Error(), "shard 1:") {
				t.Fatalf("%s refused by shards 1 and 3: %v, want shard 1's refusal", op, err)
			}
			noGoroutineLeft(t, start, op)
		}
	}
}

// TestFanOutRetriesAcrossReconnect breaks shard 2's connection under a
// live client before each push: the round's request to shard 2 fails on
// the wire while the others are out, and its link retries it on a fresh
// connection. Every push lands exactly once, so the rows stay bit-equal to
// a twin's behind NewInProc.
func TestFanOutRetriesAcrossReconnect(t *testing.T) {
	c, keys := chattyCluster(t)
	twin, _ := chattyCluster(t)
	addrs, _ := loopbackShards(t, c)
	tr, err := DialTCPLink(addrs, ProfileFP32, LinkConfig{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	reg := metrics.NewRegistry()
	tr.Instrument(reg)
	cl, err := NewClient(0, c, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewClient(0, twin, NewInProc(twin), nil)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	for step := 0; step < steps; step++ {
		tr.links[2].c.conn.Close()
		grads := map[Key][]float32{}
		for i, k := range keys {
			g := make([]float32, cl.Width(k))
			for j := range g {
				g[j] = float32(i+j+step) * 1e-3
			}
			grads[k] = g
		}
		if err := cl.Push(grads); err != nil {
			t.Fatalf("push across a reconnect: %v", err)
		}
		if err := ref.Push(grads); err != nil {
			t.Fatal(err)
		}
		got, want := map[Key][]float32{}, map[Key][]float32{}
		if err := cl.Pull(keys, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Pull(keys, want); err != nil {
			t.Fatal(err)
		}
		bitEqualRows(t, "pull after a push across a reconnect", got, want)
	}
	if got := reg.Counter(metrics.MPSLinkReconnects).Value(); got != steps {
		t.Errorf("reconnects = %d, want %d", got, steps)
	}
}
