package ps

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
)

func TestKeySpace(t *testing.T) {
	e := EntityKey(42)
	r := RelationKey(42)
	if e == r {
		t.Fatal("entity and relation keys collide")
	}
	if e.IsRelation() {
		t.Error("entity key claims to be a relation")
	}
	if !r.IsRelation() {
		t.Error("relation key does not claim to be a relation")
	}
	if e.Entity() != 42 || r.Relation() != 42 {
		t.Error("key round trip failed")
	}
	if e.String() != "e:42" || r.String() != "r:42" {
		t.Errorf("String() = %q, %q", e.String(), r.String())
	}
}

func TestPlacement(t *testing.T) {
	part := []int32{0, 1, 0, 1}
	p, err := NewPlacement(2, part)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	if p.Shard(EntityKey(1)) != 1 || p.Shard(EntityKey(2)) != 0 {
		t.Error("entity placement does not follow partition")
	}
	if p.Shard(RelationKey(0)) != 0 || p.Shard(RelationKey(1)) != 1 || p.Shard(RelationKey(2)) != 0 {
		t.Error("relation striping wrong")
	}
	if _, err := NewPlacement(0, part); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := NewPlacement(2, []int32{5}); err == nil {
		t.Error("out-of-range assignment accepted")
	}
}

func testClusterConfig(machines int) ClusterConfig {
	part := make([]int32, 20)
	for i := range part {
		part[i] = int32(i % machines)
	}
	return ClusterConfig{
		NumMachines:  machines,
		EntityPart:   part,
		NumRelations: 5,
		EntityDim:    8,
		RelationDim:  8,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         99,
	}
}

func testCluster(t *testing.T, machines int) *Cluster {
	t.Helper()
	c, err := NewCluster(testClusterConfig(machines))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestClusterInitDeterministicAcrossShardCounts(t *testing.T) {
	c1 := testCluster(t, 1)
	c2 := testCluster(t, 4)
	e1, r1, err := c1.GatherVia(NewInProc(c1))
	if err != nil {
		t.Fatalf("GatherVia: %v", err)
	}
	e2, r2, err := c2.GatherVia(NewInProc(c2))
	if err != nil {
		t.Fatalf("GatherVia: %v", err)
	}
	for i := range e1.Data {
		if e1.Data[i] != e2.Data[i] {
			t.Fatalf("entity init differs between 1 and 4 machines at %d", i)
		}
	}
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("relation init differs between 1 and 4 machines at %d", i)
		}
	}
}

func TestServerPullPush(t *testing.T) {
	c := testCluster(t, 1)
	srv := c.Servers[0]
	k := EntityKey(3)
	before, err := srv.Pull([]Key{k})
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	grad := make([]float32, 8)
	grad[0] = 1
	if err := srv.Push([]Key{k}, grad); err != nil {
		t.Fatalf("Push: %v", err)
	}
	after, _ := srv.Pull([]Key{k})
	if after[0] != before[0]-0.1 { // SGD lr=0.1
		t.Errorf("after push: %v, want %v", after[0], before[0]-0.1)
	}
	for i := 1; i < 8; i++ {
		if after[i] != before[i] {
			t.Errorf("untouched coordinate %d changed", i)
		}
	}
}

// refusedPushLeavesRows pushes a bad request whose leading keys are valid
// and asserts both that it is refused and that no row changed: a refused
// push must not be partially applied (the link layer skips markPush on
// error, so exactly-once accounting assumes nothing landed).
func refusedPushLeavesRows(t *testing.T, srv *Server, keys []Key, vals []float32, what string) {
	t.Helper()
	owned := keys[:1]
	before, err := srv.Pull(owned)
	if err != nil {
		t.Fatalf("Pull: %v", err)
	}
	if err := srv.Push(keys, vals); err == nil {
		t.Errorf("%s accepted", what)
	}
	after, _ := srv.Pull(owned)
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("%s was partially applied: row %v changed", what, owned[0])
		}
	}
}

func ones(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestServerRejectsUnknownKey(t *testing.T) {
	c := testCluster(t, 2)
	// Shard 0 owns even entities only.
	if _, err := c.Servers[0].Pull([]Key{EntityKey(1)}); err == nil {
		t.Error("pull of unowned key accepted")
	}
	if err := c.Servers[0].Push([]Key{EntityKey(1)}, make([]float32, 8)); err == nil {
		t.Error("push to unowned key accepted")
	}
	refusedPushLeavesRows(t, c.Servers[0], []Key{EntityKey(0), EntityKey(1)}, ones(16),
		"push naming an unowned key after an owned one")
}

func TestServerRejectsShortPayload(t *testing.T) {
	c := testCluster(t, 1)
	if err := c.Servers[0].Push([]Key{EntityKey(0)}, make([]float32, 3)); err == nil {
		t.Error("short payload accepted")
	}
	if err := c.Servers[0].Push([]Key{EntityKey(0)}, make([]float32, 12)); err == nil {
		t.Error("oversized payload accepted")
	}
	refusedPushLeavesRows(t, c.Servers[0], []Key{EntityKey(0), EntityKey(1)}, ones(12),
		"payload short at the second key")
	refusedPushLeavesRows(t, c.Servers[0], []Key{EntityKey(0), EntityKey(1)}, ones(20),
		"payload with leftover values")
}

func TestServerDropsNonFiniteGradients(t *testing.T) {
	c := testCluster(t, 1)
	srv := c.Servers[0]
	k := EntityKey(0)
	before, _ := srv.Pull([]Key{k})
	bad := make([]float32, 8)
	bad[0] = float32(math.Inf(1))
	if err := srv.Push([]Key{k}, bad); err != nil {
		t.Fatalf("Push: %v", err)
	}
	after, _ := srv.Pull([]Key{k})
	for i := range after {
		if after[i] != before[i] {
			t.Fatal("non-finite gradient was applied")
		}
	}
}

func TestClientRoutesAndMeters(t *testing.T) {
	c := testCluster(t, 2)
	var meter netsim.Meter
	cl, err := NewClient(0, c, NewInProc(c), &meter)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	keys := []Key{EntityKey(0), EntityKey(1), EntityKey(2), RelationKey(0), RelationKey(1)}
	dst := make(map[Key][]float32)
	if err := cl.Pull(keys, dst); err != nil {
		t.Fatalf("Pull: %v", err)
	}
	if len(dst) != 5 {
		t.Fatalf("pulled %d rows, want 5", len(dst))
	}
	for k, row := range dst {
		if len(row) != 8 {
			t.Errorf("row %v has width %d", k, len(row))
		}
	}
	s := meter.Snapshot()
	// Keys split across both shards: 1 local RPC (shard 0) + 1 remote (shard 1).
	if s.LocalMsgs != 1 || s.RemoteMsgs != 1 {
		t.Errorf("meter = %+v, want 1 local + 1 remote pull", s)
	}
	grads := map[Key][]float32{
		EntityKey(0): make([]float32, 8),
		EntityKey(1): make([]float32, 8),
	}
	if err := cl.Push(grads); err != nil {
		t.Fatalf("Push: %v", err)
	}
	s = meter.Snapshot()
	if s.LocalMsgs != 2 || s.RemoteMsgs != 2 {
		t.Errorf("meter after push = %+v, want 2 local + 2 remote", s)
	}
	if s.RemoteBytes == 0 || s.LocalBytes == 0 {
		t.Error("byte accounting missing")
	}
}

func TestClientValidation(t *testing.T) {
	c := testCluster(t, 2)
	if _, err := NewClient(5, c, NewInProc(c), nil); err == nil {
		t.Error("out-of-range machine accepted")
	}
	cl, _ := NewClient(0, c, NewInProc(c), nil)
	if err := cl.Push(map[Key][]float32{EntityKey(0): make([]float32, 3)}); err == nil {
		t.Error("wrong-width gradient accepted")
	}
	if err := cl.Push(nil); err != nil {
		t.Errorf("empty push should be a no-op, got %v", err)
	}
	keys := []Key{EntityKey(0), EntityKey(1)}
	if err := cl.PullRows(keys, [][]float32{make([]float32, 8)}); err == nil {
		t.Error("pull with fewer rows than keys accepted")
	}
	if err := cl.PullRows(keys, [][]float32{make([]float32, 8), make([]float32, 3)}); err == nil {
		t.Error("pull into a short row accepted")
	}
	if err := cl.PushRows(keys, [][]float32{make([]float32, 8), make([]float32, 9)}); err == nil {
		t.Error("wrong-width gradient row accepted")
	}
}

// TestClientRowsMatchMaps holds the slot path to the map-taking wrappers:
// PullRows fills each caller row with its key's values, in any key order
// across shards, and PushRows lands exactly what Push does.
func TestClientRowsMatchMaps(t *testing.T) {
	a, b := testCluster(t, 3), testCluster(t, 3)
	ca, _ := NewClient(1, a, NewInProc(a), nil)
	cb, _ := NewClient(1, b, NewInProc(b), nil)
	keys := []Key{EntityKey(7), RelationKey(4), EntityKey(0), EntityKey(11), RelationKey(0), EntityKey(2)}
	rows := make([][]float32, len(keys))
	grads := make(map[Key][]float32)
	for i, k := range keys {
		rows[i] = make([]float32, ca.Width(k))
		g := make([]float32, ca.Width(k))
		for j := range g {
			g[j] = float32(i+1) * 0.01 * float32(j-3)
		}
		grads[k] = g
	}
	check := func(when string) {
		t.Helper()
		if err := ca.PullRows(keys, rows); err != nil {
			t.Fatal(err)
		}
		want := make(map[Key][]float32)
		if err := cb.Pull(keys, want); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if !slices.Equal(rows[i], want[k]) {
				t.Fatalf("%s: PullRows row %v = %v, Pull gives %v", when, k, rows[i], want[k])
			}
		}
	}
	check("before push")
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	gradRows := make([][]float32, len(sorted))
	for i, k := range sorted {
		gradRows[i] = slices.Clone(grads[k])
	}
	if err := ca.PushRows(sorted, gradRows); err != nil {
		t.Fatal(err)
	}
	if err := cb.Push(grads); err != nil {
		t.Fatal(err)
	}
	check("after push")
	for i, k := range sorted {
		if !slices.Equal(gradRows[i], grads[k]) {
			t.Fatalf("PushRows changed the caller's row for %v", k)
		}
	}
}

func TestPullModifyPushIsolation(t *testing.T) {
	// Rows returned by Pull must be copies: mutating them must not change
	// server state without a Push.
	c := testCluster(t, 1)
	cl, _ := NewClient(0, c, NewInProc(c), nil)
	dst := make(map[Key][]float32)
	k := EntityKey(0)
	if err := cl.Pull([]Key{k}, dst); err != nil {
		t.Fatal(err)
	}
	dst[k][0] = 12345
	dst2 := make(map[Key][]float32)
	if err := cl.Pull([]Key{k}, dst2); err != nil {
		t.Fatal(err)
	}
	if dst2[k][0] == 12345 {
		t.Error("Pull returned a reference into server storage")
	}
}

func TestConcurrentClients(t *testing.T) {
	c := testCluster(t, 2)
	tr := NewInProc(c)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := NewClient(w%2, c, tr, nil)
			if err != nil {
				t.Error(err)
				return
			}
			keys := []Key{EntityKey(kg.EntityID(w)), RelationKey(0)}
			for i := 0; i < 100; i++ {
				dst := make(map[Key][]float32)
				if err := cl.Pull(keys, dst); err != nil {
					t.Error(err)
					return
				}
				g := map[Key][]float32{keys[0]: make([]float32, 8)}
				g[keys[0]][0] = 0.001
				if err := cl.Push(g); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTCPTransportIntegration(t *testing.T) {
	c := testCluster(t, 2)
	var addrs []string
	var listeners []net.Listener
	for _, srv := range c.Servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
		go ServeTCP(l, srv)
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	tr, err := DialTCPLink(addrs, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatalf("DialTCPLink: %v", err)
	}
	defer tr.Close()

	cl, _ := NewClient(0, c, tr, nil)
	keys := []Key{EntityKey(0), EntityKey(1), RelationKey(3)}
	dst := make(map[Key][]float32)
	if err := cl.Pull(keys, dst); err != nil {
		t.Fatalf("TCP Pull: %v", err)
	}
	if len(dst) != 3 {
		t.Fatalf("pulled %d rows over TCP, want 3", len(dst))
	}
	// Push a gradient and confirm it took effect.
	before := dst[EntityKey(0)][0]
	grad := make([]float32, 8)
	grad[0] = 1
	if err := cl.Push(map[Key][]float32{EntityKey(0): grad}); err != nil {
		t.Fatalf("TCP Push: %v", err)
	}
	dst2 := make(map[Key][]float32)
	if err := cl.Pull([]Key{EntityKey(0)}, dst2); err != nil {
		t.Fatal(err)
	}
	if got := dst2[EntityKey(0)][0]; got != before-0.1 {
		t.Errorf("TCP push not applied: %v, want %v", got, before-0.1)
	}
	// Error propagation over the wire.
	if _, err := tr.Pull(0, &PullRequest{Keys: []Key{EntityKey(1)}}); err == nil {
		t.Error("unowned key over TCP did not error")
	}
}

// TestShardOfOtherWidthRefusedAtDial: a shard fleet started for another
// dimension (or a model with other row widths) is refused when the trainer's
// client is built, by an error naming the shard, both widths and the flags
// to fix. Wider shard rows used to be sliced into the trainer's width and
// trained on for a batch; narrower ones failed the first pull as "short".
func TestShardOfOtherWidthRefusedAtDial(t *testing.T) {
	trainer := testClusterDim(t, 1, 4, 16)
	for _, shardDim := range []int{32, 8} {
		fleet := testClusterDim(t, 1, 4, shardDim)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go ServeTCP(l, fleet.Servers[0])
		tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		_, err = NewClient(0, trainer, tr, nil)
		if err == nil {
			t.Fatalf("dim-%d shard accepted by a dim-16 trainer", shardDim)
		}
		for _, want := range []string{"shard 0", l.Addr().String(), fmt.Sprintf("%d/%d", shardDim, shardDim), "16/16", "-model", "-dim"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("dim-%d shard: error %q does not name %q", shardDim, err, want)
			}
		}
	}
}

// overfullPulls answers every pull with one value more than was asked for.
type overfullPulls struct{ Transport }

func (o overfullPulls) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	resp, err := o.Transport.Pull(shard, req)
	if err == nil {
		resp.Vals = append(resp.Vals, 0)
	}
	return resp, err
}

// TestPullLeftoverValuesRefused: a pull response longer than the requested
// rows is an error, not silently truncated.
func TestPullLeftoverValuesRefused(t *testing.T) {
	c := testCluster(t, 1)
	cl, err := NewClient(0, c, overfullPulls{NewInProc(c)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Pull([]Key{EntityKey(0), RelationKey(1)}, map[Key][]float32{}); err == nil {
		t.Fatal("pull response with a value left over accepted")
	}
}

func TestTCPAgreesWithInProc(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, c.Servers[0])
	tcp, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	inproc := NewInProc(c)
	req := &PullRequest{Keys: []Key{EntityKey(7), RelationKey(2)}}
	a, err := tcp.Pull(0, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inproc.Pull(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Vals) != len(b.Vals) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Vals), len(b.Vals))
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatalf("value %d differs: %v vs %v", i, a.Vals[i], b.Vals[i])
		}
	}
}

func TestWireSizes(t *testing.T) {
	if PullRequestBytes(10) != 16+80 {
		t.Error("PullRequestBytes wrong")
	}
	if PullResponseBytes(100) != 16+400 {
		t.Error("PullResponseBytes wrong")
	}
	if PushRequestBytes(10, 100) != 16+80+400 {
		t.Error("PushRequestBytes wrong")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	base := ClusterConfig{
		NumMachines:  1,
		EntityPart:   []int32{0},
		NumRelations: 1,
		EntityDim:    4,
		RelationDim:  4,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
	}
	bad := base
	bad.NumMachines = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("0 machines accepted")
	}
	bad = base
	bad.NumRelations = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("0 relations accepted")
	}
	bad = base
	bad.NewOptimizer = nil
	if _, err := NewCluster(bad); err == nil {
		t.Error("nil optimizer accepted")
	}
	bad = base
	bad.EntityDim = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("0 dim accepted")
	}
}

func TestNewClusterShardMatchesFullCluster(t *testing.T) {
	part := make([]int32, 20)
	for i := range part {
		part[i] = int32(i % 3)
	}
	cfg := ClusterConfig{
		NumMachines:  3,
		EntityPart:   part,
		NumRelations: 5,
		EntityDim:    8,
		RelationDim:  8,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         99,
	}
	full, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 3; m++ {
		shard, err := NewClusterShard(cfg, m)
		if err != nil {
			t.Fatalf("NewClusterShard(%d): %v", m, err)
		}
		if shard.NumRows() != full.Servers[m].NumRows() {
			t.Fatalf("shard %d has %d rows, full cluster's has %d",
				m, shard.NumRows(), full.Servers[m].NumRows())
		}
		var owned []Key
		for e := range part {
			owned = append(owned, EntityKey(kg.EntityID(e)))
		}
		for r := 0; r < cfg.NumRelations; r++ {
			owned = append(owned, RelationKey(kg.RelationID(r)))
		}
		owned = slices.DeleteFunc(owned, func(k Key) bool { return full.Place.Shard(k) != m })
		for _, k := range owned {
			want, _ := full.Servers[m].Pull([]Key{k})
			got, err := shard.Pull([]Key{k})
			if err != nil {
				t.Fatalf("shard %d missing %v", m, k)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shard %d row %v differs at %d", m, k, i)
				}
			}
		}
	}
	if _, err := NewClusterShard(cfg, 3); err == nil {
		t.Error("out-of-range machine accepted")
	}
}

// TestGatherViaMatchesDirectGather checks the batched per-shard gather
// against reading every row directly from the shard that owns it.
func TestGatherViaMatchesDirectGather(t *testing.T) {
	c := testCluster(t, 2)
	ve, vr, err := c.GatherVia(NewInProc(c))
	if err != nil {
		t.Fatal(err)
	}
	direct := func(k Key) []float32 {
		row, err := c.Servers[c.Place.Shard(k)].Pull([]Key{k})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	for e := 0; e < ve.Rows; e++ {
		if !slices.Equal(ve.Row(e), direct(EntityKey(kg.EntityID(e)))) {
			t.Fatalf("GatherVia entity %d differs from its shard's row", e)
		}
	}
	for r := 0; r < vr.Rows; r++ {
		if !slices.Equal(vr.Row(r), direct(RelationKey(kg.RelationID(r)))) {
			t.Fatalf("GatherVia relation %d differs from its shard's row", r)
		}
	}
}

// TestLayoutHostsNoShards: a layout holds the placement, widths and counts of
// the cluster it describes and no shard. Its clients and gathers run over
// links to shards hosted elsewhere; handed a Transport that is not a link,
// NewClient refuses it instead of indexing shards the layout does not have.
func TestLayoutHostsNoShards(t *testing.T) {
	layout, err := NewLayout(testClusterConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Servers) != 0 {
		t.Fatalf("layout hosts %d shards, want none", len(layout.Servers))
	}
	hosted := testCluster(t, 2)
	if _, err := NewClient(0, layout, struct{ Transport }{NewInProc(hosted)}, nil); err == nil {
		t.Error("a layout's client took a transport that is not a link")
	}
	if _, err := NewCodecTransport(nil, layout, ProfileFP32, netsim.Default1Gbps()); err == nil {
		t.Error("a layout was put behind in-process links")
	}

	addrs, _ := loopbackShards(t, hosted)
	tr, err := DialTCPLink(addrs, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := NewClient(1, layout, tr, nil); err != nil {
		t.Fatalf("a layout's client over TCP links: %v", err)
	}
	le, lr, err := layout.GatherVia(tr)
	if err != nil {
		t.Fatal(err)
	}
	he, hr, err := hosted.GatherVia(NewInProc(hosted))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(le.Data, he.Data) || !slices.Equal(lr.Data, hr.Data) {
		t.Error("gathering through a layout differs from gathering the hosted cluster")
	}
}
