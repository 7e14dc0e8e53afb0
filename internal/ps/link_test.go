package ps

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"hetkg/internal/chaos"
	"hetkg/internal/kg"
	"hetkg/internal/metrics"
)

// linkClock drives the breaker and backoff deterministically: Now returns
// the current fake instant, Sleep records the request and advances it.
type linkClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func newLinkClock() *linkClock {
	return &linkClock{now: time.Unix(1000, 0)}
}

func (f *linkClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *linkClock) Sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slept = append(f.slept, d)
	f.now = f.now.Add(d)
}

func (f *linkClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

func (f *linkClock) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.slept...)
}

// TestBackoffDeterministicJitter pins the retry schedule: exponential
// growth from retryBase capped at retryMax, each delay jittered into
// [d/2, d), and bit-identical across links built from the same seed.
// Eight attempts reach the cap (25ms·2^7 > 1s).
func TestBackoffDeterministicJitter(t *testing.T) {
	const attempts = 8
	mk := func(seed int64) *link {
		return &link{rng: splitmix64(uint64(seed))}
	}
	a, b := mk(7), mk(7)
	var first []time.Duration
	for n := 1; n <= attempts; n++ {
		da, db := a.backoff(n), b.backoff(n)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", n, da, db)
		}
		base := retryBase << (n - 1)
		if base > retryMax {
			base = retryMax
		}
		if da < base/2 || da >= base {
			t.Errorf("attempt %d: backoff %v outside [%v, %v)", n, da, base/2, base)
		}
		first = append(first, da)
	}
	// A different seed must produce a different schedule.
	c := mk(8)
	same := true
	for n := 1; n <= attempts; n++ {
		if c.backoff(n) != first[n-1] {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical backoff schedules")
	}
}

// TestBreakerStateMachine drives closed → open → half-open → closed and
// the half-open probe-failure re-open, all on the fake clock.
func TestBreakerStateMachine(t *testing.T) {
	clk := newLinkClock()
	b := breaker{threshold: 3}

	// Below threshold stays closed.
	for i := 0; i < 2; i++ {
		if b.failure(clk.Now()) {
			t.Fatalf("failure %d tripped below threshold", i)
		}
		if !b.allow(clk.Now()) {
			t.Fatalf("closed breaker rejected call after failure %d", i)
		}
	}
	// Threshold trips exactly once.
	if !b.failure(clk.Now()) {
		t.Fatal("threshold failure did not trip")
	}
	if b.allow(clk.Now()) {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	// Cooldown elapses: exactly one half-open probe.
	clk.Advance(breakerCooldown)
	if !b.allow(clk.Now()) {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	// Probe failure re-opens without counting as a new trip.
	if b.failure(clk.Now()) {
		t.Fatal("half-open probe failure counted as a fresh trip")
	}
	if b.allow(clk.Now()) {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
	// Second probe succeeds: recovered.
	clk.Advance(breakerCooldown)
	if !b.allow(clk.Now()) {
		t.Fatal("second probe refused")
	}
	if !b.success() {
		t.Fatal("closing success not reported as recovery")
	}
	if !b.allow(clk.Now()) || b.state != breakerClosed {
		t.Fatal("breaker not closed after recovery")
	}
	// A success on a closed breaker is not a recovery.
	if b.success() {
		t.Fatal("steady-state success reported as recovery")
	}
}

// chaosShard serves cluster shard 0 through a chaos injector, returning
// the listener address.
func chaosShard(t *testing.T, c *Cluster, inj *chaos.Injector) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go ServeTCP(inj.Listen(l), c.Servers[0])
	return l.Addr().String()
}

// TestRetryReconnectTransparent kills the server-side connection under a
// live transport and verifies the next pull retries, reconnects, and
// returns correct values — with the ps.link.* counters recording exactly
// one reconnect.
func TestRetryReconnectTransparent(t *testing.T) {
	c := testCluster(t, 1)
	inj := chaos.NewInjector()
	addr := chaosShard(t, c, inj)

	clk := newLinkClock()
	tr, err := DialTCPLink([]string{addr}, ProfileFP32, LinkConfig{
		RPCTimeout: 2 * time.Second, Retries: 3, Seed: 1,
		Now: clk.Now, Sleep: clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.NewRegistry()
	tr.Instrument(reg)

	keys := []Key{EntityKey(0), RelationKey(1)}
	ref, err := NewInProc(c).Pull(0, &PullRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
		t.Fatalf("healthy pull: %v", err)
	}

	// Kill every future read on the server's first connection. The server
	// is already parked inside a Read whose chaos index predates the rule,
	// so one more pull rides that pending read; the one after it hits the
	// reset and must survive via retry + reconnect.
	inj.Add(chaos.Rule{Conn: 0, Op: chaos.OpRead, Count: -1, Fault: chaos.FaultReset})
	if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
		t.Fatalf("pull on pending read: %v", err)
	}
	resp, err := tr.Pull(0, &PullRequest{Keys: keys})
	if err != nil {
		t.Fatalf("pull across reconnect: %v", err)
	}
	for i := range resp.Vals {
		if resp.Vals[i] != ref.Vals[i] {
			t.Fatalf("value %d differs after reconnect: %v vs %v", i, resp.Vals[i], ref.Vals[i])
		}
	}
	if got := reg.Counter(metrics.MPSLinkReconnects).Value(); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if got := reg.Counter(metrics.MPSLinkRetries).Value(); got < 1 {
		t.Errorf("retries = %d, want >= 1", got)
	}
	if got := reg.Counter(metrics.MPSLinkFailures).Value(); got < 1 {
		t.Errorf("failures = %d, want >= 1", got)
	}
	if slept := clk.Slept(); len(slept) == 0 {
		t.Error("no backoff sleep recorded across the retry")
	}
}

// TestDeadlineExceeded stalls the server past the RPC timeout with
// retries disabled: the call must fail as ErrLinkDown and count a
// deadline hit.
func TestDeadlineExceeded(t *testing.T) {
	c := testCluster(t, 1)
	inj := chaos.NewInjector()
	addr := chaosShard(t, c, inj)

	tr, err := DialTCPLink([]string{addr}, ProfileFP32, LinkConfig{
		RPCTimeout: 150 * time.Millisecond, Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.NewRegistry()
	tr.Instrument(reg)

	// Every further server read sleeps well past the client deadline. A
	// Read the server already has pending predates the rule and serves one
	// more pull; whether it was parked there yet when the rule landed is the
	// scheduler's call, so the stall hits the first pull or the second.
	inj.Add(chaos.Rule{Conn: 0, Op: chaos.OpRead, Count: -1, Fault: chaos.FaultStall, Stall: 2 * time.Second})
	_, err = tr.Pull(0, &PullRequest{Keys: []Key{EntityKey(0)}})
	if err == nil {
		_, err = tr.Pull(0, &PullRequest{Keys: []Key{EntityKey(0)}})
	}
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("stalled pull error = %v, want ErrLinkDown", err)
	}
	var ld *LinkDownError
	if !errors.As(err, &ld) || ld.Shard != 0 {
		t.Fatalf("error %v does not carry the shard", err)
	}
	if got := reg.Counter(metrics.MPSLinkDeadlineExceeded).Value(); got < 1 {
		t.Errorf("deadline_exceeded = %d, want >= 1", got)
	}
}

// TestBreakerFailFastAndRecovery takes the shard fully down, watches the
// breaker open (trips counter + gauge), verifies fail-fast rejections
// carry Breaker=true, then brings the shard back and watches the link
// recover through the half-open probe.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go ServeTCP(l, c.Servers[0])

	clk := newLinkClock()
	tr, err := DialTCPLink([]string{addr}, ProfileFP32, LinkConfig{
		RPCTimeout: 500 * time.Millisecond, Retries: -1, BreakerThreshold: 2,
		Now: clk.Now, Sleep: clk.Sleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.NewRegistry()
	tr.Instrument(reg)

	keys := []Key{EntityKey(0)}
	if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
		t.Fatalf("healthy pull: %v", err)
	}

	// Take the shard down completely.
	l.Close()
	tr.links[0].mu.Lock()
	tr.links[0].c.conn.Close()
	tr.links[0].mu.Unlock()

	// Two failed calls reach the threshold and trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := tr.Pull(0, &PullRequest{Keys: keys}); !errors.Is(err, ErrLinkDown) {
			t.Fatalf("down pull %d: %v, want ErrLinkDown", i, err)
		}
	}
	if got := reg.Counter(metrics.MPSLinkBreakerTrips).Value(); got != 1 {
		t.Fatalf("breaker_trips = %d, want 1", got)
	}
	if got := reg.Snapshot()[metrics.MPSLinkBreakerOpen].Value; got != 1 {
		t.Fatalf("breaker_open gauge = %v, want 1", got)
	}
	if tr.LinksDown() != 1 {
		t.Fatalf("LinksDown() = %d, want 1", tr.LinksDown())
	}

	// Within the cooldown, calls fail fast without touching the wire.
	failuresBefore := reg.Counter(metrics.MPSLinkFailures).Value()
	_, err = tr.Pull(0, &PullRequest{Keys: keys})
	var ld *LinkDownError
	if !errors.As(err, &ld) || !ld.Breaker {
		t.Fatalf("cooldown pull error = %v, want breaker fail-fast", err)
	}
	if got := reg.Counter(metrics.MPSLinkFailures).Value(); got != failuresBefore {
		t.Errorf("fail-fast rejection counted a wire failure (%d -> %d)", failuresBefore, got)
	}

	// Shard returns; after the cooldown the half-open probe succeeds and
	// the gauge clears.
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer l2.Close()
	go ServeTCP(l2, c.Servers[0])
	clk.Advance(2 * breakerCooldown)
	if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
		t.Fatalf("recovered pull: %v", err)
	}
	if got := reg.Snapshot()[metrics.MPSLinkBreakerOpen].Value; got != 0 {
		t.Errorf("breaker_open gauge = %v after recovery, want 0", got)
	}
	if tr.LinksDown() != 0 {
		t.Errorf("LinksDown() = %d after recovery, want 0", tr.LinksDown())
	}
}

// TestDialPartialFailureClosesConns pins the dial-cleanup contract: when
// a later shard's dial fails, connections already established to earlier
// shards are closed before DialTCPLink returns (no leaked sockets).
func TestDialPartialFailureClosesConns(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// A hand-rolled accept + handshake so the test holds the server side
	// of shard 0's connection and can watch it for the close: after the
	// handshake, the next frame read returns EOF exactly when the client
	// closes the socket.
	sawClose := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			sawClose <- err
			return
		}
		defer conn.Close()
		fr := &frameReader{r: bufio.NewReader(conn)}
		if _, _, err := handshakeServer(fr, conn, c.Servers[0], nil); err != nil {
			sawClose <- err
			return
		}
		_, err = fr.next(maxRequestBody(c.Servers[0], false))
		sawClose <- err
	}()

	// Shard 1's address accepts nothing: grab a free port and close it.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	tr, err := DialTCPLink([]string{l.Addr().String(), deadAddr}, ProfileFP32, LinkConfig{RPCTimeout: time.Second})
	if err == nil {
		tr.Close()
		t.Fatal("dial with a dead shard succeeded")
	}
	if tr != nil {
		t.Fatal("failed dial returned a transport")
	}
	select {
	case err := <-sawClose:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("server observed %v on shard 0's connection, want EOF from cleanup close", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shard 0's connection was never closed after the failed dial")
	}
}

// TestPushRetryExactlyOnce loses a push RESPONSE (the gradient landed,
// the ack did not): the client retries under the same sequence number on
// a fresh connection and the server must deduplicate, applying the
// gradient exactly once.
func TestPushRetryExactlyOnce(t *testing.T) {
	// Twin clusters: control sees the push once, chaos sees it through a
	// lost response + retry. Final rows must match bit-for-bit.
	ctrl := testCluster(t, 1)
	vict := testCluster(t, 1)
	inj := chaos.NewInjector()
	addr := chaosShard(t, vict, inj)

	tr, err := DialTCPLink([]string{addr}, ProfileFP32, LinkConfig{
		RPCTimeout: 2 * time.Second, Retries: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	key := []Key{EntityKey(0)}
	w := vict.Servers[0].Width(EntityKey(0))
	grad := make([]float32, w)
	for i := range grad {
		grad[i] = 0.5
	}

	// Server write indices on the connection: handshake ack = 0, so the
	// first request's response is write 1. Kill exactly that write: the
	// push applies, the ack dies with the connection, the client retries.
	inj.Add(chaos.Rule{Conn: 0, Op: chaos.OpWrite, After: 1, Fault: chaos.FaultReset})
	if err := tr.Push(0, &PushRequest{Keys: key, Vals: grad}); err != nil {
		t.Fatalf("push across lost response: %v", err)
	}
	if err := NewInProc(ctrl).Push(0, &PushRequest{Keys: key, Vals: grad}); err != nil {
		t.Fatal(err)
	}

	got, err := vict.Servers[0].Pull(key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctrl.Servers[0].Pull(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d: retried push applied twice (%v) vs once (%v)", i, got[i], want[i])
		}
	}
}

// TestWireDedupAcrossConnections drives the dedup table directly: two raw
// connections sharing a link identity send the same (Seq) push; the
// second must be acknowledged without a second apply.
func TestWireDedupAcrossConnections(t *testing.T) {
	ctrl := testCluster(t, 1)
	vict := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, vict.Servers[0])

	prof, err := ResolveProfile(ProfileFP32)
	if err != nil {
		t.Fatal(err)
	}
	key := []Key{EntityKey(3)}
	w := vict.Servers[0].Width(EntityKey(3))
	grad := make([]float32, w)
	for i := range grad {
		grad[i] = 0.25
	}
	const linkID = 77

	sendPush := func() {
		t.Helper()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		c, err := handshakeClient(conn, prof, linkID)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := c.lc.encodePush(nil, key, append([]float32(nil), grad...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.roundTrip(&wireRequest{Op: 'U', Keys: key, Payload: payload, Seq: 5}); err != nil {
			t.Fatalf("push: %v", err)
		}
	}
	sendPush() // applies
	sendPush() // same link+seq on a new connection: deduplicated

	if err := NewInProc(ctrl).Push(0, &PushRequest{Keys: key, Vals: grad}); err != nil {
		t.Fatal(err)
	}
	got, err := vict.Servers[0].Pull(key)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctrl.Servers[0].Pull(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("value %d: duplicate push applied (%v) vs once (%v)", i, got[i], want[i])
		}
	}
}

// TestLoopbackPullPushAllocs pins what one loopback pull plus push
// allocates, worker and shard together (both live in this process): 2, the
// PullResponse and the fresh rows a single Pull hands back. It was 31 for
// fp32 and 34 for delta-int8 while gob framed every message.
func TestLoopbackPullPushAllocs(t *testing.T) {
	for _, tc := range []struct {
		profile string
		pin     float64
	}{{ProfileFP32, 2}, {ProfileDeltaInt8, 2}} {
		c := testClusterDim(t, 1, 32, 64)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go ServeTCP(l, c.Servers[0])
		tr, err := DialTCPLink([]string{l.Addr().String()}, tc.profile, LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		keys := make([]Key, 8)
		for i := range keys {
			keys[i] = EntityKey(kg.EntityID(i))
		}
		grad := make([]float32, len(keys)*64)
		step := func() {
			if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
				t.Fatal(err)
			}
			for i := range grad {
				grad[i] = 0.001
			}
			if err := tr.Push(0, &PushRequest{Keys: keys, Vals: grad}); err != nil {
				t.Fatal(err)
			}
		}
		step() // scratch growth happens once
		if n := testing.AllocsPerRun(200, step); n > tc.pin {
			t.Errorf("%s: %v allocs per loopback pull+push, want <= %v", tc.profile, n, tc.pin)
		}
	}
}

// TestClientRoundAllocs pins what one Client pull plus push allocates in
// BenchmarkClientPullPush's shape (27 dim-16 rows on each of 4 shards),
// worker and shards together, on the slot path: PullRows into the caller's
// rows and PushRows from them, 0, over loopback shards and over fp32
// in-process links alike. Over sockets each message is one binary frame
// read into and written from buffers its connection reuses, the shard
// pulls into its session's scratch, and the client decodes each shard's
// rows into its own; in process the shard's rows are copied straight into
// the client's. Over sockets it was 120 while gob framed every message (a
// request struct, a decoded reply buffer and gob's own allocations per
// shard, and the shard's fresh rows per pull), 292 through the map-taking
// Pull and Push, whose merge made a row per key and whose push sorted its
// keys and built a fresh payload per shard, and 339 while the round built
// closures and per-round slices beside a per-call path.
func TestClientRoundAllocs(t *testing.T) {
	for _, over := range []string{"tcp", "in-process"} {
		t.Run(over, func(t *testing.T) {
			c, keys := chattyCluster(t)
			var tr *LinkTransport
			if over == "tcp" {
				addrs, _ := loopbackShards(t, c)
				var err error
				if tr, err = DialTCPLink(addrs, ProfileFP32, LinkConfig{}); err != nil {
					t.Fatal(err)
				}
			} else {
				tr = NewInProc(c)
			}
			defer tr.Close()
			cl, err := NewClient(0, c, tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, grads := make([][]float32, len(keys)), make([][]float32, len(keys))
			for i, k := range keys {
				rows[i], grads[i] = make([]float32, cl.Width(k)), make([]float32, cl.Width(k))
			}
			step := func() {
				if err := cl.PullRows(keys, rows); err != nil {
					t.Fatal(err)
				}
				for _, g := range grads {
					for i := range g {
						g[i] = 1e-6
					}
				}
				if err := cl.PushRows(keys, grads); err != nil {
					t.Fatal(err)
				}
			}
			step() // scratch growth happens once
			if n := testing.AllocsPerRun(200, step); n > 0 {
				t.Errorf("%v allocs per client pull+push over 4 shards, want 0", n)
			}
		})
	}
}
