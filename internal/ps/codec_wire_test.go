package ps

import (
	"math/rand"
	"net"
	"strings"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/opt"
)

// testClusterDim builds a single-purpose cluster with a chosen row width —
// the codec ratio and byte-accounting tests need rows wide enough that
// per-row headers are amortized, unlike testCluster's width-8 rows.
func testClusterDim(t *testing.T, machines, entities, dim int) *Cluster {
	t.Helper()
	part := make([]int32, entities)
	for i := range part {
		part[i] = int32(i % machines)
	}
	c, err := NewCluster(ClusterConfig{
		NumMachines:  machines,
		EntityPart:   part,
		NumRelations: 5,
		EntityDim:    dim,
		RelationDim:  dim,
		NewOptimizer: func() opt.Optimizer { return &opt.SGD{LR: 0.1} },
		Seed:         99,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestDeltaCompressionRatio is the PR's acceptance pin: at realistic row
// widths (64 floats) the delta-int8 profile must shrink pull+push payloads
// at least 3x versus the fp32 baseline, measured exactly where the
// experiment harness measures it — the ps.codec.bytes_raw and
// ps.codec.bytes_wire counters — with the steady state dominated by
// delta-framed rows (ps.codec.rows_delta).
func TestDeltaCompressionRatio(t *testing.T) {
	const dim, rows, iters = 64, 16, 10
	c := testClusterDim(t, 1, 32, dim)
	tr, err := NewCodecTransport(NewInProc(c), c, ProfileDeltaInt8, netsim.Default1Gbps())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := metrics.NewRegistry()
	tr.Instrument(reg)

	keys := make([]Key, rows)
	for i := range keys {
		keys[i] = EntityKey(kg.EntityID(i))
	}
	grad := make([]float32, rows*dim)
	for it := 0; it < iters; it++ {
		if _, err := tr.Pull(0, &PullRequest{Keys: keys}); err != nil {
			t.Fatalf("iter %d: pull: %v", it, err)
		}
		for i := range grad {
			grad[i] = 0.001 * float32(i%7)
		}
		if err := tr.Push(0, &PushRequest{Keys: keys, Vals: grad}); err != nil {
			t.Fatalf("iter %d: push: %v", it, err)
		}
	}
	raw := reg.Counter(metrics.MPSCodecBytesRaw).Value()
	wire := reg.Counter(metrics.MPSCodecBytesWire).Value()
	deltas := reg.Counter(metrics.MPSCodecRowsDelta).Value()
	if raw != int64(iters*2*rows*dim*4) {
		t.Errorf("bytes_raw = %d, want %d", raw, iters*2*rows*dim*4)
	}
	if wire == 0 {
		t.Fatal("no wire bytes counted")
	}
	if ratio := float64(raw) / float64(wire); ratio < 3.0 {
		t.Errorf("delta-int8 compression %.2fx below the 3x claim (raw %d, wire %d)", ratio, raw, wire)
	}
	// Every pull after the first should delta-frame every row.
	if want := int64((iters - 1) * rows); deltas < want {
		t.Errorf("rows_delta = %d, want >= %d", deltas, want)
	}
}

// TestDeltaOverTCP runs the delta profile over real sockets: negotiated
// profile reported per connection, values agreeing with the exact transport
// within the int8 bound, and the worker-side codec counters seeing deltas.
func TestDeltaOverTCP(t *testing.T) {
	c := testClusterDim(t, 1, 32, 64)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, c.Servers[0])

	tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileDeltaInt8, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if len(tr.links) != 1 || tr.links[0].prof.Name != ProfileDeltaInt8 {
		t.Fatalf("%d links, want 1 negotiating %s", len(tr.links), ProfileDeltaInt8)
	}
	reg := metrics.NewRegistry()
	tr.Instrument(reg)

	keys := []Key{EntityKey(0), EntityKey(1), RelationKey(2)}
	ref, err := NewInProc(c).Pull(0, &PullRequest{Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	var resp *PullResponse
	for i := 0; i < 3; i++ {
		resp, err = tr.Pull(0, &PullRequest{Keys: keys})
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
	}
	if len(resp.Vals) != len(ref.Vals) {
		t.Fatalf("pulled %d values, want %d", len(resp.Vals), len(ref.Vals))
	}
	for i := range resp.Vals {
		if !close32at(resp.Vals[i], ref.Vals[i], 0.05) {
			t.Fatalf("value %d drifted: %v vs %v", i, resp.Vals[i], ref.Vals[i])
		}
	}
	if deltas := reg.Counter(metrics.MPSCodecRowsDelta).Value(); deltas < int64(2*len(keys)) {
		t.Errorf("rows_delta = %d over TCP, want >= %d", deltas, 2*len(keys))
	}
	// A push must land on the shard through the codec path.
	grad := make([]float32, 64)
	grad[0] = 1
	if err := tr.Push(0, &PushRequest{Keys: []Key{EntityKey(0)}, Vals: grad}); err != nil {
		t.Fatalf("push: %v", err)
	}
	after, err := tr.Pull(0, &PullRequest{Keys: []Key{EntityKey(0)}})
	if err != nil {
		t.Fatal(err)
	}
	// SGD lr=0.1 and an int8-quantized unit gradient: expect ~-0.1.
	if d := after.Vals[0] - ref.Vals[0]; !close32at(d, -0.1, 0.01) {
		t.Errorf("push moved value by %v, want about -0.1", d)
	}
}

// TestCodecAllowlistRefusal: a shard restricted to fp32 must refuse an int8
// hello with a reason, and still accept the allowed profile afterwards.
func TestCodecAllowlistRefusal(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := &Acceptor{AllowCodecs: []string{ProfileFP32}}
	go acc.Serve(l, c.Servers[0])

	if _, err := DialTCPLink([]string{l.Addr().String()}, ProfileInt8, LinkConfig{}); err == nil {
		t.Fatal("disallowed codec negotiated")
	} else if !strings.Contains(err.Error(), "refused") {
		t.Errorf("refusal error %q does not name the refusal", err)
	}
	tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatalf("allowed codec refused: %v", err)
	}
	tr.Close()
}

// TestCallBytesMatchMeasuredTCPBytes pins the wire-size accounting the
// netsim cost model prices: the sizes each call carries back to the client
// (PullResponse.TxBytes/RxBytes, PushRequest.WireBytes — headers, keys,
// encoded payload), as the client meters them, must agree with the bytes
// the shard's counting connection actually saw — gob framing, handshake and
// all — within 1%. Payloads dominate at realistic row widths, so the
// fixed-size header approximations wash out.
func TestCallBytesMatchMeasuredTCPBytes(t *testing.T) {
	for _, profile := range []string{ProfileFP32, ProfileInt8} {
		t.Run(profile, func(t *testing.T) {
			const dim, rows, iters = 2048, 32, 16
			c := testClusterDim(t, 1, 40, dim)
			reg := metrics.NewRegistry()
			srv := c.Servers[0]
			srv.Instrument(reg)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go ServeTCP(l, srv)

			tr, err := DialTCPLink([]string{l.Addr().String()}, profile, LinkConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			meter := &netsim.Meter{}
			client, err := NewClient(0, c, tr, meter)
			if err != nil {
				t.Fatal(err)
			}

			keys := make([]Key, rows)
			grads := make(map[Key][]float32, rows)
			for i := range keys {
				keys[i] = EntityKey(kg.EntityID(i))
				g := make([]float32, dim)
				for j := range g {
					g[j] = 0.01 * float32((i*dim+j)%11)
				}
				grads[keys[i]] = g
			}
			dst := make(map[Key][]float32, rows)
			for it := 0; it < iters; it++ {
				if err := client.Pull(keys, dst); err != nil {
					t.Fatal(err)
				}
				if err := client.Push(grads); err != nil {
					t.Fatal(err)
				}
			}
			snap := meter.Snapshot()
			metered := snap.LocalBytes + snap.RemoteBytes
			measured := reg.Counter(metrics.MPSTCPRxBytes).Value() +
				reg.Counter(metrics.MPSTCPTxBytes).Value()
			if measured == 0 {
				t.Fatal("counting connection saw no bytes")
			}
			diff := float64(metered-measured) / float64(measured)
			if diff < 0 {
				diff = -diff
			}
			if diff > 0.01 {
				t.Errorf("client metered %d vs measured %d bytes: %.2f%% off (want <= 1%%)",
					metered, measured, 100*diff)
			}
		})
	}
}

// TestEncodeDecodeZeroAlloc pins the steady-state allocation contract of
// every row codec and of the delta link layer: with warm scratch buffers,
// encoding and decoding allocate nothing per call.
func TestEncodeDecodeZeroAlloc(t *testing.T) {
	row := make([]float32, 64)
	for i := range row {
		row[i] = float32(i%13) * 0.05
	}
	for _, name := range []string{"fp32", "fp16", "int8", "sparse"} {
		c, err := rowCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, c.MaxRowBytes(len(row)))
		enc := c.EncodeRow(dst, row)
		dec := make([]float32, len(row))
		if n := testing.AllocsPerRun(100, func() {
			out := c.EncodeRow(dst[:0], row)
			if _, err := c.DecodeRow(dec, out); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per encode+decode, want 0", name, n)
		}
		_ = enc
	}

	// Delta link steady state: bases established, buffers warm.
	prof, _ := ResolveProfile(ProfileDeltaInt8)
	widthOf := func(Key) int { return len(row) }
	server, _ := newLinkCodec(prof, widthOf)
	worker, _ := newLinkCodec(prof, widthOf)
	keys := []Key{EntityKey(1), EntityKey(2)}
	vals := make([]float32, 2*len(row))
	bv := worker.appendBaseVers(make([]byte, 0, 8), keys)
	payload, err := server.encodePull(make([]byte, 0, 4096), keys, bv, vals)
	if err != nil {
		t.Fatal(err)
	}
	if err := worker.decodePull(keys, payload, vals); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		bv = worker.appendBaseVers(bv[:0], keys)
		payload, err = server.encodePull(payload[:0], keys, bv, vals)
		if err != nil {
			t.Fatal(err)
		}
		if err := worker.decodePull(keys, payload, vals); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("delta link: %v allocs per pull round trip, want 0", n)
	}
}

// Benchmarks pin the per-row codec cost; -benchmem (ReportAllocs) shows the
// zero-allocation steady state.

// benchRow draws a row from a seeded normal: its signs are random, as a
// gradient's or a delta's are, so no branch predictor learns the row.
func benchRow(dim int) []float32 {
	rng := rand.New(rand.NewSource(int64(dim)))
	row := make([]float32, dim)
	for i := range row {
		row[i] = float32(rng.NormFloat64()) * 0.1
	}
	return row
}

func BenchmarkEncodeRow(b *testing.B) {
	for _, name := range []string{"fp32", "fp16", "int8", "sparse"} {
		b.Run(name, func(b *testing.B) {
			c, err := rowCodec(name)
			if err != nil {
				b.Fatal(err)
			}
			row := benchRow(256)
			dst := make([]byte, 0, c.MaxRowBytes(len(row)))
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(row)))
			for i := 0; i < b.N; i++ {
				dst = c.EncodeRow(dst[:0], row)
			}
		})
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	for _, name := range []string{"fp32", "fp16", "int8", "sparse"} {
		b.Run(name, func(b *testing.B) {
			c, err := rowCodec(name)
			if err != nil {
				b.Fatal(err)
			}
			row := benchRow(256)
			enc := c.EncodeRow(nil, row)
			dec := make([]float32, len(row))
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(row)))
			for i := 0; i < b.N; i++ {
				if _, err := c.DecodeRow(dec, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeltaPullRoundTrip(b *testing.B) {
	prof, _ := ResolveProfile(ProfileDeltaInt8)
	const dim, rows = 256, 16
	widthOf := func(Key) int { return dim }
	server, _ := newLinkCodec(prof, widthOf)
	worker, _ := newLinkCodec(prof, widthOf)
	keys := make([]Key, rows)
	for i := range keys {
		keys[i] = EntityKey(kg.EntityID(i))
	}
	vals := benchRow(rows * dim)
	bv := worker.appendBaseVers(nil, keys)
	payload, err := server.encodePull(make([]byte, 0, rows*(9+dim)), keys, bv, vals)
	if err != nil {
		b.Fatal(err)
	}
	if err := worker.decodePull(keys, payload, vals); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(4 * rows * dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bv = worker.appendBaseVers(bv[:0], keys)
		payload, err = server.encodePull(payload[:0], keys, bv, vals)
		if err != nil {
			b.Fatal(err)
		}
		if err := worker.decodePull(keys, payload, vals); err != nil {
			b.Fatal(err)
		}
	}
}
