package ps

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hetkg/internal/kg"
	"hetkg/internal/telemetry"
)

// TestOversizedRequestRefusedBeforeSizing sends a keys-only push and a pull
// naming 2 000 000 copies of one key — a 2 MB frame, one byte per key — to
// a dim-128 shard. Sizing the push's decode buffer from the key count would
// allocate a gigabyte; the shard must refuse both requests first (their
// frames are longer than any request it can legitimately get).
func TestOversizedRequestRefusedBeforeSizing(t *testing.T) {
	c := testClusterDim(t, 1, 40, 128)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, c.Servers[0])
	tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	keys := make([]Key, 2_000_000) // every one EntityKey(0)
	for _, tc := range []struct {
		op   string
		send func() error
	}{
		{"push", func() error {
			_, err := tr.call(0, &wireRequest{Op: 'U', Keys: keys, Seq: 1})
			return err
		}},
		{"pull", func() error {
			_, err := tr.Pull(0, &PullRequest{Keys: keys})
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := tc.send()
		runtime.ReadMemStats(&after)
		var rerr *RemoteError
		if !errors.As(err, &rerr) {
			t.Errorf("oversized %s: %v, want a RemoteError", tc.op, err)
		}
		// The client builds the 2 MB frame; the shard discards it
		// unread, and nothing may be sized per key.
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
			t.Errorf("refusing the oversized %s allocated %d MB, want < 64", tc.op, d>>20)
		}
	}
	if _, err := tr.Pull(0, &PullRequest{Keys: keys[:1]}); err != nil {
		t.Errorf("pull after the refusals: %v", err)
	}
}

// FuzzShardSession fuzzes the shard end of the wire, two ways per input:
//
//   - an arbitrary {Op, Keys, Payload, Seq} goes straight into
//     session.handle, under the profile sel picks and with a coordinator
//     when sel's high bit is set. A refused request must come back as an
//     error, every 'P' reply must decode on a fresh worker-side linkCodec,
//     and the session must then still answer a valid pull exactly;
//   - raw, a stream of request frames, is fed through serveConn over
//     net.Pipe after a valid hello, and the connection must end cleanly
//     once the client hangs up.
//
// Nothing may panic. Keys are two bytes each (high bit: relation), folded
// onto a universe slightly larger than the test shard's, so both owned and
// unowned rows come up.
func FuzzShardSession(f *testing.F) {
	key := func(ks ...Key) []byte {
		var b []byte
		for _, k := range ks {
			v := uint16(k)
			if k.IsRelation() {
				v = 0x8000 | uint16(k.Relation())
			}
			b = append(b, byte(v>>8), byte(v))
		}
		return b
	}
	two := key(EntityKey(0), RelationKey(1))
	grad := make([]float32, 8)
	grad[0], grad[5] = 0.5, -0.25
	pushFP32 := fp32Codec{}.EncodeRow(nil, append([]float32(nil), grad...))
	pushInt8 := int8Codec{}.EncodeRow(nil, append([]float32(nil), grad...))
	member := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	const coord = 0x80
	delta, _ := profileID(ProfileDeltaInt8)
	int8ID, _ := profileID(ProfileInt8)
	f.Add(byte(0), byte('P'), two, []byte(nil), uint64(0), []byte(nil))
	f.Add(delta, byte('P'), two, []byte{1, 0, 0, 0, 1, 0, 0, 0}, uint64(0), []byte(nil))
	f.Add(delta, byte('P'), two, []byte{1, 0, 0}, uint64(0), []byte(nil)) // truncated versions
	f.Add(byte(0), byte('U'), key(EntityKey(0)), pushFP32, uint64(1), []byte(nil))
	f.Add(int8ID, byte('U'), key(EntityKey(0)), pushInt8, uint64(1), []byte(nil))
	f.Add(byte(0), byte('U'), key(EntityKey(0)), pushFP32[:7], uint64(1), []byte(nil)) // truncated row
	f.Add(byte(0), byte('U'), key(EntityKey(0), EntityKey(1)), pushFP32, uint64(2), []byte(nil))
	f.Add(byte(0), byte('P'), make([]byte, 2*64), []byte(nil), uint64(0), []byte(nil)) // more keys than rows
	f.Add(byte(coord), byte(opJoin), []byte(nil), member(JoinRequest{Label: "w", Preferred: []int{0, 1}}), uint64(0), []byte(nil))
	f.Add(byte(coord), byte(opHeartbeat), []byte(nil), member(HeartbeatRequest{WorkerID: 1, Progress: []PartitionProgress{{Partition: 0, Done: true}}}), uint64(0), []byte(nil))
	f.Add(byte(coord), byte(opLeave), []byte(nil), member(LeaveRequest{WorkerID: 1}), uint64(0), []byte(nil))
	f.Add(byte(coord), byte(opTelemetry), []byte(nil), member(telemetry.Report{Role: telemetry.RoleWorker, Label: "w", Seq: 1}), uint64(0), []byte(nil))
	f.Add(byte(0), byte(opJoin), []byte(nil), member(JoinRequest{Label: "w"}), uint64(0), []byte(nil))          // not the coordinator
	f.Add(byte(coord), byte(opHeartbeat), []byte(nil), []byte{0xff, 0x01}, uint64(0), []byte(nil))              // garbage payload
	f.Add(byte(coord), byte(opJoin), []byte(nil), []byte(`{"Label":"w","Admin":true}`), uint64(0), []byte(nil)) // unknown field
	f.Add(byte(coord), byte(opLeave), []byte(nil), []byte(`{"WorkerID":1}{}`), uint64(0), []byte(nil))          // trailing bytes
	f.Add(byte(coord), byte(opTelemetry), []byte(nil), []byte(`{"Role":"worker","Metrics":{"m":{"kind":"histogram","buckets":[{"le":1,"n":2}],"q":{"p50":1}}}}`), uint64(0), []byte(nil))
	f.Add(byte(0), byte('Z'), two, []byte(nil), uint64(0), []byte(nil))

	// Raw streams: the frames a client writes after its hello.
	stream := func(reqs ...wireRequest) []byte {
		var b []byte
		for i := range reqs {
			b = appendRequest(b, &reqs[i])
		}
		return b
	}
	pull := wireRequest{Op: 'P', Keys: []Key{EntityKey(0), RelationKey(1)}}
	push := wireRequest{Op: 'U', Keys: []Key{EntityKey(0)}, Payload: pushFP32, Seq: 1}
	valid := stream(pull, push, pull)
	f.Add(byte(0), byte('P'), two, []byte(nil), uint64(0), valid)
	f.Add(byte(0), byte('P'), two, []byte(nil), uint64(0), valid[:len(valid)/2])
	f.Add(byte(0), byte('P'), two, []byte(nil), uint64(0), []byte{0, 0, 0, 0x40, 'P'})                   // a 1 GiB length word
	f.Add(byte(0), byte('P'), two, []byte(nil), uint64(0), []byte{6, 0, 0, 0, 'P', 0, 0, 0, 0xc8, 0x01}) // 200 keys in no bytes
	f.Add(byte(coord), byte('P'), two, []byte(nil), uint64(0), stream(wireRequest{Op: opJoin, Payload: member(JoinRequest{Label: "w"})}))

	f.Fuzz(func(t *testing.T, sel, op byte, keys, payload []byte, seq uint64, raw []byte) {
		prof := profiles[int(sel&0x7f)%len(profiles)]
		var coord *Membership
		if sel&0x80 != 0 {
			var err error
			coord, err = NewMembership(MemberConfig{Partitions: 2, Telemetry: telemetry.NewFleet(telemetry.FleetConfig{})})
			if err != nil {
				t.Fatal(err)
			}
		}
		req := &wireRequest{Op: op, Payload: payload, Seq: seq}
		for i := 0; i+1 < len(keys); i += 2 {
			v := uint16(keys[i])<<8 | uint16(keys[i+1])
			if v&0x8000 != 0 {
				req.Keys = append(req.Keys, RelationKey(kg.RelationID(v&0x7fff%8)))
			} else {
				req.Keys = append(req.Keys, EntityKey(kg.EntityID(v%24)))
			}
		}
		fuzzHandle(t, prof, coord, req)
		if len(raw) > 0 {
			fuzzServeConn(t, prof, coord, raw)
		}
	})
}

// fuzzHandle runs one arbitrary request through a fresh session, then a
// valid pull through the same session, checking both replies decode.
func fuzzHandle(t *testing.T, prof Profile, coord *Membership, req *wireRequest) {
	srv := testCluster(t, 1).Servers[0]
	s, err := newSession(srv, coord, prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := s.handle(nil, req)
	if err == nil && req.Op == 'P' {
		w, _ := newLinkCodec(prof, srv.Width)
		if err := w.decodePull(req.Keys, payload, make([]float32, w.totalWidth(req.Keys))); err != nil {
			t.Fatalf("pull reply does not decode on a fresh worker codec: %v", err)
		}
	}

	keys := []Key{EntityKey(0), RelationKey(1)}
	w, _ := newLinkCodec(prof, srv.Width)
	payload, err = s.handle(nil, &wireRequest{Op: 'P', Keys: keys, Payload: w.appendBaseVers(nil, keys)})
	if err != nil {
		t.Fatalf("valid pull after %q refused: %v", req.Op, err)
	}
	got := make([]float32, w.totalWidth(keys))
	if err := w.decodePull(keys, payload, got); err != nil {
		t.Fatalf("valid pull after %q does not decode: %v", req.Op, err)
	}
	want, err := srv.Pull(keys)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := newLinkCodec(prof, srv.Width)
	if _, err := ref.encodePull(nil, keys, nil, want); err != nil { // want ← what a fresh link decodes
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("valid pull after %q: value %d is %v, want %v", req.Op, i, got[i], want[i])
		}
	}
}

// fuzzServeConn feeds raw through serveConn after a valid hello and checks
// the connection ends once the client hangs up — after the shard has read
// and answered everything it was sent.
func fuzzServeConn(t *testing.T, prof Profile, coord *Membership, raw []byte) {
	srv := testCluster(t, 1).Servers[0]
	pipe, client := net.Pipe()
	idle := make(chan struct{})
	shardEnd := &readCounter{Conn: pipe, idle: idle}
	done := make(chan struct{})
	go func() {
		serveConn(shardEnd, srv, nil, coord)
		close(done)
	}()
	if _, err := handshakeClient(client, prof, 7); err != nil {
		t.Fatal(err)
	}
	shardEnd.mu.Lock()
	shardEnd.want = shardEnd.read + len(raw)
	shardEnd.mu.Unlock()
	go io.Copy(io.Discard, client) // replies, if any
	client.Write(raw)              // the shard may hang up mid-stream
	select {
	case <-idle:
	case <-done:
	}
	client.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("serveConn still running after the client closed")
	}
}

// readCounter counts what the shard end of a pipe has read, and closes idle
// when the shard asks for more after reading want bytes: it has served
// everything the client sent.
type readCounter struct {
	net.Conn
	mu         sync.Mutex
	read, want int
	idle       chan struct{}
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.want > 0 && c.read >= c.want && c.idle != nil {
		close(c.idle)
		c.idle = nil
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read += n
	c.mu.Unlock()
	return n, err
}
