package ps

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/telemetry"
)

// roundTrip writes req on c as one frame and reads its reply, as a link
// does, without the link's retry policy.
func (c *linkConn) roundTrip(req *wireRequest) ([]byte, error) {
	c.req = *req
	c.out = appendRequest(c.out[:0], req)
	if _, err := c.conn.Write(c.out); err != nil {
		return nil, err
	}
	c.sent++
	body, err := c.fr.next(replyHeadMax + maxMemberBody)
	if err != nil {
		return nil, err
	}
	return parseReply(body, req.Op, c.sent)
}

// TestRequestFrameLayout pins a request frame byte for byte (DESIGN.md
// §10.4): keys travel as zigzag-varint deltas from the previous key, so the
// sorted entity keys of a shard's list cost a byte each, and the first
// relation key after them costs nine.
func TestRequestFrameLayout(t *testing.T) {
	req := &wireRequest{
		Op:       'U',
		Keys:     []Key{EntityKey(3), EntityKey(5), RelationKey(1)},
		Payload:  []byte{0xaa, 0xbb},
		Seq:      300,
		TraceID:  1,
		ParentID: 2,
	}
	want := []byte{
		19, 0, 0, 0, // body length
		'U',
		0xac, 0x02, // seq 300
		1, 2, // trace id, parent id
		3,    // key count
		6, 4, // +3, +2
		0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, // +(1<<62 + 1 - 5)
		0xaa, 0xbb, // payload
	}
	got := appendRequest(nil, req)
	if !bytes.Equal(got, want) {
		t.Fatalf("request frame\n got % x\nwant % x", got, want)
	}
	var back wireRequest
	if _, err := parseRequest(got[4:], nil, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != req.Op || back.Seq != req.Seq || back.TraceID != req.TraceID || back.ParentID != req.ParentID ||
		!slices.Equal(back.Keys, req.Keys) || !bytes.Equal(back.Payload, req.Payload) {
		t.Fatalf("parsed %+v, want %+v", back, *req)
	}
}

// FuzzLinkFrames checks the frame codec three ways per input:
//
//   - parseRequest∘appendRequest is the identity on op, keys (any uint64,
//     eight bytes each), payload, seq and trace ids, and the length word
//     counts the body;
//   - raw parsed as a request body neither panics nor sizes keys beyond its
//     own length (a parser that trusts the key count fails here);
//   - raw read by the worker's reply reader, frame by frame under a bound
//     of limit bytes, neither panics nor grows its buffer beyond the bound
//     or beyond twice what arrived.
func FuzzLinkFrames(f *testing.F) {
	keys := func(ks ...Key) []byte {
		var b []byte
		for _, k := range ks {
			b = binary.LittleEndian.AppendUint64(b, uint64(k))
		}
		return b
	}
	reply := func(op byte, num uint64, payload string) []byte {
		b := appendReplyHead(nil, op, num)
		return endFrame(append(b, payload...), 0)
	}
	f.Add(byte('P'), uint64(0), uint64(0), uint64(0), keys(EntityKey(0), RelationKey(1)), []byte(nil), reply('P', 1, "rows"), uint16(64))
	f.Add(byte('U'), uint64(7), uint64(1<<40), uint64(3), keys(EntityKey(9), EntityKey(2)), []byte{1, 2, 3}, reply('U', 1, ""), uint16(16))
	f.Add(byte('H'), uint64(0), uint64(0), uint64(0), keys(math.MaxUint64, 0), []byte("gob"), []byte{0, 0, 0, 0x40}, uint16(1000))
	f.Add(byte('P'), uint64(0), uint64(0), uint64(0), []byte(nil), []byte(nil), []byte{'P', 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, uint16(8))
	f.Add(byte('P'), uint64(0), uint64(0), uint64(0), []byte(nil), []byte(nil), append(reply('P', 2, "x"), 200, 0, 0, 0, statusRefused), uint16(300))
	f.Fuzz(func(t *testing.T, op byte, seq, trace, parent uint64, rawKeys, payload, raw []byte, limit uint16) {
		req := wireRequest{Op: op, Seq: seq, TraceID: trace, ParentID: parent, Payload: payload}
		for i := 0; i+8 <= len(rawKeys); i += 8 {
			req.Keys = append(req.Keys, Key(binary.LittleEndian.Uint64(rawKeys[i:])))
		}
		frame := appendRequest(nil, &req)
		if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
			t.Fatalf("length word %d for a %d-byte body", n, len(frame)-4)
		}
		var back wireRequest
		if _, err := parseRequest(frame[4:], nil, &back); err != nil {
			t.Fatalf("parsing an appended request: %v", err)
		}
		if back.Op != op || back.Seq != seq || back.TraceID != trace || back.ParentID != parent ||
			len(back.Keys) != len(req.Keys) || !slices.Equal(back.Keys[:len(req.Keys)], req.Keys) || !bytes.Equal(back.Payload, payload) {
			t.Fatalf("parsed %+v, want %+v", back, req)
		}

		var any wireRequest
		if got, _ := parseRequest(raw, nil, &any); cap(got) > len(raw) {
			t.Fatalf("a %d-byte body sized %d keys", len(raw), cap(got))
		}
		parseHello(raw)
		parseAck(raw)

		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(raw))}
		for num := uint64(1); ; num++ {
			body, err := fr.next(int(limit))
			if c := cap(fr.body); c > int(limit) || c > max(512, 2*len(raw)) {
				t.Fatalf("reading %d bytes under a bound of %d grew the body buffer to %d", len(raw), limit, c)
			}
			if err != nil {
				break
			}
			parseReply(body, 'P', num)
		}
	})
}

// TestLengthWordAllocatesNothing sends a length word declaring a 1 GiB
// frame and nothing after it. Under a bound that admits it, the reader
// still allocates nothing before body bytes arrive. A shard, whose bound
// refuses it, sizes nothing from it either: it waits to discard the body,
// and ends the connection when the stream ends first.
func TestLengthWordAllocatesNothing(t *testing.T) {
	word := []byte{0, 0, 0, 0x40}
	src := bytes.NewReader(word)
	fr := &frameReader{r: bufio.NewReader(src)}
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(word)
		fr.r.Reset(src)
		if _, err := fr.next(math.MaxInt32); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a bare 1 GiB length word read as %v, want an unexpected EOF", err)
		}
	})
	if allocs != 0 || cap(fr.body) != 0 {
		t.Errorf("a bare 1 GiB length word: %v allocs, body buffer of %d bytes; want none", allocs, cap(fr.body))
	}

	c := testClusterDim(t, 1, 40, 128)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, c.Servers[0])
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fp32, _ := ResolveProfile(ProfileFP32)
	if _, err := handshakeClient(conn, fp32, 0); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(append(word, 'P')); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("shard answered a truncated 1 GiB frame with %d bytes, %v; want it to hang up", n, err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Errorf("a 1 GiB length word made the process allocate %d MB", d>>20)
	}
}

// stubShard serves conn as a shard would, except that it answers each
// request with the reply to the request forge returns, under the request
// number forge returns.
func stubShard(srv *Server, conn net.Conn, forge func(req *wireRequest, num uint64) (*wireRequest, uint64)) {
	defer conn.Close()
	fr := &frameReader{r: bufio.NewReader(conn)}
	prof, link, err := handshakeServer(fr, conn, srv, nil)
	if err != nil {
		return
	}
	s, err := newSession(srv, nil, prof, link)
	if err != nil {
		return
	}
	var req wireRequest
	for num := uint64(1); ; num++ {
		body, err := fr.next(maxRequestBody(srv, false))
		if err != nil {
			return
		}
		if _, err := parseRequest(body, nil, &req); err != nil {
			return
		}
		answer, n := forge(&req, num)
		out, err := s.handle(appendReplyHead(nil, answer.Op, n), answer)
		if err != nil {
			return
		}
		if _, err := conn.Write(endFrame(out, 0)); err != nil {
			return
		}
	}
}

// TestReplyToAnotherRequestPoisons dials stub shards over net.Pipe that
// answer a pull with another request's reply: first another pull's rows
// under the next request number, then a push's ack under the pull's own
// number. Each must poison the link and retry — the third dial answers
// honestly — and the pull must never come back with another request's
// rows. With every dial lying, the pull fails as a link outage.
func TestReplyToAnotherRequestPoisons(t *testing.T) {
	srv := testCluster(t, 1).Servers[0]
	keys := []Key{EntityKey(0), EntityKey(1)}
	other := []Key{EntityKey(2), EntityKey(3)}
	otherPull := func(_ *wireRequest, num uint64) (*wireRequest, uint64) {
		return &wireRequest{Op: 'P', Keys: other}, num + 1
	}
	pushAck := func(_ *wireRequest, num uint64) (*wireRequest, uint64) {
		return &wireRequest{Op: 'U'}, num
	}
	honest := func(req *wireRequest, num uint64) (*wireRequest, uint64) { return req, num }
	fp32, _ := ResolveProfile(ProfileFP32)
	dialStubs := func(forges ...func(*wireRequest, uint64) (*wireRequest, uint64)) (*LinkTransport, *metrics.Registry) {
		t.Helper()
		dials := 0
		tr, err := newLinkTransport([]string{"stub"}, fp32, LinkConfig{RPCTimeout: 5 * time.Second, Retries: 2, Sleep: func(time.Duration) {}}, true,
			func(_ *LinkTransport, l *link) (*linkConn, error) {
				worker, shard := net.Pipe()
				go stubShard(srv, shard, forges[min(dials, len(forges)-1)])
				dials++
				c, err := handshakeClient(worker, l.prof, l.id)
				if err != nil {
					worker.Close()
				}
				return c, err
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		reg := metrics.NewRegistry()
		tr.Instrument(reg)
		return tr, reg
	}

	tr, reg := dialStubs(otherPull, pushAck, honest)
	resp, err := tr.Pull(0, &PullRequest{Keys: keys})
	if err != nil {
		t.Fatalf("pull after two forged replies: %v", err)
	}
	want, err := srv.Pull(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Vals, want) {
		t.Fatalf("pull returned %v, want the rows of its own keys %v", resp.Vals, want)
	}
	if got := reg.Counter(metrics.MPSLinkRetries).Value(); got != 2 {
		t.Errorf("%d retries, want 2 (one per forged reply)", got)
	}
	if got := reg.Counter(metrics.MPSLinkReconnects).Value(); got != 2 {
		t.Errorf("%d reconnects, want 2 (every forged reply poisons its connection)", got)
	}

	tr, _ = dialStubs(otherPull)
	if resp, err := tr.Pull(0, &PullRequest{Keys: keys}); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("pull from a shard that always answers another request: %v, %v; want a link-down error", resp, err)
	}
}

// TestStaleTelemetryAckIsNotAHeartbeatReply replays DESIGN.md §11.2's old
// failure on one coordinator connection: a telemetry request whose ack the
// caller stopped waiting for, then a heartbeat. The heartbeat reads the
// telemetry ack first; under gob that decoded as a HeartbeatReply with no
// assignments, and now it is a transport error, not a reply and not a
// refusal.
func TestStaleTelemetryAckIsNotAHeartbeatReply(t *testing.T) {
	srv := testCluster(t, 1).Servers[0]
	m, err := NewMembership(MemberConfig{Partitions: 2, Telemetry: telemetry.NewFleet(telemetry.FleetConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go (&Acceptor{Coordinator: m}).Serve(l, srv)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fp32, _ := ResolveProfile(ProfileFP32)
	c, err := handshakeClient(conn, fp32, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	payload, err := c.roundTrip(&wireRequest{Op: opJoin, Payload: body(JoinRequest{Label: "w", Preferred: []int{0, 1}})})
	if err != nil {
		t.Fatal(err)
	}
	var join JoinReply
	if err := decodeBody(payload, &join); err != nil {
		t.Fatal(err)
	}

	rep := telemetry.Report{Role: telemetry.RoleWorker, Label: "w", Seq: 1, Metrics: metrics.NewRegistry().Snapshot()}
	if _, err := conn.Write(appendRequest(nil, &wireRequest{Op: opTelemetry, Payload: body(rep)})); err != nil {
		t.Fatal(err)
	}
	c.sent++ // its ack is never read
	_, err = c.roundTrip(&wireRequest{Op: opHeartbeat, Payload: body(HeartbeatRequest{WorkerID: join.WorkerID})})
	var rerr *RemoteError
	if err == nil || errors.As(err, &rerr) {
		t.Fatalf("heartbeat reading a telemetry ack: %v, want a transport error", err)
	}
	if !strings.Contains(err.Error(), "answers request") {
		t.Errorf("error %q does not say which request the reply answers", err)
	}
}

// wireHelloV1 is the handshake hello of wire version 1, which a gob
// encoder wrote.
type wireHelloV1 struct {
	V       byte
	Profile byte
	Link    uint64
}

// TestGobHelloRefused sends a version-1 client's gob hello to a shard: its
// first four bytes, read as a length word, exceed the 64-byte hello bound,
// so the shard refuses it having read one buffer of at most 16 bytes, and
// closes the connection without an answer instead of waiting for the
// declared body.
func TestGobHelloRefused(t *testing.T) {
	var hello bytes.Buffer
	if err := gob.NewEncoder(&hello).Encode(&wireHelloV1{V: 1, Link: 7}); err != nil {
		t.Fatal(err)
	}
	if n := binary.LittleEndian.Uint32(hello.Bytes()); n <= maxHelloBody {
		t.Fatalf("a gob hello opens with length word %d, within the hello bound", n)
	}
	srv := testCluster(t, 1).Servers[0]
	src := &countingReader{r: bytes.NewReader(hello.Bytes())}
	fr := &frameReader{r: bufio.NewReaderSize(src, 16)}
	var long *frameLenError
	if _, _, err := handshakeServer(fr, nil, srv, nil); !errors.As(err, &long) {
		t.Fatalf("gob hello: %v, want a frame-length refusal", err)
	}
	if src.n > 16 {
		t.Errorf("refusing a gob hello read %d bytes, want at most one 16-byte buffer", src.n)
	}

	pipe, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		serveConn(pipe, srv, nil, nil)
		close(done)
	}()
	defer client.Close()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	if n, err := client.Read(make([]byte, 64)); err == nil {
		t.Fatalf("shard answered a gob hello with %d bytes", n)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shard still serving a gob client")
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestDialVersion1PeerReadableError dials two version-1 stand-ins: a shard
// that reads the hello with a gob decoder and hangs up when that fails, as
// a version-1 shard does on a frame, and a peer that answers with a gob
// ack. Both dials must fail with an error that names the wire version.
func TestDialVersion1PeerReadableError(t *testing.T) {
	for name, peer := range map[string]func(net.Conn){
		"gob shard": func(conn net.Conn) {
			var h wireHelloV1
			gob.NewDecoder(conn).Decode(&h)
		},
		"gob ack": func(conn net.Conn) {
			gob.NewEncoder(conn).Encode(&struct {
				Err            string
				EntDim, RelDim int
			}{EntDim: 8, RelDim: 8})
			io.Copy(io.Discard, conn)
		},
	} {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				peer(conn)
			}()
			tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{RPCTimeout: 5 * time.Second})
			if err == nil {
				tr.Close()
				t.Fatal("dialing a version-1 peer succeeded")
			}
			if !strings.Contains(err.Error(), "wire version 2") {
				t.Errorf("dial error %q does not name the wire version", err)
			}
		})
	}
}
