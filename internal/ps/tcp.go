package ps

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// The TCP transport implements the same Pull/Push protocol over real
// sockets with gob envelopes, proving the parameter server works across
// process boundaries. Experiments use InProc (deterministic timing);
// integration tests and the cmd/ binaries exercise this path.
//
// A connection starts with a codec handshake: the client sends wireHello
// naming a codec profile (one byte, see profileID), the shard answers with
// wireHelloAck carrying its row widths (or a refusal when the profile is
// outside the Acceptor's allowlist). After the handshake, every embedding
// and gradient travels as an opaque Payload produced by the negotiated
// linkCodec — exact binary row layouts instead of gob-encoded []float32,
// so the byte accounting each call reports matches what the socket carries.
//
// Fault tolerance lives one level up, in tcpLink (see link.go for the
// policy pieces): any transport-level failure poisons the connection —
// closing it so the gob stream can never desynchronize — and the retry
// loop re-dials, re-handshakes, and re-issues the attempt. A reconnect
// builds a fresh linkCodec on both ends, so delta base state restarts at
// the version-0 unbased sentinel and lossy lockstep stays correct.

// wireHello opens a connection: V is the protocol version, Profile the
// codec profile id the client wants for this link. Link identifies the
// client's (transport, shard) link across reconnects — the server's push
// dedup table keys on it so a push retried after a lost response is not
// applied twice (0 = no dedup, used by membership connections).
type wireHello struct {
	V       byte
	Profile byte
	Link    uint64
}

// wireHelloAck accepts or refuses a hello. On success it carries the
// shard's row widths, which the client's codec needs for per-row framing.
type wireHelloAck struct {
	Err    string
	EntDim int
	RelDim int
}

// wireVersion is the current handshake protocol version.
const wireVersion = 1

// wireRequest is the on-wire envelope for both operations. Payload carries
// codec-encoded bytes: the advertised base versions of a delta pull, or
// the encoded gradient rows of a push. Seq is the link's push sequence
// number (0 for pulls and membership ops): together with the hello's Link
// it gives pushes exactly-once semantics across retries and reconnects.
// TraceID/ParentID carry the originating batch's span context across the
// wire (gob omits zero values, so untraced requests pay nothing extra);
// the serving shard parents its spans under them.
type wireRequest struct {
	Op       byte // 'P' pull, 'U' push
	Keys     []Key
	Payload  []byte
	Seq      uint64
	TraceID  uint64
	ParentID uint64
}

// wireResponse is the on-wire reply; Payload is the codec-encoded pull
// rows (empty for pushes).
type wireResponse struct {
	Payload []byte
	Err     string
}

// ServeTCP runs a shard's accept loop until the listener closes. Each
// connection is handled on its own goroutine; requests on one connection
// are processed in order. Every codec profile is allowed. Processes that
// need an allowlist or connection draining should use an Acceptor.
func ServeTCP(l net.Listener, srv *Server) {
	var a Acceptor
	a.Serve(l, srv)
}

// Acceptor is a shard accept loop with graceful shutdown: it tracks live
// connections so Shutdown can wait for in-flight requests to drain before
// force-closing stragglers. The zero Acceptor is ready to use and accepts
// every codec profile; set AllowCodecs before Serve to restrict.
type Acceptor struct {
	// AllowCodecs, when non-empty, lists the codec profiles this shard
	// will negotiate; hellos naming others are refused at handshake.
	AllowCodecs []string

	// Coordinator, when non-nil, makes this shard the cluster coordinator:
	// membership ops ('J'/'H'/'L') on its connections are served from this
	// Membership. Shards without one refuse membership ops by name.
	Coordinator *Membership

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// Serve runs the accept loop until the listener closes (close the listener
// to stop accepting; then call Shutdown to drain).
func (a *Acceptor) Serve(l net.Listener, srv *Server) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !a.track(conn) {
			conn.Close() // Shutdown already started
			return
		}
		go func() {
			defer a.untrack(conn)
			serveConn(conn, srv, a.AllowCodecs, a.Coordinator)
		}()
	}
}

func (a *Acceptor) track(conn net.Conn) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if a.conns == nil {
		a.conns = make(map[net.Conn]struct{})
	}
	a.conns[conn] = struct{}{}
	a.wg.Add(1)
	return true
}

func (a *Acceptor) untrack(conn net.Conn) {
	a.mu.Lock()
	delete(a.conns, conn)
	a.mu.Unlock()
	a.wg.Done()
}

// Shutdown waits up to grace for live connections to finish (trainer
// connections are persistent, so "finish" normally means the peer closed),
// then force-closes whatever remains and waits for their handlers to
// return. Call after closing the listener; new connections racing the
// shutdown are refused.
func (a *Acceptor) Shutdown(grace time.Duration) {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	done := make(chan struct{})
	go func() {
		a.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		a.mu.Lock()
		for c := range a.conns {
			c.Close()
		}
		a.mu.Unlock()
		<-done
	}
}

// countingConn wraps a server-side connection, feeding raw socket byte
// volumes (gob framing included) into an instrumented shard's registry.
type countingConn struct {
	net.Conn
	rx, tx *metrics.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n))
	return n, err
}

// handshakeServer negotiates one connection's codec: it reads the hello,
// checks the allowlist, and answers with the shard's dims (or a refusal).
// It also returns the client's link identity for push deduplication.
func handshakeServer(dec *gob.Decoder, enc *gob.Encoder, bw *bufio.Writer, srv *Server, allow []string) (Profile, uint64, error) {
	var hello wireHello
	if err := dec.Decode(&hello); err != nil {
		return Profile{}, 0, err
	}
	prof, err := profileByID(hello.Profile)
	if err == nil && hello.V != wireVersion {
		err = fmt.Errorf("ps: wire version %d, want %d", hello.V, wireVersion)
	}
	if err == nil && len(allow) > 0 {
		allowed := false
		for _, name := range allow {
			if name == prof.Name {
				allowed = true
				break
			}
		}
		if !allowed {
			err = fmt.Errorf("ps: codec %q refused by shard (allowed: %v)", prof.Name, allow)
		}
	}
	ack := wireHelloAck{EntDim: srv.Width(EntityKey(0)), RelDim: srv.Width(RelationKey(0))}
	if err != nil {
		ack.Err = err.Error()
	}
	if encErr := enc.Encode(&ack); encErr != nil {
		return Profile{}, 0, encErr
	}
	if flushErr := bw.Flush(); flushErr != nil {
		return Profile{}, 0, flushErr
	}
	return prof, hello.Link, err
}

func serveConn(conn net.Conn, srv *Server, allow []string, coord *Membership) {
	defer conn.Close()
	if o := srv.obs; o != nil {
		o.tcpConns.Inc()
		conn = &countingConn{Conn: conn, rx: o.tcpRx, tx: o.tcpTx}
	}
	bw := bufio.NewWriter(conn)
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(bw)
	prof, link, err := handshakeServer(dec, enc, bw, srv, allow)
	if err != nil {
		return // refused or broken handshake; the ack carried the reason
	}
	lc, err := newLinkCodec(prof, srv.Width)
	if err != nil {
		return
	}
	var pbuf []byte    // response payload scratch
	var vbuf []float32 // push decode scratch
	for {
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return // io.EOF on clean close
		}
		var resp wireResponse
		sc := span.Context{Trace: req.TraceID, Parent: req.ParentID}
		switch req.Op {
		case 'P':
			vals, err := srv.PullTraced(sc, req.Keys)
			if err != nil {
				resp.Err = err.Error()
				break
			}
			payload, err := lc.encodePull(pbuf[:0], req.Keys, req.Payload, vals)
			if err != nil {
				resp.Err = err.Error()
				break
			}
			pbuf = payload
			resp.Payload = payload
		case 'U':
			if srv.pushApplied(link, req.Seq) {
				// A retry of a push whose response was lost after the
				// gradient landed: acknowledge idempotently.
				break
			}
			total := lc.totalWidth(req.Keys)
			if cap(vbuf) < total {
				vbuf = make([]float32, total)
			}
			vals := vbuf[:total]
			if err := lc.decodePush(req.Keys, req.Payload, vals); err != nil {
				resp.Err = err.Error()
				break
			}
			if err := srv.PushTraced(sc, req.Keys, vals); err != nil {
				resp.Err = err.Error()
				break
			}
			srv.markPush(link, req.Seq)
		case opJoin, opHeartbeat, opLeave:
			serveMember(coord, &req, &resp)
		case opTelemetry:
			serveTelemetry(coord, &req, &resp)
		default:
			resp.Err = fmt.Sprintf("ps: unknown op %q", req.Op)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// TCPTransport connects a worker process to shards over TCP, one
// persistent connection per shard with its own negotiated codec state.
// Calls on the same shard are serialized by a per-link mutex; failed
// calls retry with backoff and transparent reconnect per LinkConfig.
type TCPTransport struct {
	links  []*tcpLink
	codec  string // requested profile ("auto" resolves per connection)
	cfg    LinkConfig
	tracer *span.Tracer
	closed atomic.Bool

	obs       *linkObs  // ps.link.* series (nil when uninstrumented)
	codecObs  *codecObs // applied to each (re)connected linkCodec
	openLinks atomic.Int64
}

// tcpLink is one shard's persistent link: the current connection (nil
// while disconnected), the dial coordinates needed to rebuild it, the
// circuit breaker, and the push sequence for exactly-once retries.
type tcpLink struct {
	shard int
	addr  string

	mu        sync.Mutex
	c         *tcpConn
	prof      Profile // resolved profile (stable across reconnects)
	auto      bool    // profile still to be resolved from dial RTT
	id        uint64  // link identity carried in the hello (push dedup)
	seq       uint64  // last assigned push sequence
	rng       uint64  // backoff jitter state
	breaker   breaker
	connected bool // ever connected (distinguishes reconnects)
}

// Trace attaches a span tracer to the transport. Traced requests then record
// transport.encode (codec work), transport.serialize (gob encode + flush)
// and wire.tcp (request flushed → response decoded, which includes shard
// service time) spans. The transport is shared by every worker on the
// process, so wire its tracer with the MachineTransport/WorkerTransport
// pseudo-coordinates.
func (t *TCPTransport) Trace(tr *span.Tracer) { t.tracer = tr }

// Instrument publishes the transport's codec byte accounting (see
// CodecTransport.Instrument for the series) and its ps.link.* health
// series — retries, reconnects, failures, deadline hits, breaker trips,
// and the breaker-open gauge — into reg. Call before traffic flows.
func (t *TCPTransport) Instrument(reg *metrics.Registry) {
	t.codecObs = newCodecObs(reg)
	t.obs = newLinkObs(reg)
	for _, l := range t.links {
		l.mu.Lock()
		if l.c != nil {
			l.c.lc.obs = t.codecObs
		}
		l.mu.Unlock()
	}
}

// NegotiatedProfile returns the profile this transport was dialed with
// ("auto" when per-connection resolution was requested; see Profiles).
func (t *TCPTransport) NegotiatedProfile() string { return t.codec }

// Profiles returns the per-link negotiated profile names, in shard order —
// under "auto" they can differ per link.
func (t *TCPTransport) Profiles() []string {
	out := make([]string, len(t.links))
	for i, l := range t.links {
		out[i] = l.prof.Name
	}
	return out
}

// LinksDown returns how many shard links currently sit behind an open
// circuit breaker (the live value of the ps.link.breaker_open gauge).
func (t *TCPTransport) LinksDown() int { return int(t.openLinks.Load()) }

type tcpConn struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
	bw   *bufio.Writer
	lc   *linkCodec
	pbuf []byte // request payload scratch (base versions / encoded grads)
}

// linkSeq feeds newLinkID; mixing in the dial time keeps ids unique across
// worker processes without coordination.
var linkSeq atomic.Uint64

// newLinkID returns a process-unique, never-zero link identity.
func newLinkID() uint64 {
	id := splitmix64(uint64(time.Now().UnixNano())) ^ linkSeq.Add(1)
	if id == 0 {
		id = 1
	}
	return id
}

// DialTCPLink connects to every shard address, negotiating the named codec
// profile on each link and applying cfg's deadline/retry/breaker policy to
// every RPC (the zero LinkConfig selects the default hardening). "auto"
// measures each dial's TCP round-trip time and picks per link via
// ChooseProfile: co-located shards stay on fp32, slow links get delta-int8.
// Dialing is eager so a bad address or refused handshake fails the dial,
// not the first batch; on any error every connection already established
// is closed before returning (no partial progress leaks).
func DialTCPLink(addrs []string, codec string, cfg LinkConfig) (*TCPTransport, error) {
	reqProf, err := ResolveProfile(codec)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{codec: reqProf.Name, cfg: cfg.withDefaults()}
	for i, addr := range addrs {
		t.links = append(t.links, &tcpLink{
			shard: i,
			addr:  addr,
			prof:  reqProf,
			auto:  reqProf.Name == ProfileAuto,
			id:    newLinkID(),
			rng:   splitmix64(uint64(t.cfg.Seed) ^ uint64(i)*0x9e3779b97f4a7c15),
			breaker: breaker{
				threshold: t.cfg.BreakerThreshold,
				cooldown:  t.cfg.BreakerCooldown,
			},
		})
	}
	for _, l := range t.links {
		if err := l.connect(t); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// connect dials and handshakes l's shard, installing the fresh connection.
// The caller holds l.mu (or, during DialTCPLink, is the sole owner). A
// reconnect builds a new linkCodec, so delta base state on both ends
// restarts at the version-0 unbased sentinel.
func (l *tcpLink) connect(t *TCPTransport) error {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout(t.cfg.RPCTimeout))
	if err != nil {
		return fmt.Errorf("ps: dialing shard %s: %w", l.addr, err)
	}
	if l.auto {
		prof, err := ResolveProfile(ChooseProfile(time.Since(start), 0))
		if err != nil {
			conn.Close()
			return err
		}
		l.prof = prof
		l.auto = false // the choice is sticky: reconnects keep the codec
	}
	if d := t.cfg.RPCTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	c, err := handshakeClient(conn, l.prof, l.id)
	if err != nil {
		conn.Close()
		return fmt.Errorf("ps: handshake with shard %s: %w", l.addr, err)
	}
	conn.SetDeadline(time.Time{})
	if t.codecObs != nil {
		c.lc.obs = t.codecObs
	}
	if l.connected {
		if o := t.obs; o != nil {
			o.reconns.Inc()
		}
	}
	l.connected = true
	l.c = c
	return nil
}

// dialTimeout bounds the TCP connect: the RPC deadline when one is set,
// otherwise a generous fixed cap so a black-holed SYN cannot hang a dial
// forever.
func dialTimeout(rpcTimeout time.Duration) time.Duration {
	if rpcTimeout > 0 {
		return rpcTimeout
	}
	return 30 * time.Second
}

// handshakeClient sends the hello on a fresh connection and builds the
// connection's codec state from the shard's answer. link is the client's
// link identity for push dedup (0 disables, e.g. membership connections).
func handshakeClient(conn net.Conn, prof Profile, link uint64) (*tcpConn, error) {
	id, err := profileID(prof.Name)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(conn)
	enc := gob.NewEncoder(bw)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&wireHello{V: wireVersion, Profile: id, Link: link}); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	var ack wireHelloAck
	if err := dec.Decode(&ack); err != nil {
		return nil, err
	}
	if ack.Err != "" {
		return nil, errors.New(ack.Err)
	}
	if ack.EntDim <= 0 || ack.RelDim <= 0 {
		return nil, fmt.Errorf("ps: shard advertised dims %d/%d", ack.EntDim, ack.RelDim)
	}
	lc, err := newLinkCodec(prof, func(k Key) int {
		if k.IsRelation() {
			return ack.RelDim
		}
		return ack.EntDim
	})
	if err != nil {
		return nil, err
	}
	return &tcpConn{conn: conn, enc: enc, dec: dec, bw: bw, lc: lc}, nil
}

// withLink runs attempt against shard's link under the retry policy: a
// transport-level failure poisons the connection (closing it so the gob
// stream can never desynchronize), backs off with deterministic jitter,
// reconnects, and re-runs the attempt. Application errors (RemoteError,
// noRetryError) pass through without retry or poisoning. When the link's
// circuit breaker is open the call fails fast with a LinkDownError before
// touching the wire.
func (t *TCPTransport) withLink(shard int, attempt func(l *tcpLink, c *tcpConn) error) error {
	if shard < 0 || shard >= len(t.links) {
		return fmt.Errorf("ps: no shard %d", shard)
	}
	if t.closed.Load() {
		return fmt.Errorf("ps: transport closed")
	}
	l := t.links[shard]
	l.mu.Lock()
	defer l.mu.Unlock()
	var lastErr error
	for try := 0; ; try++ {
		if try > 0 {
			if try > t.cfg.Retries {
				break
			}
			if o := t.obs; o != nil {
				o.retries.Inc()
			}
			t.cfg.Sleep(l.backoff(t.cfg, try))
		}
		if l.c == nil {
			if !l.breaker.allow(t.cfg.Now()) {
				return &LinkDownError{Shard: l.shard, Addr: l.addr, Breaker: true, Err: lastErr}
			}
			if err := l.connect(t); err != nil {
				lastErr = err
				l.fail(t, err)
				continue
			}
		}
		err := attempt(l, l.c)
		if err == nil {
			l.ok(t)
			return nil
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			l.ok(t) // the link worked; the shard refused the request
			return err
		}
		var nr *noRetryError
		if errors.As(err, &nr) {
			return nr.err
		}
		lastErr = err
		l.poison(t, err)
	}
	return &LinkDownError{Shard: l.shard, Addr: l.addr, Err: lastErr}
}

// backoff returns the jittered exponential delay before retry attempt n
// (n ≥ 1): base·2^(n-1) capped at RetryMax, scaled into [d/2, d) by the
// link's deterministic jitter stream.
func (l *tcpLink) backoff(cfg LinkConfig, n int) time.Duration {
	d := cfg.RetryBase
	for i := 1; i < n && d < cfg.RetryMax; i++ {
		d *= 2
	}
	if d > cfg.RetryMax {
		d = cfg.RetryMax
	}
	l.rng = splitmix64(l.rng)
	frac := 0.5 + 0.5*float64(l.rng>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// poison closes and discards the link's connection after a transport-level
// failure — the stream position is unknown, so the connection must never
// carry another RPC — and records the failure with the breaker.
func (l *tcpLink) poison(t *TCPTransport, err error) {
	if l.c != nil {
		l.c.conn.Close()
		l.c = nil
	}
	l.fail(t, err)
}

// fail feeds one attempt failure into the metrics and the breaker,
// updating the breaker-open gauge on a trip.
func (l *tcpLink) fail(t *TCPTransport, err error) {
	if o := t.obs; o != nil {
		o.failures.Inc()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			o.deadlines.Inc()
		}
	}
	if l.breaker.failure(t.cfg.Now()) {
		if o := t.obs; o != nil {
			o.trips.Inc()
		}
		t.setOpen(t.openLinks.Add(1))
	}
}

// ok records a working RPC, closing the breaker (and clearing the gauge)
// if the link was recovering.
func (l *tcpLink) ok(t *TCPTransport) {
	if l.breaker.success() {
		t.setOpen(t.openLinks.Add(-1))
	}
}

func (t *TCPTransport) setOpen(n int64) {
	if o := t.obs; o != nil {
		o.open.Set(float64(n))
	}
}

// roundTrip sends req and reads the reply on c under the per-attempt
// deadlines: SetWriteDeadline covers the encode + flush, SetReadDeadline
// the response decode. The caller holds the link mutex. A non-empty
// response Err returns as a *RemoteError (healthy link, refused request).
func (t *TCPTransport) roundTrip(shard int, c *tcpConn, req *wireRequest) (*wireResponse, error) {
	sc := span.Context{Trace: req.TraceID, Parent: req.ParentID}
	ser := t.tracer.StartChild(sc, span.NSerialize)
	if d := t.cfg.RPCTimeout; d > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(d))
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("ps: sending to shard %d: %w", shard, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, fmt.Errorf("ps: flushing to shard %d: %w", shard, err)
	}
	ser.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
	wire := t.tracer.StartChild(sc, span.NWireTCP)
	var resp wireResponse
	defer func() { wire.EndAttrs(span.Attrs{Shard: shard}) }()
	if d := t.cfg.RPCTimeout; d > 0 {
		c.conn.SetReadDeadline(time.Now().Add(d))
	}
	if err := c.dec.Decode(&resp); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("ps: shard %d closed the connection", shard)
		}
		return nil, fmt.Errorf("ps: reading from shard %d: %w", shard, err)
	}
	c.conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	return &resp, nil
}

// Pull implements Transport: the request advertises the link's base
// versions (delta profiles), the reply's payload decodes through the
// negotiated pull codec. Each retry attempt re-encodes the base versions
// against the current connection's codec state — after a reconnect the
// fresh codec advertises nothing, so the shard answers with full rows.
func (t *TCPTransport) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	var out *PullResponse
	err := t.withLink(shard, func(_ *tcpLink, c *tcpConn) error {
		c.pbuf = c.lc.appendBaseVers(c.pbuf[:0], req.Keys)
		resp, err := t.roundTrip(shard, c, &wireRequest{
			Op: 'P', Keys: req.Keys, Payload: c.pbuf,
			TraceID: req.Trace.Trace, ParentID: req.Trace.Parent,
		})
		if err != nil {
			return err
		}
		sp := t.tracer.StartChild(req.Trace, span.NEncode)
		vals := make([]float32, c.lc.totalWidth(req.Keys))
		if err := c.lc.decodePull(req.Keys, resp.Payload, vals); err != nil {
			sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
			// The link's base state may now disagree with the shard's:
			// poison and retry on a fresh codec.
			return fmt.Errorf("ps: decoding pull from shard %d: %w", shard, err)
		}
		sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(resp.Payload)), Shard: shard})
		out = &PullResponse{
			Vals:    vals,
			TxBytes: PullRequestBytes(len(req.Keys)) + int64(len(c.pbuf)),
			RxBytes: msgHeaderBytes + int64(len(resp.Payload)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Push implements Transport: gradients are codec-encoded (the caller's
// vals are rewritten with the decoder-visible values, as everywhere in the
// codec layer) and travel as an opaque payload. The payload is encoded
// once and retries re-send the identical bytes under the same sequence
// number, so a push whose response was lost after the shard applied it is
// deduplicated server-side instead of double-applied.
func (t *TCPTransport) Push(shard int, req *PushRequest) error {
	var payload []byte
	var seq uint64
	return t.withLink(shard, func(l *tcpLink, c *tcpConn) error {
		if payload == nil {
			sp := t.tracer.StartChild(req.Trace, span.NEncode)
			p, err := c.lc.encodePush(c.pbuf[:0], req.Keys, req.Vals)
			if err != nil {
				sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
				return &noRetryError{err}
			}
			c.pbuf = p
			payload = p
			sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(p)), Shard: shard})
			req.WireBytes = msgHeaderBytes + 8*int64(len(req.Keys)) + int64(len(p))
			l.seq++
			seq = l.seq
		}
		_, err := t.roundTrip(shard, c, &wireRequest{
			Op: 'U', Keys: req.Keys, Payload: payload, Seq: seq,
			TraceID: req.Trace.Trace, ParentID: req.Trace.Parent,
		})
		return err
	})
}

// Close implements Transport. A closed transport fails every subsequent
// RPC instead of reconnecting.
func (t *TCPTransport) Close() error {
	t.closed.Store(true)
	var first error
	for _, l := range t.links {
		l.mu.Lock()
		if l.c != nil {
			if err := l.c.conn.Close(); err != nil && first == nil {
				first = err
			}
			l.c = nil
		}
		l.mu.Unlock()
	}
	return first
}
