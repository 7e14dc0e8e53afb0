package ps

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"hetkg/internal/metrics"
)

// The TCP conn carries a link's requests over real sockets in binary
// frames (frame.go), proving the parameter server works across process
// boundaries. Experiments run the same links over in-process conns, whose
// cost comes from the netsim model (deterministic timing); integration
// tests and the cmd/ binaries exercise this conn.
//
// A connection starts with a codec handshake: the client sends a hello
// frame naming a codec profile (one byte, see profileID), the shard answers
// with an ack carrying its row widths (or a refusal when the profile is
// outside the Acceptor's allowlist). After the handshake, every embedding
// and gradient travels as an opaque payload produced by the negotiated
// linkCodec, behind a request or reply head of a few bytes, so the byte
// accounting each call reports matches what the socket carries. The shard
// end of the connection is a session (session.go).
//
// Fault tolerance lives one level up, in the link (link.go): any
// transport-level failure — a reply that does not parse, is longer than
// its request allows, or answers another request — poisons the connection,
// and the retry loop re-dials, re-handshakes, and re-issues the attempt. A
// reconnect builds a fresh linkCodec on both ends, so delta base state
// restarts at the version-0 unbased sentinel and lossy lockstep stays
// correct.

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
// volumes (frame heads and handshake included) into an instrumented
// shard's registry.
type countingConn struct {
	net.Conn
	rx, tx *metrics.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

// Write counts p before writing it, since the peer may read the bytes before
// Write returns, and takes back what a short write did not send.
func (c *countingConn) Write(p []byte) (int, error) {
	c.tx.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.tx.Add(int64(n - len(p)))
	return n, err
}

// handshakeServer negotiates one connection's codec: it reads the hello,
// checks the allowlist, and answers with the shard's widths (or a
// refusal). It also returns the client's link identity for push
// deduplication. A hello that is not a version-2 frame — a longer one, or
// one without the magic, such as a gob client's — is refused without an
// answer, before more than its length word is read.
func handshakeServer(fr *frameReader, conn net.Conn, srv *Server, allow []string) (Profile, uint64, error) {
	body, err := fr.next(maxHelloBody)
	if err != nil {
		return Profile{}, 0, err
	}
	hello, err := parseHello(body)
	if err != nil {
		return Profile{}, 0, err
	}
	prof, err := profileByID(hello.Profile)
	if err == nil && hello.V != wireVersion {
		err = fmt.Errorf("ps: wire version %d, want %d", hello.V, wireVersion)
	}
	if err == nil && len(allow) > 0 && !slices.Contains(allow, prof.Name) {
		err = fmt.Errorf("ps: codec %q refused by shard (allowed: %v)", prof.Name, allow)
	}
	ack := wireHelloAck{V: wireVersion, EntDim: srv.Width(EntityKey(0)), RelDim: srv.Width(RelationKey(0))}
	if err != nil {
		ack.Err = err.Error()
	}
	if _, werr := conn.Write(appendAck(nil, ack)); werr != nil {
		return Profile{}, 0, werr
	}
	return prof, hello.Link, err
}

// maxRequestBody bounds the request frames srv accepts: every row it owns
// named once (a key at most maxKeyBytes) with the row as wide as the widest
// profile encodes it, and, on a coordinator, a membership body. No
// legitimate request is longer (a pull or push names each row at most
// once), and a longer length word is refused before anything is sized
// from it.
func maxRequestBody(srv *Server, coord bool) int {
	rowBytes := func(w int) int {
		n := 4 // a delta pull's base version
		for _, p := range profiles {
			if c, err := rowCodec(p.Push); err == nil {
				n = max(n, c.MaxRowBytes(w))
			}
		}
		return maxKeyBytes + n
	}
	numRel := srv.NumRows() - srv.numEnt
	n := reqHeadMax + srv.numEnt*rowBytes(srv.entDim) + numRel*rowBytes(srv.relDim)
	if coord {
		n += maxMemberBody
	}
	return n
}

// serveConn serves one worker connection: the codec handshake, then a
// session answering each request frame in order, each reply written as one
// frame naming the request it answers. A request longer than
// maxRequestBody, or one that does not parse, is refused with a reply; a
// stream error ends the connection.
func serveConn(conn net.Conn, srv *Server, allow []string, coord *Membership) {
	defer conn.Close()
	if o := srv.obs; o != nil {
		o.tcpConns.Inc()
		conn = &countingConn{Conn: conn, rx: o.tcpRx, tx: o.tcpTx}
	}
	fr := &frameReader{r: bufio.NewReader(conn)}
	prof, linkID, err := handshakeServer(fr, conn, srv, allow)
	if err != nil {
		return // a refused hello's ack carried the reason
	}
	s, err := newSession(srv, coord, prof, linkID)
	if err != nil {
		return
	}
	limit := maxRequestBody(srv, coord != nil)
	var (
		req  wireRequest
		keys []Key
		out  []byte
	)
	for num := uint64(1); ; num++ {
		body, err := fr.next(limit)
		var bad error // why the whole request is refused
		if long, ok := err.(*frameLenError); ok {
			bad = err
			req.Op, err = fr.skip(long.n)
		} else if err == nil {
			keys, bad = parseRequest(body, keys, &req)
		}
		if err != nil {
			return // io.EOF on clean close
		}
		out = appendReplyHead(out[:0], req.Op, num)
		head := len(out)
		if bad == nil {
			var reply []byte
			if reply, bad = s.handle(out, &req); bad == nil {
				out = reply
			}
		}
		if bad != nil {
			out = refuse(out, head, bad)
		}
		if _, err := conn.Write(endFrame(out, 0)); err != nil {
			return
		}
	}
}

// DialTCPLink connects to every shard address, negotiating the named codec
// profile on each link and applying cfg's deadline/retry/breaker policy to
// every RPC (the zero LinkConfig selects the default hardening). "auto"
// measures each dial's TCP round-trip time and picks per link via
// ChooseProfile: co-located shards stay on fp32, slow links get delta-int8.
// Dialing is eager so a bad address or refused handshake fails the dial,
// not the first batch; on any error every connection already established
// is closed before returning (no partial progress leaks).
func DialTCPLink(addrs []string, codec string, cfg LinkConfig) (*LinkTransport, error) {
	prof, err := ResolveProfile(codec)
	if err != nil {
		return nil, err
	}
	return newLinkTransport(addrs, prof, cfg, true, (*LinkTransport).dialTCP)
}

// dialTCP dials and handshakes l's shard. Under "auto" the first dial's
// round-trip time picks the profile, and the choice is sticky: reconnects
// keep the codec.
func (t *LinkTransport) dialTCP(l *link) (*linkConn, error) {
	start := time.Now()
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout(t.cfg.RPCTimeout))
	if err != nil {
		return nil, fmt.Errorf("ps: dialing shard %s: %w", l.addr, err)
	}
	if l.auto {
		prof, err := ResolveProfile(ChooseProfile(time.Since(start), 0))
		if err != nil {
			conn.Close()
			return nil, err
		}
		l.prof = prof
		l.auto = false
	}
	if d := t.cfg.RPCTimeout; d > 0 {
		conn.SetDeadline(time.Now().Add(d))
	}
	c, err := handshakeClient(conn, l.prof, l.id)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ps: handshake with shard %s: %w", l.addr, err)
	}
	conn.SetDeadline(time.Time{})
	return c, nil
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
func handshakeClient(conn net.Conn, prof Profile, link uint64) (*linkConn, error) {
	id, err := profileID(prof.Name)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(appendHello(nil, wireHello{V: wireVersion, Profile: id, Link: link})); err != nil {
		return nil, err
	}
	fr := frameReader{r: bufio.NewReader(conn)}
	body, err := fr.next(maxAckBody)
	var long *frameLenError
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return nil, fmt.Errorf("ps: shard closed the connection at the hello; a shard built before wire version %d does (upgrade every shard and worker together)", wireVersion)
	case errors.As(err, &long):
		return nil, errNotFrame
	case err != nil:
		return nil, err
	}
	ack, err := parseAck(body)
	if err != nil {
		return nil, err
	}
	if ack.Err != "" {
		return nil, errors.New(ack.Err)
	}
	if ack.V != wireVersion {
		return nil, fmt.Errorf("ps: shard speaks wire version %d, want %d", ack.V, wireVersion)
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
	return &linkConn{conn: conn, fr: fr, lc: lc}, nil
}
