package ps

import (
	"bytes"
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

// The link layer is the worker side of every parameter-server conversation:
// one shard's conn (binary frames over TCP, or an in-process call into the
// shard: rows moved unencoded under fp32, a shard session under any other
// profile), the codec state negotiated on it, the push sequence, and the
// fault policy — one socket deadline per exchange, retries
// with exponential backoff + deterministic jitter, poison-and-redial
// (re-running the codec handshake, which resets delta bases to the
// version-0 unbased sentinel), and a per-link circuit breaker (closed →
// open → half-open) that turns a dead shard into a cheap fail-fast. The clock is injectable so unit tests
// drive the whole state machine deterministically.

// LinkConfig parameterizes the fault-tolerant RPC behaviour of one
// transport's shard links. Zero fields take the documented defaults;
// negative durations/counts disable the corresponding mechanism.
type LinkConfig struct {
	// RPCTimeout bounds each RPC attempt (and each dial + handshake): one
	// SetDeadline, armed before the request is written, covers the request
	// and its reply. Default 10s; negative disables deadlines.
	RPCTimeout time.Duration
	// Retries is how many times a failed attempt is retried (on a fresh
	// connection) before the call fails with a LinkDownError. Default 3;
	// negative disables retries.
	Retries int
	// BreakerThreshold is the consecutive-failure count that opens a
	// link's circuit breaker. Default 4 (one fully retried RPC under the
	// default Retries). Negative disables the breaker.
	BreakerThreshold int
	// Seed keys the backoff jitter (per link, mixed with the shard
	// index), so retry schedules are reproducible.
	Seed int64
	// Now and Sleep inject the clock for the breaker and backoff (tests
	// substitute a fake; socket deadlines always use real time). Defaults:
	// time.Now, time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// The retry and breaker timings are fixed; tests drive them through the
// injected clock.
const (
	// retryBase is the first retry's backoff; attempt n waits
	// retryBase·2^(n-1), jittered into [d/2, d).
	retryBase = 25 * time.Millisecond
	// retryMax caps the exponential backoff.
	retryMax = time.Second
	// breakerCooldown is how long an open breaker rejects calls before
	// allowing one half-open probe.
	breakerCooldown = time.Second
)

// withDefaults returns cfg with zero fields filled and negative sentinels
// normalized.
func (cfg LinkConfig) withDefaults() LinkConfig {
	switch {
	case cfg.RPCTimeout == 0:
		cfg.RPCTimeout = 10 * time.Second
	case cfg.RPCTimeout < 0:
		cfg.RPCTimeout = 0
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 3
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 4
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return cfg
}

// ErrLinkDown marks RPC failures caused by an unreachable shard link (every
// retry exhausted, or the circuit breaker open). Callers test with
// errors.Is to distinguish an outage — survivable via the degraded mode —
// from application errors, which never carry this mark.
var ErrLinkDown = errors.New("ps: shard link down")

// LinkDownError is the typed form of ErrLinkDown: which shard, at what
// address, and the last underlying attempt error.
type LinkDownError struct {
	// Shard is the unreachable shard's index.
	Shard int
	// Addr is its dial address.
	Addr string
	// Breaker reports whether the call was rejected fail-fast by an open
	// circuit breaker (no attempt was made on the wire).
	Breaker bool
	// Err is the last transport-level attempt error (nil only when the
	// breaker rejected the call before any attempt in this process's
	// lifetime, which cannot happen in practice).
	Err error
}

// Error implements error.
func (e *LinkDownError) Error() string {
	if e.Breaker {
		return fmt.Sprintf("ps: shard %d (%s) unavailable: circuit breaker open (last error: %v)", e.Shard, e.Addr, e.Err)
	}
	return fmt.Sprintf("ps: shard %d (%s) unavailable: %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying attempt error.
func (e *LinkDownError) Unwrap() error { return e.Err }

// Is marks every LinkDownError as ErrLinkDown.
func (e *LinkDownError) Is(target error) bool { return target == ErrLinkDown }

// RemoteError is an application-level refusal from a healthy shard (the
// wireResponse carried a non-empty Err). The link worked — remote errors
// never retry, never poison the connection, and never trip the breaker.
type RemoteError struct {
	// Msg is the shard's error string.
	Msg string
	// err is the refusal itself when the shard is in-process, so its
	// identity (a wrapped transport's ErrLinkDown, say) survives the link.
	err error
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// Unwrap exposes an in-process shard's refusal (nil over a socket).
func (e *RemoteError) Unwrap() error { return e.err }

// noRetryError wraps local, non-transport errors (e.g. a codec encode
// failure) that must surface immediately without poisoning the connection.
type noRetryError struct{ err error }

func (e *noRetryError) Error() string { return e.err.Error() }
func (e *noRetryError) Unwrap() error { return e.err }

// Circuit breaker states: closed passes traffic, open rejects fail-fast,
// half-open admits a single probe after the cooldown.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one link's circuit breaker. It is guarded by the owning
// link's mutex; with threshold 0 it never opens.
type breaker struct {
	threshold int
	state     int
	failures  int // consecutive failures while closed
	openedAt  time.Time
}

// allow reports whether a call may proceed now. An open breaker whose
// cooldown has elapsed transitions to half-open and admits one probe (the
// link mutex serializes callers, so exactly one probe is in flight).
func (b *breaker) allow(now time.Time) bool {
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	default:
		return true
	}
}

// success records a working RPC; it returns true when the breaker closed
// from a non-closed state (a recovered link).
func (b *breaker) success() (recovered bool) {
	was := b.state
	b.state = breakerClosed
	b.failures = 0
	return was != breakerClosed
}

// failure records a failed attempt; it returns true when this failure
// tripped the breaker from closed to open (a half-open probe failure
// re-opens without counting as a new trip).
func (b *breaker) failure(now time.Time) (tripped bool) {
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
	case breakerClosed:
		b.failures++
		if b.threshold > 0 && b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// linkObs holds a transport's registry-backed ps.link.* series (see
// LinkTransport.Instrument).
type linkObs struct {
	retries   *metrics.Counter
	reconns   *metrics.Counter
	failures  *metrics.Counter
	deadlines *metrics.Counter
	trips     *metrics.Counter
	open      *metrics.Gauge
}

// newLinkObs registers the link-health series in reg.
func newLinkObs(reg *metrics.Registry) *linkObs {
	return &linkObs{
		retries:   reg.Counter(metrics.MPSLinkRetries),
		reconns:   reg.Counter(metrics.MPSLinkReconnects),
		failures:  reg.Counter(metrics.MPSLinkFailures),
		deadlines: reg.Counter(metrics.MPSLinkDeadlineExceeded),
		trips:     reg.Counter(metrics.MPSLinkBreakerTrips),
		open:      reg.Gauge(metrics.MPSLinkBreakerOpen),
	}
}

// LinkTransport is the worker side of the parameter-server protocol, one
// link per shard: DialTCPLink builds it over sockets, NewInProc and
// NewCodecTransport over in-process conns, and a CoordClient is one such
// link to the coordinator. Every call is a round (see round): a Client's
// per-shard pulls or pushes for one batch run as one, every request sent
// before any reply is read, and a single Pull, Push or coordinator call is
// a round of one.
// Calls on the same shard are serialized by a per-link mutex; failed calls
// retry with backoff and transparent reconnect per LinkConfig.
type LinkTransport struct {
	links  []*link
	codec  string // requested profile ("auto" resolves per connection)
	cfg    LinkConfig
	dial   func(*LinkTransport, *link) (*linkConn, error)
	tracer *span.Tracer
	closed atomic.Bool

	obs       *linkObs  // ps.link.* series (nil when uninstrumented or in-process)
	codecObs  *codecObs // applied to each (re)connected linkCodec
	openLinks atomic.Int64
}

// link is one shard's persistent link: the current connection (nil while
// disconnected), the dial coordinates needed to rebuild it, the circuit
// breaker, and the push sequence for exactly-once retries.
type link struct {
	shard int
	addr  string // dial address ("" for an in-process session)

	mu        sync.Mutex
	c         *linkConn
	prof      Profile // resolved profile (stable across reconnects)
	auto      bool    // profile still to be resolved from dial RTT
	id        uint64  // link identity carried in the hello (push dedup)
	seq       uint64  // last assigned push sequence
	rng       uint64  // backoff jitter state
	breaker   breaker
	connected bool // ever connected (distinguishes reconnects)
}

// linkConn is one connection of a link: the worker-side codec state
// negotiated on it, the request scratch, and one of an in-process shard's
// rows (fp32: moved unencoded), an in-process shard session (any other
// profile), or a frame stream over a socket.
type linkConn struct {
	lc   *linkCodec
	pbuf []byte      // request payload scratch (base versions / encoded grads)
	req  wireRequest // the request an attempt sends, rebuilt per attempt

	rows shardRows // in-process fp32: the shard's rows, served by move

	sess    *session // in-process: the shard end, called directly by send
	reply   []byte   // the session's answer to the request send made...
	refusal error    // ...or its refusal, both held for recv

	conn net.Conn    // over TCP
	fr   frameReader // reply frames
	out  []byte      // request frame scratch
	sent uint64      // requests written on conn; a reply must answer the last
}

// close releases the connection's socket, if it has one.
func (c *linkConn) close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// newLinkTransport builds one link per address with dial and connects each
// eagerly, so a bad address or a refused handshake fails construction, not
// the first call; on any error every link already connected is closed
// before returning (no partial progress leaks). dedup gives each link an
// identity for the shard's push-dedup table (membership links carry no
// pushes and send 0).
func newLinkTransport(addrs []string, prof Profile, cfg LinkConfig, dedup bool, dial func(*LinkTransport, *link) (*linkConn, error)) (*LinkTransport, error) {
	t := &LinkTransport{codec: prof.Name, cfg: cfg.withDefaults(), dial: dial}
	for i, addr := range addrs {
		l := &link{
			shard: i,
			addr:  addr,
			prof:  prof,
			auto:  prof.Name == ProfileAuto,
			rng:   splitmix64(uint64(t.cfg.Seed) ^ uint64(i)*0x9e3779b97f4a7c15),
			breaker: breaker{
				threshold: t.cfg.BreakerThreshold,
			},
		}
		if dedup {
			l.id = newLinkID()
		}
		t.links = append(t.links, l)
	}
	for _, l := range t.links {
		if err := l.connect(t); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// linkSeq feeds newLinkID; mixing in the dial time keeps ids unique across
// worker processes without coordination.
var linkSeq atomic.Uint64

// newLinkID returns a process-unique, never-zero link identity. Its top bit
// is set, so its uvarint in the hello is always 10 bytes and a run's socket
// byte counts do not depend on the id it drew.
func newLinkID() uint64 {
	return splitmix64(uint64(time.Now().UnixNano())) ^ linkSeq.Add(1) | 1<<63
}

// Trace attaches a span tracer to the transport. Traced requests then record
// transport.encode (codec work) and, over TCP, transport.serialize (framing
// + write) and wire.tcp (request written → reply frame read, which
// includes shard service time) spans. The transport is shared by every
// worker on the process, so wire its tracer with the
// MachineTransport/WorkerTransport pseudo-coordinates.
func (t *LinkTransport) Trace(tr *span.Tracer) { t.tracer = tr }

// Instrument publishes the transport's codec byte accounting — pre-codec
// payload bytes (ps.codec.bytes_raw), post-codec wire bytes
// (ps.codec.bytes_wire), delta-encoded pull rows (ps.codec.rows_delta) —
// and, for links over sockets, their ps.link.* health series: retries,
// reconnects, failures, deadline hits, breaker trips, and the breaker-open
// gauge. Call before traffic flows.
func (t *LinkTransport) Instrument(reg *metrics.Registry) {
	t.codecObs = newCodecObs(reg)
	if len(t.links) > 0 && t.links[0].addr != "" { // over sockets (DialTCPLink)
		t.obs = newLinkObs(reg)
	}
	for _, l := range t.links {
		l.mu.Lock()
		if l.c != nil {
			l.c.lc.obs = t.codecObs
		}
		l.mu.Unlock()
	}
}

// checkWidths refuses shards whose rows (as acked) are not entDim/relDim wide.
func (t *LinkTransport) checkWidths(entDim, relDim int) error {
	for _, l := range t.links {
		l.mu.Lock()
		c := l.c
		l.mu.Unlock()
		if c == nil {
			continue
		}
		if e, r := c.lc.widthOf(EntityKey(0)), c.lc.widthOf(RelationKey(0)); e != entDim || r != relDim {
			return fmt.Errorf("ps: shard %d (%s) serves entity/relation rows of width %d/%d, this trainer needs %d/%d: start the shards with the trainer's -model and -dim", l.shard, l.addr, e, r, entDim, relDim)
		}
	}
	return nil
}

// LinksDown returns how many shard links currently sit behind an open
// circuit breaker (the live value of the ps.link.breaker_open gauge).
func (t *LinkTransport) LinksDown() int { return int(t.openLinks.Load()) }

// connect (re)builds l's connection with the transport's dial, installing
// it. The caller holds l.mu (or, during construction, is the sole owner). A
// reconnect builds a new linkCodec on both ends, so delta base state
// restarts at the version-0 unbased sentinel.
func (l *link) connect(t *LinkTransport) error {
	c, err := t.dial(t, l)
	if err != nil {
		return err
	}
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

// link returns shard's link, or why no call may use it.
func (t *LinkTransport) link(shard int) (*link, error) {
	if shard < 0 || shard >= len(t.links) {
		return nil, fmt.Errorf("ps: no shard %d", shard)
	}
	if t.closed.Load() {
		return nil, fmt.Errorf("ps: transport closed")
	}
	return t.links[shard], nil
}

// exchange is one request and its reply on a shard link: the request's
// fields (copied, so the caller's request never escapes), what the reply
// brought back, and the state of the attempt the round began.
type exchange struct {
	shard int
	op    byte         // 'P' pull or 'U' push
	raw   *wireRequest // a request sent as it is (a coordinator call), op unused
	keys  []Key
	vals  []float32 // a push's gradient rows (a lossy codec rewrites them), or a pull's reply rows (in this buffer when it is wide enough)
	trace span.Context

	payload []byte // a push's encoded rows (nil until encoded), or a raw request's reply
	seq     uint64 // a push's sequence number
	tx, rx  int64  // the wire sizes of the request and its reply (a push has no reply bytes)

	l     *link       // x's link, held from the request to the reply
	began bool        // a request went out on l's connection and its reply is unread
	wire  span.Active // the request's wire.tcp span
	err   error       // no link, the request's failure, then x's outcome
}

// round runs xs, each on its shard's link, the shards distinct and
// ascending: every request is sent before any reply is read, so shards
// behind sockets serve them at the same time and the caller waits about as
// long as the slowest shard takes instead of the sum of all of them, on its
// own goroutine. An in-process conn answers as its request is sent.
// Replies are then read in shard order and done(i, err) reports each xs[i]
// as it finishes. Each link is held from its request to its reply, taken in
// ascending shard order, so a shard sees one caller's requests in the order
// they were made and two overlapping callers cannot deadlock. An exchange
// whose link has no connection, or whose request fails, runs under the
// retry policy in the reply phase. A single Pull, Push or coordinator call
// is a round of one.
func (t *LinkTransport) round(xs []exchange, done func(i int, err error)) {
	for i := range xs {
		x := &xs[i]
		if x.l, x.err = t.link(x.shard); x.err != nil {
			continue
		}
		x.l.mu.Lock()
		if x.l.c != nil {
			t.begin(x.l.c, x)
		}
	}
	for i := range xs {
		x := &xs[i]
		if x.l != nil {
			x.err = t.retry(x)
			x.l.mu.Unlock()
		}
		done(i, x.err)
	}
}

// one runs x as a round of one and returns it finished.
func (t *LinkTransport) one(x exchange) exchange {
	xs := [1]exchange{x}
	t.round(xs[:], func(int, error) {})
	return xs[0]
}

// retry finishes x under the retry policy; the caller holds x.l.mu. The
// first try reads the reply to the request the round sent, if it sent one.
// A transport-level failure poisons the connection (closing it, so no
// later request reads a reply meant for this one), backs off with
// deterministic jitter, reconnects, and runs x again whole. Application errors (RemoteError,
// noRetryError) pass through without retry or poisoning. When the link's
// circuit breaker is open the call fails fast with a LinkDownError before
// touching the wire.
func (t *LinkTransport) retry(x *exchange) error {
	l := x.l
	var lastErr error
	for try := 0; ; try++ {
		if try > 0 {
			if try > t.cfg.Retries {
				break
			}
			if o := t.obs; o != nil {
				o.retries.Inc()
			}
			t.cfg.Sleep(l.backoff(try))
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
		if !x.began {
			t.begin(l.c, x)
		}
		err := t.end(l.c, x)
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

// begin builds x's request for c and sends it; end reads the reply. An
// fp32 in-process conn serves x here, whole.
func (t *LinkTransport) begin(c *linkConn, x *exchange) {
	x.began = true
	if c.rows != nil {
		x.err = c.move(x)
		return
	}
	req, err := t.request(c, x)
	if err == nil {
		x.wire, err = t.send(x.l, c, req)
	}
	x.err = err
}

// end reads the reply to the request begin sent on c and consumes it.
func (t *LinkTransport) end(c *linkConn, x *exchange) error {
	x.began = false
	if x.err != nil || c.rows != nil {
		return x.err
	}
	payload, err := t.recv(x.l, c, t.replyLimit(c, x), x.wire)
	if err != nil {
		return err
	}
	return t.reply(c, x, payload)
}

// replyLimit bounds the reply body x's request allows: a pull's rows at
// their widest encoding on c's codec, a coordinator call's membership body,
// and otherwise a refusal's text.
func (t *LinkTransport) replyLimit(c *linkConn, x *exchange) int {
	switch {
	case x.raw != nil:
		return replyHeadMax + maxMemberBody
	case x.op == 'P':
		return replyHeadMax + max(maxErrText, c.lc.maxPullBytes(x.keys))
	}
	return replyHeadMax + maxErrText
}

// backoff returns the jittered exponential delay before retry attempt n
// (n ≥ 1): retryBase·2^(n-1) capped at retryMax, scaled into [d/2, d) by
// the link's deterministic jitter stream.
func (l *link) backoff(n int) time.Duration {
	d := retryBase
	for i := 1; i < n && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	l.rng = splitmix64(l.rng)
	frac := 0.5 + 0.5*float64(l.rng>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// poison closes and discards the link's connection after a transport-level
// failure — the stream position is unknown, so the connection must never
// carry another RPC — and records the failure with the breaker.
func (l *link) poison(t *LinkTransport, err error) {
	if l.c != nil {
		l.c.close()
		l.c = nil
	}
	l.fail(t, err)
}

// fail feeds one attempt failure into the metrics and the breaker,
// updating the breaker-open gauge on a trip.
func (l *link) fail(t *LinkTransport, err error) {
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
func (l *link) ok(t *LinkTransport) {
	if l.breaker.success() {
		t.setOpen(t.openLinks.Add(-1))
	}
}

func (t *LinkTransport) setOpen(n int64) {
	if o := t.obs; o != nil {
		o.open.Set(float64(n))
	}
}

// send writes req on c's socket as one frame and returns the wire.tcp span
// that recv ends when the reply is read. One deadline, armed here, covers
// the request and its reply; it is left armed after the reply, since
// nothing reads an idle connection and the next send re-arms it. An
// in-process session serves req here and c holds its answer for recv.
func (t *LinkTransport) send(l *link, c *linkConn, req *wireRequest) (span.Active, error) {
	if c.sess != nil {
		c.reply, c.refusal = c.sess.handle(c.reply[:0], req)
		return span.Active{}, nil
	}
	shard := l.shard
	sc := span.Context{Trace: req.TraceID, Parent: req.ParentID}
	ser := t.tracer.StartChild(sc, span.NSerialize)
	if d := t.cfg.RPCTimeout; d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
	}
	c.out = appendRequest(c.out[:0], req)
	if _, err := c.conn.Write(c.out); err != nil {
		return span.Active{}, fmt.Errorf("ps: sending to shard %d: %w", shard, err)
	}
	c.sent++
	ser.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(c.out)), Shard: shard})
	return t.tracer.StartChild(sc, span.NWireTCP), nil
}

// recv reads the reply to the request send wrote on c, a body of at most
// limit bytes, under send's deadline, and ends send's wire span. The payload
// is valid until c's next reply. A refused request returns as a
// *RemoteError (healthy link, refused request); a reply that answers
// another request, or is longer than limit, is a transport failure.
func (t *LinkTransport) recv(l *link, c *linkConn, limit int, wire span.Active) ([]byte, error) {
	if c.sess != nil {
		if err := c.refusal; err != nil {
			return nil, refused(err)
		}
		return c.reply, nil
	}
	shard := l.shard
	defer func() { wire.EndAttrs(span.Attrs{Shard: shard}) }()
	body, err := c.fr.next(limit)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("ps: shard %d closed the connection", shard)
		}
		return nil, fmt.Errorf("ps: reading from shard %d: %w", shard, err)
	}
	payload, err := parseReply(body, c.req.Op, c.sent)
	if err != nil {
		if rerr := (*RemoteError)(nil); errors.As(err, &rerr) {
			return nil, err
		}
		return nil, fmt.Errorf("ps: reading from shard %d: %w", shard, err)
	}
	return payload, nil
}

// request builds x's request for c, again on every attempt. A pull
// advertises the connection's base versions (delta profiles): after a
// reconnect the fresh codec advertises nothing, so the shard answers with
// full rows. A push is encoded once, on its first attempt, and every retry
// re-sends the identical bytes under the same sequence number, so a push
// whose reply was lost after the shard applied it is deduplicated
// shard-side instead of applied twice. The request is built in c's scratch.
func (t *LinkTransport) request(c *linkConn, x *exchange) (*wireRequest, error) {
	req := &c.req
	if x.raw != nil {
		*req = *x.raw
		return req, nil
	}
	*req = wireRequest{Op: x.op, Keys: x.keys, TraceID: x.trace.Trace, ParentID: x.trace.Parent}
	switch x.op {
	case 'P':
		c.pbuf = c.lc.appendBaseVers(c.pbuf[:0], x.keys)
		req.Payload = c.pbuf
	case 'U':
		if x.payload == nil {
			sp := t.tracer.StartChild(x.trace, span.NEncode)
			p, err := c.lc.encodePush(c.pbuf[:0], x.keys, x.vals)
			if err != nil {
				sp.EndAttrs(span.Attrs{Rows: int64(len(x.keys)), Shard: x.shard})
				return nil, &noRetryError{err}
			}
			c.pbuf = p
			x.payload = p
			sp.EndAttrs(span.Attrs{Rows: int64(len(x.keys)), Bytes: int64(len(p)), Shard: x.shard})
			x.tx = msgHeaderBytes + 8*int64(len(x.keys)) + int64(len(p))
			x.l.seq++
			x.seq = x.l.seq
		}
		req.Payload, req.Seq = x.payload, x.seq
	}
	return req, nil
}

// reply consumes x's reply payload: a pull's decodes through c's codec
// into x.vals when it is wide enough, a raw request's is copied out of c's
// reply buffer.
func (t *LinkTransport) reply(c *linkConn, x *exchange, payload []byte) error {
	if x.raw != nil {
		x.payload = bytes.Clone(payload)
		return nil
	}
	if x.op != 'P' {
		return nil
	}
	sp := t.tracer.StartChild(x.trace, span.NEncode)
	vals := x.vals
	if n := c.lc.totalWidth(x.keys); cap(vals) >= n {
		vals = vals[:n]
	} else {
		vals = make([]float32, n)
	}
	if err := c.lc.decodePull(x.keys, payload, vals); err != nil {
		sp.EndAttrs(span.Attrs{Rows: int64(len(x.keys)), Shard: x.shard})
		// The link's base state may now disagree with the shard's:
		// poison and retry on a fresh codec.
		return fmt.Errorf("ps: decoding pull from shard %d: %w", x.shard, err)
	}
	sp.EndAttrs(span.Attrs{Rows: int64(len(x.keys)), Bytes: int64(len(payload)), Shard: x.shard})
	x.vals = vals
	x.tx = PullRequestBytes(len(x.keys)) + int64(len(c.pbuf))
	x.rx = msgHeaderBytes + int64(len(payload))
	return nil
}

// move serves x on an fp32 in-process conn, rows unencoded: a pull appends
// the shard's rows to x.vals's buffer, a push applies x.vals as they are.
// It keeps what the codec path checks — the shard's key-count bound, and
// values exactly as wide as the keys' rows — and reports and counts what
// an fp32 link would: the size formulas, and ps.codec.bytes_raw/wire at
// 4 B a value. The shard's refusals come back as a *RemoteError, as a
// session's do.
func (c *linkConn) move(x *exchange) error {
	if err := bounded(c.rows, x.keys); err != nil {
		return refused(err)
	}
	n := c.lc.totalWidth(x.keys)
	switch x.op {
	case 'P':
		vals, err := c.rows.pullAppend(x.trace, x.vals[:0], x.keys)
		if err == nil && len(vals) != n {
			err = fmt.Errorf("ps: pull payload has %d values, keys need %d", len(vals), n)
		}
		if err != nil {
			return refused(err)
		}
		x.vals = vals
		x.tx, x.rx = PullRequestBytes(len(x.keys)), PullResponseBytes(n)
	case 'U':
		if len(x.vals) != n {
			return &noRetryError{fmt.Errorf("ps: payload has %d values, keys need %d", len(x.vals), n)}
		}
		if err := c.rows.PushTraced(x.trace, x.keys, x.vals); err != nil {
			return refused(err)
		}
		x.tx = PushRequestBytes(len(x.keys), n)
	}
	if o := c.lc.obs; o != nil {
		o.bytesRaw.Add(4 * int64(n))
		o.bytesWire.Add(4 * int64(n))
	}
	return nil
}

// refused is an in-process shard's refusal as the link reports it.
func refused(err error) *RemoteError { return &RemoteError{Msg: err.Error(), err: err} }

// call runs one raw request on shard's link and returns the reply payload.
func (t *LinkTransport) call(shard int, req *wireRequest) ([]byte, error) {
	x := t.one(exchange{shard: shard, raw: req})
	return x.payload, x.err
}

// Pull implements Transport: a round of one pull, whose reply decodes
// through the link's negotiated pull codec (an fp32 in-process link
// copies the shard's rows into a fresh buffer instead).
func (t *LinkTransport) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	x := t.one(exchange{shard: shard, op: 'P', keys: req.Keys, trace: req.Trace})
	if x.err != nil {
		return nil, x.err
	}
	return &PullResponse{Vals: x.vals}, nil
}

// Push implements Transport: a round of one push. The gradients are
// codec-encoded (the caller's vals are rewritten with the decoder-visible
// values, as everywhere in the codec layer) and travel as an opaque payload.
func (t *LinkTransport) Push(shard int, req *PushRequest) error {
	return t.one(exchange{shard: shard, op: 'U', keys: req.Keys, vals: req.Vals, trace: req.Trace}).err
}

// Close implements Transport. A closed transport fails every subsequent
// RPC instead of reconnecting.
func (t *LinkTransport) Close() error {
	t.closed.Store(true)
	var first error
	for _, l := range t.links {
		l.mu.Lock()
		if l.c != nil {
			if err := l.c.close(); err != nil && first == nil {
				first = err
			}
			l.c = nil
		}
		l.mu.Unlock()
	}
	return first
}
