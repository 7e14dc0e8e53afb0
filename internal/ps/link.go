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

// The link layer is the worker side of every parameter-server conversation:
// one shard's conn (gob over TCP, or a direct call into an in-process shard
// session), the codec state negotiated on it, the push sequence, and the
// fault policy — per-attempt socket deadlines, retries with exponential
// backoff + deterministic jitter, poison-and-redial (re-running the codec
// handshake, which resets delta bases to the version-0 unbased sentinel),
// and a per-link circuit breaker (closed → open → half-open) that turns a
// dead shard into a cheap fail-fast. The clock is injectable so unit tests
// drive the whole state machine deterministically.

// LinkConfig parameterizes the fault-tolerant RPC behaviour of one
// transport's shard links. Zero fields take the documented defaults;
// negative durations/counts disable the corresponding mechanism.
type LinkConfig struct {
	// RPCTimeout bounds each RPC attempt (and each dial + handshake):
	// SetWriteDeadline before the request is encoded, SetReadDeadline
	// before the response is decoded. Default 10s; negative disables
	// deadlines.
	RPCTimeout time.Duration
	// Retries is how many times a failed attempt is retried (on a fresh
	// connection) before the call fails with a LinkDownError. Default 3;
	// negative disables retries.
	Retries int
	// RetryBase is the first retry's backoff; attempt n waits
	// RetryBase·2^(n-1), jittered into [d/2, d). Default 25ms.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff. Default 1s.
	RetryMax time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// link's circuit breaker. Default 4 (one fully retried RPC under the
	// default Retries). Negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// allowing one half-open probe. Default 1s.
	BreakerCooldown time.Duration
	// Seed keys the backoff jitter (per link, mixed with the shard
	// index), so retry schedules are reproducible.
	Seed int64
	// Now and Sleep inject the clock for the breaker and backoff (tests
	// substitute a fake; socket deadlines always use real time). Defaults:
	// time.Now, time.Sleep.
	Now   func() time.Time
	Sleep func(time.Duration)
}

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
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = 4
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
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
	cooldown  time.Duration
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
		if now.Sub(b.openedAt) < b.cooldown {
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
// link per shard: DialTCPLink builds it over sockets, NewCodecTransport over
// in-process shard sessions, and a CoordClient is one such link to the
// coordinator. Calls on the same shard are serialized by a per-link mutex;
// failed calls retry with backoff and transparent reconnect per LinkConfig.
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

// TCPTransport is LinkTransport under the name DialTCPLink's callers know.
type TCPTransport = LinkTransport

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
// negotiated on it, and either an in-process shard session or a gob stream
// over a socket.
type linkConn struct {
	lc   *linkCodec
	pbuf []byte // request payload scratch (base versions / encoded grads)

	sess *session // in-process: the shard end, called directly

	conn net.Conn // over TCP
	enc  *gob.Encoder
	dec  *gob.Decoder
	bw   *bufio.Writer
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
				cooldown:  t.cfg.BreakerCooldown,
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

// newLinkID returns a process-unique, never-zero link identity.
func newLinkID() uint64 {
	id := splitmix64(uint64(time.Now().UnixNano())) ^ linkSeq.Add(1)
	if id == 0 {
		id = 1
	}
	return id
}

// Trace attaches a span tracer to the transport. Traced requests then record
// transport.encode (codec work) and, over TCP, transport.serialize (gob
// encode + flush) and wire.tcp (request flushed → response decoded, which
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
	if len(t.links) > 0 && t.links[0].addr != "" { // links cross a socket
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

// NegotiatedProfile returns the profile this transport was built with
// ("auto" when per-connection resolution was requested over TCP, in which
// case each link's own profile can differ).
func (t *LinkTransport) NegotiatedProfile() string { return t.codec }

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

// withLink runs attempt against shard's link under the retry policy: a
// transport-level failure poisons the connection (closing it so the gob
// stream can never desynchronize), backs off with deterministic jitter,
// reconnects, and re-runs the attempt. Application errors (RemoteError,
// noRetryError) pass through without retry or poisoning. When the link's
// circuit breaker is open the call fails fast with a LinkDownError before
// touching the wire.
func (t *LinkTransport) withLink(shard int, attempt func(l *link, c *linkConn) error) error {
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

// call runs one request on shard's link under the retry policy and returns
// the reply payload.
func (t *LinkTransport) call(shard int, req *wireRequest) ([]byte, error) {
	var payload []byte
	err := t.withLink(shard, func(l *link, c *linkConn) error {
		var err error
		payload, err = t.roundTrip(l, c, req)
		return err
	})
	return payload, err
}

// backoff returns the jittered exponential delay before retry attempt n
// (n ≥ 1): base·2^(n-1) capped at RetryMax, scaled into [d/2, d) by the
// link's deterministic jitter stream.
func (l *link) backoff(cfg LinkConfig, n int) time.Duration {
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

// roundTrip sends req on c and returns the reply payload — the one place a
// worker writes a request and reads its reply. An in-process session is
// called directly; a socket carries req under the per-attempt deadlines:
// SetWriteDeadline covers the encode + flush, SetReadDeadline the response
// decode. The caller holds the link mutex. A refused request returns as a
// *RemoteError (healthy link, refused request).
func (t *LinkTransport) roundTrip(l *link, c *linkConn, req *wireRequest) ([]byte, error) {
	if c.sess != nil {
		payload, err := c.sess.handle(req)
		if err != nil {
			return nil, &RemoteError{Msg: err.Error(), err: err}
		}
		return payload, nil
	}
	shard := l.shard
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
	return resp.Payload, nil
}

// Pull implements Transport: the request advertises the link's base
// versions (delta profiles), the reply's payload decodes through the
// negotiated pull codec. Each retry attempt re-encodes the base versions
// against the current connection's codec state — after a reconnect the
// fresh codec advertises nothing, so the shard answers with full rows.
func (t *LinkTransport) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	var out *PullResponse
	err := t.withLink(shard, func(l *link, c *linkConn) error {
		c.pbuf = c.lc.appendBaseVers(c.pbuf[:0], req.Keys)
		payload, err := t.roundTrip(l, c, &wireRequest{
			Op: 'P', Keys: req.Keys, Payload: c.pbuf,
			TraceID: req.Trace.Trace, ParentID: req.Trace.Parent,
		})
		if err != nil {
			return err
		}
		sp := t.tracer.StartChild(req.Trace, span.NEncode)
		vals := make([]float32, c.lc.totalWidth(req.Keys))
		if err := c.lc.decodePull(req.Keys, payload, vals); err != nil {
			sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
			// The link's base state may now disagree with the shard's:
			// poison and retry on a fresh codec.
			return fmt.Errorf("ps: decoding pull from shard %d: %w", shard, err)
		}
		sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(payload)), Shard: shard})
		out = &PullResponse{
			Vals:    vals,
			TxBytes: PullRequestBytes(len(req.Keys)) + int64(len(c.pbuf)),
			RxBytes: msgHeaderBytes + int64(len(payload)),
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
func (t *LinkTransport) Push(shard int, req *PushRequest) error {
	var payload []byte
	var seq uint64
	return t.withLink(shard, func(l *link, c *linkConn) error {
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
		_, err := t.roundTrip(l, c, &wireRequest{
			Op: 'U', Keys: req.Keys, Payload: payload, Seq: seq,
			TraceID: req.Trace.Trace, ParentID: req.Trace.Parent,
		})
		return err
	})
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
