package ps

import (
	"errors"
	"fmt"
	"sort"

	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/span"
)

// DegradedError reports a Pull or Push that completed for every shard
// except unreachable ones (errors.Is(err, ErrLinkDown)). Keys lists the
// rows that were NOT fetched/pushed, in the deterministic shard-then-key
// order the RPCs were issued in; rows for healthy shards were handled
// normally. The degraded training mode catches this to serve the missing
// pulls from the cache and buffer the missing pushes.
type DegradedError struct {
	// Op is "pull" or "push".
	Op string
	// Keys are the rows the unreachable shards own.
	Keys []Key
	// Err is the first shard's LinkDownError.
	Err error
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("ps: %s degraded, %d rows on unreachable shards: %v", e.Op, len(e.Keys), e.Err)
}

// Unwrap exposes the underlying LinkDownError (so errors.Is(err,
// ErrLinkDown) holds for a DegradedError too).
func (e *DegradedError) Unwrap() error { return e.Err }

// Client is a worker's view of the parameter server. It routes each key to
// its owning shard, distinguishes localPull/localPush (the target shard is
// co-located with this worker's machine) from remotePull/remotePush, and
// meters the traffic of both classes for the netsim cost model — the split
// the paper's co-located PS design exists to exploit (§IV-A, §V).
//
// A Pull or Push makes one RPC per shard it touches. Over a LinkTransport
// they run as one round: every request is sent before any reply is read, as
// DGL-KE's KVStore sends one request per server and then collects the
// replies, so shards behind sockets work at the same time and a batch waits
// about as long as its slowest shard rather than the sum of all of them. No
// goroutine is started. A Transport that is not a LinkTransport (InProc, a
// wrapper or a fake) is called one shard after another. Either way every
// shard is asked and the replies are merged in ascending shard order, so
// rows, meter records, counters and a DegradedError's keys do not depend on
// the transport. The netsim meter still prices a batch's messages one after
// another, as it always has, so the simulated time of a run does not change
// with it.
type Client struct {
	machine int
	place   *Placement
	tr      Transport
	meter   *netsim.Meter
	entDim  int
	relDim  int
	obs     *clientObs
	tracer  *span.Tracer
	sc      span.Context
	links   *LinkTransport // tr, when it is one (see Client)
}

// clientObs holds a client's registry-backed RPC series (see Instrument).
type clientObs struct {
	pullRPCs *metrics.Counter
	pushRPCs *metrics.Counter
	pullRows *metrics.Counter
	pushRows *metrics.Counter
	bytesTx  *metrics.Counter
	bytesRx  *metrics.Counter
}

// Instrument publishes this client's parameter-server traffic into reg:
// RPC counts (ps.{pull,push}_rpcs), row counts (ps.{pull,push}_rows), and
// wire bytes split by direction (ps.bytes_tx / ps.bytes_rx, using the same
// size accounting that feeds the netsim cost model). Clients wired to the
// same registry aggregate. Call before the client is used.
func (c *Client) Instrument(reg *metrics.Registry) {
	c.obs = &clientObs{
		pullRPCs: reg.Counter(metrics.MPSPullRPCs),
		pushRPCs: reg.Counter(metrics.MPSPushRPCs),
		pullRows: reg.Counter(metrics.MPSPullRows),
		pushRows: reg.Counter(metrics.MPSPushRows),
		bytesTx:  reg.Counter(metrics.MPSBytesTx),
		bytesRx:  reg.Counter(metrics.MPSBytesRx),
	}
}

// NewClient builds a client for a worker sitting on the given machine.
// meter may be nil to disable traffic accounting. Shards whose rows are not
// as wide as c's (started with another -model or -dim) are refused.
func NewClient(machine int, c *Cluster, tr Transport, meter *netsim.Meter) (*Client, error) {
	if machine < 0 || machine >= c.Place.NumMachines() {
		return nil, fmt.Errorf("ps: machine %d out of range [0,%d)", machine, c.Place.NumMachines())
	}
	links, _ := tr.(*LinkTransport)
	if links != nil {
		if err := links.checkWidths(c.EntityDim(), c.RelationDim()); err != nil {
			return nil, err
		}
	}
	return &Client{
		machine: machine,
		place:   c.Place,
		tr:      tr,
		meter:   meter,
		entDim:  c.EntityDim(),
		relDim:  c.RelationDim(),
		links:   links,
	}, nil
}

// Machine returns the client's machine index.
func (c *Client) Machine() int { return c.machine }

// Meter returns the client's traffic meter (nil if disabled).
func (c *Client) Meter() *netsim.Meter { return c.meter }

// Trace attaches the owning worker's span tracer. Each per-shard RPC is then
// recorded as a ps.pull / ps.push span under the current span context, with
// the request carrying the RPC span's context so shard-side spans nest under
// it. Safe to leave unset.
func (c *Client) Trace(t *span.Tracer) { c.tracer = t }

// SetSpanContext sets the context new RPC spans parent under — the sampled
// batch's root span (or a cache-refresh span, for the refresh's bulk pull).
// Pass the zero Context to stop recording. The worker owns the client, so
// this is not synchronized with Pull/Push.
func (c *Client) SetSpanContext(sc span.Context) { c.sc = sc }

// SpanContext returns the current RPC parent context.
func (c *Client) SpanContext() span.Context { return c.sc }

// Width returns the row width for key k.
func (c *Client) Width(k Key) int {
	if k.IsRelation() {
		return c.relDim
	}
	return c.entDim
}

// Pull fetches the rows for keys into dst, allocating a fresh slice per
// key. Keys are grouped per shard into one RPC each (batched pulls, as in
// DGL-KE's KVStore), and every shard is asked. The rows are then merged in
// shard order, and the first error other than a link-down one, in shard
// order, is returned.
func (c *Client) Pull(keys []Key, dst map[Key][]float32) error {
	calls := c.split(keys)
	for i := range calls {
		calls[i].sp = c.tracer.StartChild(c.sc, span.NPSPull)
	}
	pulled := func(i int, resp *PullResponse, err error) {
		sc := &calls[i]
		if err != nil {
			sc.end(fmt.Errorf("ps: pull from shard %d: %w", sc.shard, err))
			return
		}
		sc.vals, sc.tx, sc.rx = resp.Vals, resp.TxBytes, resp.RxBytes
		if sc.tx == 0 {
			sc.tx = PullRequestBytes(len(sc.keys))
		}
		if sc.rx == 0 {
			sc.rx = PullResponseBytes(len(resp.Vals))
		}
		sc.end(nil)
	}
	if c.links != nil {
		xs := make([]exchange, len(calls))
		for i, sc := range calls {
			xs[i] = exchange{shard: sc.shard, op: 'P', keys: sc.keys, trace: sc.sp.Context()}
		}
		c.links.round(xs, func(i int, err error) { pulled(i, &xs[i].resp, err) })
	} else {
		for i, sc := range calls {
			resp, err := c.tr.Pull(sc.shard, &PullRequest{Keys: sc.keys, Trace: sc.sp.Context()})
			pulled(i, resp, err)
		}
	}
	return c.merge("pull", calls, func(sc *shardCall) error {
		if o := c.obs; o != nil {
			o.pullRPCs.Inc()
			o.pullRows.Add(int64(len(sc.keys)))
			o.bytesRx.Add(sc.rx)
		}
		want := 0
		for _, k := range sc.keys {
			want += c.Width(k)
		}
		if len(sc.vals) != want {
			return fmt.Errorf("ps: pull from shard %d returned %d values, %d rows need %d", sc.shard, len(sc.vals), len(sc.keys), want)
		}
		off := 0
		for _, k := range sc.keys {
			w := c.Width(k)
			row := make([]float32, w)
			copy(row, sc.vals[off:off+w])
			dst[k] = row
			off += w
		}
		return nil
	})
}

// Push sends the gradient rows in grads to their owning shards, one RPC per
// shard, keys sorted for determinism. Every payload is built and its widths
// checked before any RPC goes out. As in Pull, every shard is asked, so a
// push one shard refuses does not keep the others' from being applied; the
// refusal is still the error returned, and the run stops on it either way.
func (c *Client) Push(grads map[Key][]float32) error {
	if len(grads) == 0 {
		return nil
	}
	keys := make([]Key, 0, len(grads))
	for k := range grads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	calls := c.split(keys)
	for i := range calls {
		sc := &calls[i]
		total := 0
		for _, k := range sc.keys {
			total += len(grads[k])
		}
		vals := make([]float32, 0, total)
		for _, k := range sc.keys {
			g := grads[k]
			if len(g) != c.Width(k) {
				return fmt.Errorf("ps: gradient for %v has width %d, want %d", k, len(g), c.Width(k))
			}
			vals = append(vals, g...)
		}
		sc.vals = vals
	}
	for i := range calls {
		calls[i].sp = c.tracer.StartChild(c.sc, span.NPSPush)
	}
	pushed := func(i int, wireBytes int64, err error) {
		sc := &calls[i]
		if err != nil {
			sc.end(fmt.Errorf("ps: push to shard %d: %w", sc.shard, err))
			return
		}
		if sc.tx = wireBytes; sc.tx == 0 {
			sc.tx = PushRequestBytes(len(sc.keys), len(sc.vals))
		}
		sc.end(nil)
	}
	if c.links != nil {
		xs := make([]exchange, len(calls))
		for i, sc := range calls {
			xs[i] = exchange{shard: sc.shard, op: 'U', keys: sc.keys, vals: sc.vals, trace: sc.sp.Context()}
		}
		c.links.round(xs, func(i int, err error) { pushed(i, xs[i].wireBytes, err) })
	} else {
		for i, sc := range calls {
			req := &PushRequest{Keys: sc.keys, Vals: sc.vals, Trace: sc.sp.Context()}
			err := c.tr.Push(sc.shard, req)
			pushed(i, req.WireBytes, err)
		}
	}
	return c.merge("push", calls, func(sc *shardCall) error {
		if o := c.obs; o != nil {
			o.pushRPCs.Inc()
			o.pushRows.Add(int64(len(sc.keys)))
		}
		return nil
	})
}

// shardCall is one shard's RPC within a Pull or Push: the shard's keys in
// request order, the RPC's span, and what the RPC returned.
type shardCall struct {
	shard  int
	keys   []Key
	sp     span.Active
	vals   []float32 // a pull's reply rows, or a push's gradient rows
	tx, rx int64     // wire bytes each way (a push has no reply bytes)
	err    error
}

// end records the RPC's outcome and ends its span.
func (sc *shardCall) end(err error) {
	sc.err = err
	sc.sp.EndAttrs(span.Attrs{Rows: int64(len(sc.keys)), Bytes: sc.tx + sc.rx, Shard: sc.shard})
}

// split groups keys by owning shard, preserving their order within a shard,
// into one call per shard in ascending shard order — the order RPC spans
// open in, RPCs go out in, replies merge in, and a DegradedError lists keys
// in.
func (c *Client) split(keys []Key) []shardCall {
	byShard := make([][]Key, c.place.NumMachines())
	n := 0
	for _, k := range keys {
		s := c.place.Shard(k)
		if byShard[s] == nil {
			n++
		}
		byShard[s] = append(byShard[s], k)
	}
	calls := make([]shardCall, 0, n)
	for s, ks := range byShard {
		if ks != nil {
			calls = append(calls, shardCall{shard: s, keys: ks})
		}
	}
	return calls
}

// merge walks the answered calls in shard order: each reply is metered
// into the netsim cost model and the ps.* counters and handed to ok, keys
// of unreachable shards are gathered into one DegradedError, and the first
// other error — a refusal, or one ok returns — ends the walk and is
// returned.
func (c *Client) merge(op string, calls []shardCall, ok func(*shardCall) error) error {
	var downKeys []Key
	var downErr error
	for i := range calls {
		sc := &calls[i]
		if sc.err != nil {
			if !errors.Is(sc.err, ErrLinkDown) {
				return sc.err
			}
			downKeys = append(downKeys, sc.keys...)
			if downErr == nil {
				downErr = errors.Unwrap(sc.err) // the link's own error, without the shard prefix
			}
			continue
		}
		c.record(sc.shard, sc.tx+sc.rx, sc.sp.Context())
		if o := c.obs; o != nil {
			o.bytesTx.Add(sc.tx)
		}
		if err := ok(sc); err != nil {
			return err
		}
	}
	if downKeys != nil {
		return &DegradedError{Op: op, Keys: downKeys, Err: downErr}
	}
	return nil
}

func (c *Client) record(shard int, bytes int64, sc span.Context) {
	if c.meter == nil {
		return
	}
	if shard == c.machine {
		c.meter.RecordLocalSpan(bytes, c.tracer, sc)
	} else {
		c.meter.RecordRemoteSpan(bytes, c.tracer, sc)
	}
}
