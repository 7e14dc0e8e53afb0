package ps

import (
	"errors"
	"fmt"
	"slices"

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
// A Pull or Push makes one RPC per shard it touches, and they run as one
// round over the client's links: every request is sent before any reply is
// read, as DGL-KE's KVStore sends one request per server and then collects
// the replies, so shards behind sockets work at the same time and a batch
// waits about as long as its slowest shard rather than the sum of all of
// them. An in-process shard answers as its request is sent, so the round
// calls the shards one after another. No goroutine is started. Every shard
// is asked and the replies are merged in ascending shard order, so rows,
// meter records, counters and a DegradedError's keys do not depend on the
// conn. The netsim meter still prices a batch's messages one after
// another, as it always has, so the simulated time of a run does not change
// with it.
//
// Its calls reuse scratch the Client owns, so one goroutine at a time may
// use a Client: its worker's.
type Client struct {
	machine int
	place   *Placement
	links   *LinkTransport // one link per shard; every call is a round over them
	meter   *netsim.Meter
	entDim  int
	relDim  int
	keys    KeySpace
	obs     *clientObs
	tracer  *span.Tracer
	sc      span.Context

	// Scratch every PullRows and PushRows reuses: each shard's keys and
	// their indexes in the caller's lists, the calls, the round's
	// exchanges, each shard's pulled rows, and the push payload.
	byShard [][]Key
	byIdx   [][]int32
	calls   []shardCall
	xs      []exchange
	pulled  [][]float32
	payload []float32
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
// meter may be nil to disable traffic accounting. A tr that is not a
// LinkTransport is put behind fp32 in-process links that call it, which
// needs c to host its shards; a layout (NewLayout) takes links only. Shards
// whose rows are not as wide as c's (started with another -model or -dim)
// are refused.
func NewClient(machine int, c *Cluster, tr Transport, meter *netsim.Meter) (*Client, error) {
	if machine < 0 || machine >= c.Place.NumMachines() {
		return nil, fmt.Errorf("ps: machine %d out of range [0,%d)", machine, c.Place.NumMachines())
	}
	links, ok := tr.(*LinkTransport)
	if !ok {
		var err error
		if links, err = inProcLinks(c, tr, fp32Profile); err != nil {
			return nil, err
		}
	}
	if err := links.checkWidths(c.entDim, c.relDim); err != nil {
		return nil, err
	}
	return &Client{
		machine: machine,
		place:   c.Place,
		links:   links,
		meter:   meter,
		entDim:  c.entDim,
		relDim:  c.relDim,
		keys:    c.keys,
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

// Keys returns the dense index space of the cluster's rows.
func (c *Client) Keys() KeySpace { return c.keys }

// Width returns the row width for key k.
func (c *Client) Width(k Key) int {
	if k.IsRelation() {
		return c.relDim
	}
	return c.entDim
}

// PullRows fetches the rows of keys into the caller's rows: rows[i]
// receives keys[i]'s values and must be exactly as wide. Keys are grouped
// per shard into one RPC each (batched pulls, as in DGL-KE's KVStore), and
// every shard is asked. The replies are then copied into rows in shard
// order, and the first error other than a link-down one, in shard order,
// is returned. The rows of keys a DegradedError names are left as they
// were.
func (c *Client) PullRows(keys []Key, rows [][]float32) error {
	if len(rows) != len(keys) {
		return fmt.Errorf("ps: pull of %d keys into %d rows", len(keys), len(rows))
	}
	for i, k := range keys {
		if len(rows[i]) != c.Width(k) {
			return fmt.Errorf("ps: pull row for %v has width %d, want %d", k, len(rows[i]), c.Width(k))
		}
	}
	calls := c.split(keys)
	xs := c.exchanges(len(calls))
	for i := range calls {
		sc := &calls[i]
		sc.sp = c.tracer.StartChild(c.sc, span.NPSPull)
		xs[i] = exchange{shard: sc.shard, op: 'P', keys: sc.keys, vals: c.pulled[sc.shard], trace: sc.sp.Context()}
	}
	c.links.round(xs, func(i int, err error) {
		if err == nil {
			c.pulled[xs[i].shard] = xs[i].vals
		}
		calls[i].end(&xs[i], "pull from", err)
	})
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
		for _, i := range sc.idx {
			off += copy(rows[i], sc.vals[off:])
		}
		return nil
	})
}

// PushRows sends the gradient rows to their owning shards, one RPC per
// shard: rows[i] is keys[i]'s gradient. Each shard gets its keys in the
// order given, so a caller that wants a deterministic wire gives them in
// key order. The rows are copied into one payload, whose widths are all
// checked before any RPC goes out: a codec link rewrites the values it
// sends, and the caller's rows stay raw. As in PullRows, every shard is
// asked, so a push one shard refuses does not keep the others' from being
// applied; the refusal is still the error returned, and the run stops on
// it either way.
func (c *Client) PushRows(keys []Key, rows [][]float32) error {
	if len(rows) != len(keys) {
		return fmt.Errorf("ps: push of %d keys with %d rows", len(keys), len(rows))
	}
	if len(keys) == 0 {
		return nil
	}
	total := 0
	for i, k := range keys {
		if len(rows[i]) != c.Width(k) {
			return fmt.Errorf("ps: gradient for %v has width %d, want %d", k, len(rows[i]), c.Width(k))
		}
		total += len(rows[i])
	}
	if cap(c.payload) < total {
		c.payload = make([]float32, total)
	}
	payload := c.payload[:total]
	calls := c.split(keys)
	off := 0
	for i := range calls {
		sc := &calls[i]
		start := off
		for _, j := range sc.idx {
			off += copy(payload[off:], rows[j])
		}
		sc.vals = payload[start:off:off]
	}
	xs := c.exchanges(len(calls))
	for i := range calls {
		sc := &calls[i]
		sc.sp = c.tracer.StartChild(c.sc, span.NPSPush)
		xs[i] = exchange{shard: sc.shard, op: 'U', keys: sc.keys, vals: sc.vals, trace: sc.sp.Context()}
	}
	c.links.round(xs, func(i int, err error) { calls[i].end(&xs[i], "push to", err) })
	return c.merge("push", calls, func(sc *shardCall) error {
		if o := c.obs; o != nil {
			o.pushRPCs.Inc()
			o.pushRows.Add(int64(len(sc.keys)))
		}
		return nil
	})
}

// Pull is PullRows into dst, one fresh row per key fetched.
//
// Deprecated: kept only for the frozen benchmark harness; ROADMAP item 2
// deletes it.
func (c *Client) Pull(keys []Key, dst map[Key][]float32) error {
	rows := make([][]float32, len(keys))
	for i, k := range keys {
		rows[i] = make([]float32, c.Width(k))
	}
	err := c.PullRows(keys, rows)
	var deg *DegradedError
	if err != nil && !errors.As(err, &deg) {
		return err
	}
	for i, k := range keys {
		if deg == nil || !slices.Contains(deg.Keys, k) {
			dst[k] = rows[i]
		}
	}
	return err
}

// Push is PushRows over grads in key order.
//
// Deprecated: kept only for the frozen benchmark harness; ROADMAP item 2
// deletes it.
func (c *Client) Push(grads map[Key][]float32) error {
	keys := make([]Key, 0, len(grads))
	for k := range grads {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rows := make([][]float32, len(keys))
	for i, k := range keys {
		rows[i] = grads[k]
	}
	return c.PushRows(keys, rows)
}

// shardCall is one shard's RPC within a Pull or Push: the shard's keys in
// request order, the RPC's span, and what the RPC returned.
type shardCall struct {
	shard  int
	keys   []Key
	idx    []int32 // each key's index in the caller's keys and rows
	sp     span.Active
	vals   []float32 // a pull's reply rows, or a push's gradient rows
	tx, rx int64     // wire bytes each way (a push has no reply bytes)
	err    error
}

// end records the outcome of the call's exchange x — its reply rows and
// wire sizes, or err, which names the shard after what ("pull from") —
// and ends the call's span.
func (sc *shardCall) end(x *exchange, what string, err error) {
	if err != nil {
		sc.err = fmt.Errorf("ps: %s shard %d: %w", what, sc.shard, err)
	} else {
		sc.vals, sc.tx, sc.rx = x.vals, x.tx, x.rx
	}
	sc.sp.EndAttrs(span.Attrs{Rows: int64(len(sc.keys)), Bytes: sc.tx + sc.rx, Shard: sc.shard})
}

// split groups keys by owning shard, preserving their order within a shard,
// into one call per shard in ascending shard order — the order RPC spans
// open in, RPCs go out in, replies merge in, and a DegradedError lists keys
// in. The calls and their key lists are the client's scratch, valid until
// the next split.
func (c *Client) split(keys []Key) []shardCall {
	if c.byShard == nil {
		c.byShard = make([][]Key, c.place.NumMachines())
		c.byIdx = make([][]int32, c.place.NumMachines())
		c.pulled = make([][]float32, c.place.NumMachines())
	}
	for s := range c.byShard {
		c.byShard[s], c.byIdx[s] = c.byShard[s][:0], c.byIdx[s][:0]
	}
	for i, k := range keys {
		s := c.place.Shard(k)
		c.byShard[s] = append(c.byShard[s], k)
		c.byIdx[s] = append(c.byIdx[s], int32(i))
	}
	calls := c.calls[:0]
	for s, ks := range c.byShard {
		if len(ks) > 0 {
			calls = append(calls, shardCall{shard: s, keys: ks, idx: c.byIdx[s]})
		}
	}
	c.calls = calls
	return calls
}

// exchanges returns n of the client's reusable round exchanges.
func (c *Client) exchanges(n int) []exchange {
	if cap(c.xs) < n {
		c.xs = make([]exchange, n)
	}
	return c.xs[:n]
}

// merge walks the answered calls in shard order: each reply is metered
// into the netsim cost model and the ps.* counters and handed to ok, keys
// of unreachable shards are gathered into one DegradedError, and the first
// other error — a refusal, or one ok returns — ends the walk and is
// returned.
func (c *Client) merge(op string, calls []shardCall, ok func(*shardCall) error) error {
	// The calls and exchanges are the client's scratch: once merged, drop
	// their references to reply rows and payloads, so that the scratch
	// does not keep the last call's buffers alive.
	defer func() {
		clear(calls)
		clear(c.xs)
	}()
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
