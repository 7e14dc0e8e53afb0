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
	if lt, ok := tr.(*LinkTransport); ok {
		if err := lt.checkWidths(c.EntityDim(), c.RelationDim()); err != nil {
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
// DGL-KE's KVStore).
func (c *Client) Pull(keys []Key, dst map[Key][]float32) error {
	groups := c.groupByShard(keys)
	var downKeys []Key
	var downErr error
	for _, shard := range sortedShards(groups) {
		ks := groups[shard]
		sp := c.tracer.StartChild(c.sc, span.NPSPull)
		resp, err := c.tr.Pull(shard, &PullRequest{Keys: ks, Trace: sp.Context()})
		if err != nil {
			sp.EndAttrs(span.Attrs{Rows: int64(len(ks)), Shard: shard})
			if errors.Is(err, ErrLinkDown) {
				// Finish the healthy shards; report the missing rows once.
				downKeys = append(downKeys, ks...)
				if downErr == nil {
					downErr = err
				}
				continue
			}
			return fmt.Errorf("ps: pull from shard %d: %w", shard, err)
		}
		tx, rx := resp.TxBytes, resp.RxBytes
		if tx == 0 {
			tx = PullRequestBytes(len(ks))
		}
		if rx == 0 {
			rx = PullResponseBytes(len(resp.Vals))
		}
		c.record(shard, tx+rx, sp.Context())
		sp.EndAttrs(span.Attrs{Rows: int64(len(ks)), Bytes: tx + rx, Shard: shard})
		if o := c.obs; o != nil {
			o.pullRPCs.Inc()
			o.pullRows.Add(int64(len(ks)))
			o.bytesTx.Add(tx)
			o.bytesRx.Add(rx)
		}
		want := 0
		for _, k := range ks {
			want += c.Width(k)
		}
		if len(resp.Vals) != want {
			return fmt.Errorf("ps: pull from shard %d returned %d values, %d rows need %d", shard, len(resp.Vals), len(ks), want)
		}
		off := 0
		for _, k := range ks {
			w := c.Width(k)
			row := make([]float32, w)
			copy(row, resp.Vals[off:off+w])
			dst[k] = row
			off += w
		}
	}
	if downKeys != nil {
		return &DegradedError{Op: "pull", Keys: downKeys, Err: downErr}
	}
	return nil
}

// Push sends the gradient rows in grads to their owning shards, one RPC per
// shard, keys sorted for determinism.
func (c *Client) Push(grads map[Key][]float32) error {
	if len(grads) == 0 {
		return nil
	}
	keys := make([]Key, 0, len(grads))
	for k := range grads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	groups := c.groupByShard(keys)
	var downKeys []Key
	var downErr error
	for _, shard := range sortedShards(groups) {
		ks := groups[shard]
		total := 0
		for _, k := range ks {
			total += len(grads[k])
		}
		vals := make([]float32, 0, total)
		for _, k := range ks {
			g := grads[k]
			if len(g) != c.Width(k) {
				return fmt.Errorf("ps: gradient for %v has width %d, want %d", k, len(g), c.Width(k))
			}
			vals = append(vals, g...)
		}
		sp := c.tracer.StartChild(c.sc, span.NPSPush)
		req := &PushRequest{Keys: ks, Vals: vals, Trace: sp.Context()}
		if err := c.tr.Push(shard, req); err != nil {
			sp.EndAttrs(span.Attrs{Rows: int64(len(ks)), Shard: shard})
			if errors.Is(err, ErrLinkDown) {
				downKeys = append(downKeys, ks...)
				if downErr == nil {
					downErr = err
				}
				continue
			}
			return fmt.Errorf("ps: push to shard %d: %w", shard, err)
		}
		tx := req.WireBytes
		if tx == 0 {
			tx = PushRequestBytes(len(ks), len(vals))
		}
		c.record(shard, tx, sp.Context())
		sp.EndAttrs(span.Attrs{Rows: int64(len(ks)), Bytes: tx, Shard: shard})
		if o := c.obs; o != nil {
			o.pushRPCs.Inc()
			o.pushRows.Add(int64(len(ks)))
			o.bytesTx.Add(tx)
		}
	}
	if downKeys != nil {
		return &DegradedError{Op: "push", Keys: downKeys, Err: downErr}
	}
	return nil
}

// groupByShard partitions keys by owning shard, preserving order within a
// shard.
func (c *Client) groupByShard(keys []Key) map[int][]Key {
	groups := make(map[int][]Key, c.place.NumMachines())
	for _, k := range keys {
		s := c.place.Shard(k)
		groups[s] = append(groups[s], k)
	}
	return groups
}

// sortedShards returns the group's shard indices in ascending order, so
// RPC issue order — and with it a DegradedError's key order — is
// deterministic regardless of map iteration.
func sortedShards(groups map[int][]Key) []int {
	shards := make([]int, 0, len(groups))
	for s, ks := range groups {
		if len(ks) > 0 {
			shards = append(shards, s)
		}
	}
	sort.Ints(shards)
	return shards
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
