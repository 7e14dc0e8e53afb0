// Package span is the per-batch distributed tracing layer: a low-overhead,
// sampling span tracer with explicit parent/child causality. One root span
// covers a sampled worker batch; child spans cover negative sampling, the
// cache lookup pass, gradient compute, cache refreshes, parameter-server
// RPCs, transport serialization, real and simulated wire time, and the
// shard-side request handlers — stitched to the originating batch by a
// trace ID that propagates through the PS client and the TCP request frame.
//
// Design constraints (DESIGN.md §8):
//
//   - Sampling is deterministic — every Nth batch per worker, no RNG — so a
//     resumed or replayed run samples the same batches.
//   - Trace IDs derive from (worker, iteration); span IDs come from one
//     collector-wide counter, so parent links never collide in-process.
//   - Spans land in fixed-size per-tracer ring buffers; a long run keeps
//     the most recent window instead of growing without bound.
//   - The disabled path is a nil receiver: every method on a nil *Tracer or
//     a zero Active is a branch and a return — no allocation, no lock
//     (same pattern as the registry's Instrument(reg) observers).
//
// Timestamps are wall-clock and therefore nondeterministic, like the
// registry's timers; spans are a profiling artifact, not part of the
// bit-deterministic metrics contract.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultEvery is the default batch-sampling interval: one traced batch per
// worker every N iterations.
const DefaultEvery = 16

// DefaultCapacity is the default per-tracer ring-buffer capacity in spans.
const DefaultCapacity = 4096

// Pseudo machine/worker indices for tracers that do not belong to a single
// training worker. The Chrome exporter maps them to their own named
// process/thread rows.
const (
	// WorkerShard marks a parameter-server shard's tracer (the machine
	// index is the shard's real machine, so shard spans land in the right
	// trace "process").
	WorkerShard = -1
	// MachineTransport and WorkerTransport mark the shared transport's
	// tracer: the TCP transport is one object serving every worker, so its
	// serialization/wire spans sit on a dedicated row.
	MachineTransport = -1
	WorkerTransport  = -2
	// MachineCluster and WorkerCluster mark the elastic cluster driver's
	// tracer: heartbeats and partition recoveries belong to the worker
	// process as a whole, not to one partition's training row.
	MachineCluster = -2
	WorkerCluster  = -3
)

// Context is the causal coordinate a span hands to its children: the trace
// it belongs to and the span to parent under. The zero Context means "not
// sampled" and makes every downstream operation a no-op; it is also what
// crosses the TCP wire header.
type Context struct {
	// Trace identifies the sampled batch (see TraceID).
	Trace uint64
	// Parent is the span ID new children attach under.
	Parent uint64
}

// Valid reports whether the context belongs to a sampled trace.
func (c Context) Valid() bool { return c.Trace != 0 }

// TraceID derives the deterministic trace ID of a worker's batch: nonzero,
// unique per (worker, iteration), and stable across resumes and replays.
func TraceID(worker, iteration int) uint64 {
	return uint64(worker+1)<<40 | uint64(uint32(iteration))<<8 | 1
}

// Span is one recorded operation. Rows/Bytes/Shard carry the operation's
// size attributes where they apply; Sim marks spans whose duration is
// simulated (netsim cost-model time) rather than measured wall time.
type Span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Machine int    `json:"machine"`
	Worker  int    `json:"worker"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Iter    int64  `json:"iter,omitempty"`
	Rows    int64  `json:"rows,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	// Shard is the target PS shard of an RPC span; -1 when not applicable.
	Shard int  `json:"shard"`
	Sim   bool `json:"sim,omitempty"`
}

// Duration returns the span's duration.
func (s Span) Duration() time.Duration { return time.Duration(s.DurNS) }

// Attrs are the optional size attributes attached at span end.
type Attrs struct {
	Rows  int64
	Bytes int64
	// Shard is the target shard; leave -1 (NoShard) when not applicable.
	Shard int
}

// NoShard is the Attrs.Shard / Span.Shard value for non-RPC spans.
const NoShard = -1

// CollectorConfig parameterizes NewCollector. Zero values take defaults.
type CollectorConfig struct {
	// Every is the per-worker batch sampling interval (DefaultEvery if 0).
	Every int
	// Capacity is the per-tracer ring size in spans (DefaultCapacity if 0).
	Capacity int
}

// Collector owns a run's tracers: it allocates span IDs, hands out
// per-subsystem tracers, and drains every ring into one sorted dump.
// Collector methods are safe for concurrent use.
type Collector struct {
	every    int
	capacity int
	ids      atomic.Uint64

	mu      sync.Mutex
	tracers []*Tracer
}

// NewCollector builds a collector for one run.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Collector{every: cfg.Every, capacity: cfg.Capacity}
}

// Every returns the batch sampling interval.
func (c *Collector) Every() int { return c.every }

// Tracer creates a tracer bound to the given machine/worker coordinates
// (use WorkerShard / MachineTransport+WorkerTransport for non-worker
// subsystems). Each call returns a fresh tracer with its own ring.
func (c *Collector) Tracer(machine, worker int) *Tracer {
	t := &Tracer{
		col:     c,
		machine: machine,
		worker:  worker,
		every:   c.every,
		ring:    make([]Span, 0, c.capacity),
		cap:     c.capacity,
	}
	c.mu.Lock()
	c.tracers = append(c.tracers, t)
	c.mu.Unlock()
	return t
}

// Drain copies every tracer's recorded spans, oldest first per tracer,
// merged and sorted by start time (ties by span ID). The rings keep their
// contents; Drain can be called repeatedly (e.g. mid-run snapshots).
func (c *Collector) Drain() []Span {
	c.mu.Lock()
	tracers := make([]*Tracer, len(c.tracers))
	copy(tracers, c.tracers)
	c.mu.Unlock()
	var out []Span
	for _, t := range tracers {
		out = append(out, t.drain()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Tracer records spans for one subsystem (a worker, a shard, the shared
// transport) into a fixed-size ring. A nil *Tracer is the disabled tracer:
// every method no-ops. Record-side methods are safe for concurrent use (the
// TCP server handles connections on separate goroutines).
type Tracer struct {
	col     *Collector
	machine int
	worker  int
	every   int

	mu    sync.Mutex
	ring  []Span // grows to cap, then wraps via next
	next  int
	wraps bool
	cap   int
	drops atomic.Int64
}

// Sampled reports whether the given batch iteration is on this tracer's
// sampling grid. Deterministic: iteration % every == 0, no RNG.
func (t *Tracer) Sampled(iteration int) bool {
	return t != nil && iteration%t.every == 0
}

// Root starts the root "batch" span for the given iteration, or returns the
// zero Active when the tracer is nil or the iteration is not sampled. The
// zero Active makes every child operation a no-op.
func (t *Tracer) Root(iteration int) Active {
	return t.RootNamed(iteration, NBatch)
}

// RootNamed is Root with a caller-chosen root span name — the serving layer
// uses it to open serve.request roots keyed by request sequence number
// instead of training iteration. The name must be a root name (IsRoot) for
// the analyzer to attribute its children.
func (t *Tracer) RootNamed(iteration int, name string) Active {
	if !t.Sampled(iteration) {
		return Active{}
	}
	return Active{
		t:      t,
		trace:  TraceID(t.worker, iteration),
		id:     t.col.ids.Add(1),
		name:   name,
		start:  time.Now(),
		iter:   int64(iteration),
		parent: 0,
	}
}

// StartChild starts a span under sc. No-op (zero Active) when the tracer is
// nil or sc does not belong to a sampled trace — this is the entry point
// for subsystems that receive a context from elsewhere (PS client state,
// the TCP wire header).
func (t *Tracer) StartChild(sc Context, name string) Active {
	if t == nil || !sc.Valid() {
		return Active{}
	}
	return Active{
		t:      t,
		trace:  sc.Trace,
		id:     t.col.ids.Add(1),
		parent: sc.Parent,
		name:   name,
		start:  time.Now(),
	}
}

// RecordSim records an already-elapsed span of simulated duration dur under
// sc: start is stamped now, the end is start+dur, and the span is flagged
// Sim. Used by the netsim meter so cost-model wire time shows up on the
// timeline next to the measured spans it prices.
func (t *Tracer) RecordSim(sc Context, name string, dur time.Duration, bytes int64) {
	if t == nil || !sc.Valid() {
		return
	}
	t.record(Span{
		Trace:   sc.Trace,
		ID:      t.col.ids.Add(1),
		Parent:  sc.Parent,
		Name:    name,
		Machine: t.machine,
		Worker:  t.worker,
		StartNS: time.Now().UnixNano(),
		DurNS:   int64(dur),
		Bytes:   bytes,
		Shard:   NoShard,
		Sim:     true,
	})
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.next = (t.next + 1) % t.cap
		t.wraps = true
		t.drops.Add(1)
	}
	t.mu.Unlock()
}

// drain returns the ring's contents oldest-first.
func (t *Tracer) drain() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.wraps {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Active is an in-flight span handle. The zero Active is inert: Start
// returns another zero Active, End does nothing, Context returns the zero
// Context — so unsampled batches thread zero values through the whole call
// graph at the cost of a nil check per call site.
type Active struct {
	t      *Tracer
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Time
	iter   int64
}

// Valid reports whether the span is live (sampled and recording).
func (a Active) Valid() bool { return a.t != nil }

// Context returns the coordinate children should attach under: this span's
// trace and this span's ID as the parent.
func (a Active) Context() Context {
	if a.t == nil {
		return Context{}
	}
	return Context{Trace: a.trace, Parent: a.id}
}

// Start opens a child span of a.
func (a Active) Start(name string) Active {
	if a.t == nil {
		return Active{}
	}
	return Active{
		t:      a.t,
		trace:  a.trace,
		id:     a.t.col.ids.Add(1),
		parent: a.id,
		name:   name,
		start:  time.Now(),
	}
}

// End records the span with no size attributes.
func (a Active) End() { a.EndAttrs(Attrs{Shard: NoShard}) }

// EndAttrs records the span with the given size attributes.
func (a Active) EndAttrs(at Attrs) {
	if a.t == nil {
		return
	}
	a.t.record(Span{
		Trace:   a.trace,
		ID:      a.id,
		Parent:  a.parent,
		Name:    a.name,
		Machine: a.t.machine,
		Worker:  a.t.worker,
		StartNS: a.start.UnixNano(),
		DurNS:   int64(time.Since(a.start)),
		Iter:    a.iter,
		Rows:    at.Rows,
		Bytes:   at.Bytes,
		Shard:   at.Shard,
	})
}
