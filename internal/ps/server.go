package ps

import (
	"fmt"
	"sync"

	"hetkg/internal/metrics"
	"hetkg/internal/opt"
	"hetkg/internal/span"
	"hetkg/internal/vec"
)

// Server is one parameter-server shard. It owns a subset of the embedding
// rows and the optimizer state for them, and applies pushed gradients
// immediately (the asynchronous "message queue → AdaGrad" path of
// Algorithm 4 collapses to a locked apply in-process).
type Server struct {
	machine int
	entDim  int
	relDim  int

	mu    sync.RWMutex
	rows  map[Key][]float32
	optim opt.Optimizer
	// pushRows is Push's scratch: the request's rows, resolved while it is
	// validated so the apply pass needs no second lookup. Guarded by mu.
	pushRows [][]float32

	// lastPush records, per client link identity, the highest push sequence
	// already applied — the dedup table that makes push retries idempotent
	// (a retry re-sends the identical payload under the same sequence, so
	// "already applied" means the gradient landed and only the response was
	// lost).
	dedupMu  sync.Mutex
	lastPush map[uint64]uint64

	obs    *serverObs
	tracer *span.Tracer
}

// pushApplied reports whether the (link, seq) push was already applied.
// Link 0 or seq 0 means dedup is disabled for the request.
func (s *Server) pushApplied(link, seq uint64) bool {
	if link == 0 || seq == 0 {
		return false
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	return seq <= s.lastPush[link]
}

// markPush records a successfully applied push for dedup.
func (s *Server) markPush(link, seq uint64) {
	if link == 0 || seq == 0 {
		return
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if s.lastPush == nil {
		s.lastPush = make(map[uint64]uint64)
	}
	if seq > s.lastPush[link] {
		s.lastPush[link] = seq
	}
}

// serverObs holds a shard's registry-backed request series (see Instrument).
type serverObs struct {
	pulls      *metrics.Counter
	pushes     *metrics.Counter
	rowsPulled *metrics.Counter
	rowsPushed *metrics.Counter
	tcpConns   *metrics.Counter
	tcpRx      *metrics.Counter
	tcpTx      *metrics.Counter
}

// Instrument publishes this shard's request traffic into reg: served request
// counts (ps.server.{pulls,pushes}) and row volumes
// (ps.server.rows_{pulled,pushed}). When the shard is served over TCP
// (ServeTCP), accepted connections and raw socket bytes are additionally
// tracked as ps.tcp.{conns,rx_bytes,tx_bytes}. Shards wired to the same
// registry aggregate. Call before the shard serves traffic.
func (s *Server) Instrument(reg *metrics.Registry) {
	s.obs = &serverObs{
		pulls:      reg.Counter(metrics.MPSServerPulls),
		pushes:     reg.Counter(metrics.MPSServerPushes),
		rowsPulled: reg.Counter(metrics.MPSServerRowsPulled),
		rowsPushed: reg.Counter(metrics.MPSServerRowsPushed),
		tcpConns:   reg.Counter(metrics.MPSTCPConns),
		tcpRx:      reg.Counter(metrics.MPSTCPRxBytes),
		tcpTx:      reg.Counter(metrics.MPSTCPTxBytes),
	}
}

// ServerConfig parameterizes shard construction.
type ServerConfig struct {
	// Machine is this shard's machine index.
	Machine int
	// EntityDim and RelationDim are the row widths (they differ for models
	// like TransH whose relations pack extra parameters).
	EntityDim, RelationDim int
	// Optimizer applies pushed gradients (AdaGrad in the paper).
	Optimizer opt.Optimizer
}

// NewServer builds an empty shard.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.EntityDim <= 0 || cfg.RelationDim <= 0 {
		return nil, fmt.Errorf("ps: non-positive dims %d/%d", cfg.EntityDim, cfg.RelationDim)
	}
	if cfg.Optimizer == nil {
		return nil, fmt.Errorf("ps: nil optimizer")
	}
	return &Server{
		machine: cfg.Machine,
		entDim:  cfg.EntityDim,
		relDim:  cfg.RelationDim,
		rows:    make(map[Key][]float32),
		optim:   cfg.Optimizer,
	}, nil
}

// Machine returns the shard's machine index.
func (s *Server) Machine() int { return s.machine }

// Trace attaches a span tracer to the shard. Shard-side request handling is
// then recorded as shard.pull / shard.apply spans parented under the context
// carried in the request (zero context → no-op). Safe to leave unset.
func (s *Server) Trace(t *span.Tracer) { s.tracer = t }

// PullTraced serves a pull, recording a shard.pull span stitched to the
// originating batch via sc. Transports call this; Pull(keys) is the
// untraced equivalent.
func (s *Server) PullTraced(sc span.Context, keys []Key) ([]float32, error) {
	sp := s.tracer.StartChild(sc, span.NShardPull)
	vals, err := s.Pull(keys)
	sp.EndAttrs(span.Attrs{Rows: int64(len(keys)), Shard: s.machine})
	return vals, err
}

// PushTraced applies a push, recording a shard.apply span stitched to the
// originating batch via sc.
func (s *Server) PushTraced(sc span.Context, keys []Key, vals []float32) error {
	sp := s.tracer.StartChild(sc, span.NShardApply)
	err := s.Push(keys, vals)
	sp.EndAttrs(span.Attrs{Rows: int64(len(keys)), Shard: s.machine})
	return err
}

// Width returns the row width for key k.
func (s *Server) Width(k Key) int {
	if k.IsRelation() {
		return s.relDim
	}
	return s.entDim
}

// InitRow installs an initial value for a row this shard owns. It is called
// once per owned key before training starts.
func (s *Server) InitRow(k Key, row []float32) error {
	if len(row) != s.Width(k) {
		return fmt.Errorf("ps: row %v has width %d, want %d", k, len(row), s.Width(k))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]float32, len(row))
	copy(cp, row)
	s.rows[k] = cp
	return nil
}

// NumRows returns how many rows the shard owns.
func (s *Server) NumRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

// Pull copies the requested rows, concatenated in key order, into a fresh
// buffer. Unknown keys are an error: they indicate a placement bug.
func (s *Server) Pull(keys []Key) ([]float32, error) {
	if o := s.obs; o != nil {
		o.pulls.Inc()
		o.rowsPulled.Add(int64(len(keys)))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, k := range keys {
		total += s.Width(k)
	}
	out := make([]float32, 0, total)
	for _, k := range keys {
		row, ok := s.rows[k]
		if !ok {
			return nil, fmt.Errorf("ps: shard %d does not own %v", s.machine, k)
		}
		out = append(out, row...)
	}
	return out, nil
}

// Push applies gradients for the given keys (concatenated in key order in
// vals) through the shard's optimizer. This is Algorithm 4's push path.
// The whole request is validated — every key owned, vals exactly as wide
// as the keys' rows — before any row is touched, so a refused push leaves
// the shard as it was.
func (s *Server) Push(keys []Key, vals []float32) error {
	if o := s.obs; o != nil {
		o.pushes.Inc()
		o.rowsPushed.Add(int64(len(keys)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.pushRows[:0]
	total := 0
	for _, k := range keys {
		row, ok := s.rows[k]
		if !ok {
			return fmt.Errorf("ps: shard %d does not own %v", s.machine, k)
		}
		rows = append(rows, row)
		total += len(row)
	}
	s.pushRows = rows
	if total != len(vals) {
		return fmt.Errorf("ps: push payload has %d values, keys need %d", len(vals), total)
	}
	off := 0
	for i, row := range rows {
		grad := vals[off : off+len(row)]
		off += len(row)
		// Drop non-finite gradients rather than poisoning the row;
		// asynchronous training can transiently explode.
		if vec.IsFinite(grad) {
			s.optim.Apply(uint64(keys[i]), row, grad)
		}
	}
	return nil
}
