package ps

import (
	"fmt"
	"slices"
	"sync"

	"hetkg/internal/metrics"
	"hetkg/internal/opt"
	"hetkg/internal/span"
)

// Server is one parameter-server shard. It owns a subset of the embedding
// rows and the optimizer state for them, and applies pushed gradients
// immediately (the asynchronous "message queue → AdaGrad" path of
// Algorithm 4 collapses to a locked apply in-process).
//
// Its rows live in two slabs, entities then relations, each row at its
// slot (Placement.slot); the slot is also the row's index in the
// optimizer's state table. Both slabs are sized once, when the shard is
// built.
type Server struct {
	machine int
	entDim  int
	relDim  int
	place   *Placement
	numRel  int // relation universe size
	numEnt  int // entity rows this shard owns; relation slots follow them

	mu    sync.RWMutex
	ents  []float32 // entity rows by slot
	rels  []float32 // relation rows by slot - numEnt
	optim opt.Optimizer
	// pushSlots is Push's scratch: the request's slots, resolved while it
	// is validated so the apply pass needs no second lookup. Guarded by mu.
	pushSlots []int

	// lastPush records, per client link identity, the highest push sequence
	// already applied — the dedup table that makes push retries idempotent
	// (a retry re-sends the identical payload under the same sequence, so
	// "already applied" means the gradient landed and only the response was
	// lost). A shard serves a link per trainer transport, so the table is
	// short and scanned.
	dedupMu  sync.Mutex
	lastPush []pushMark

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
	return seq <= s.mark(link).seq
}

// pushMark is one link's highest applied push sequence.
type pushMark struct{ link, seq uint64 }

// mark returns link's entry in lastPush, adding it with sequence 0 on the
// link's first push. The caller holds dedupMu.
func (s *Server) mark(link uint64) *pushMark {
	for i := range s.lastPush {
		if s.lastPush[i].link == link {
			return &s.lastPush[i]
		}
	}
	s.lastPush = append(s.lastPush, pushMark{link: link})
	return &s.lastPush[len(s.lastPush)-1]
}

// markPush records a successfully applied push for dedup.
func (s *Server) markPush(link, seq uint64) {
	if link == 0 || seq == 0 {
		return
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if m := s.mark(link); seq > m.seq {
		m.seq = seq
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

// Machine returns the shard's machine index.
func (s *Server) Machine() int { return s.machine }

// Trace attaches a span tracer to the shard. Shard-side request handling is
// then recorded as shard.pull / shard.apply spans parented under the context
// carried in the request (zero context → no-op). Safe to leave unset.
func (s *Server) Trace(t *span.Tracer) { s.tracer = t }

// pullAppend appends the rows of keys, concatenated in key order, to dst
// and returns the extended slice, recording a shard.pull span stitched to
// the originating batch via sc. A shard session pulls into the scratch it
// reuses this way, and an fp32 in-process link into its caller's buffer.
func (s *Server) pullAppend(sc span.Context, dst []float32, keys []Key) ([]float32, error) {
	sp := s.tracer.StartChild(sc, span.NShardPull)
	out, err := s.appendRows(dst, keys)
	sp.EndAttrs(span.Attrs{Rows: int64(len(keys)), Shard: s.machine})
	return out, err
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

// rowAt returns the live row at slot.
func (s *Server) rowAt(slot int) []float32 {
	if slot < s.numEnt {
		return s.ents[slot*s.entDim : (slot+1)*s.entDim]
	}
	r := slot - s.numEnt
	return s.rels[r*s.relDim : (r+1)*s.relDim]
}

// NumRows returns how many rows the shard owns.
func (s *Server) NumRows() int { return s.numEnt + len(s.rels)/s.relDim }

// Pull copies the requested rows, concatenated in key order, into a fresh
// buffer. Unknown keys are an error: they indicate a placement bug.
//
// Deprecated: kept only for the frozen benchmark harness; ROADMAP item 2
// deletes it. Workers pull through a LinkTransport.
func (s *Server) Pull(keys []Key) ([]float32, error) { return s.appendRows(nil, keys) }

// appendRows appends the rows of keys to dst, grown once to fit them.
func (s *Server) appendRows(dst []float32, keys []Key) ([]float32, error) {
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
	out := slices.Grow(dst, total)
	for _, k := range keys {
		slot, ok := s.place.slot(k, s.machine, s.numRel)
		if !ok {
			return nil, fmt.Errorf("ps: shard %d does not own %v", s.machine, k)
		}
		out = append(out, s.rowAt(slot)...)
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
	slots := s.pushSlots[:0]
	total := 0
	for _, k := range keys {
		slot, ok := s.place.slot(k, s.machine, s.numRel)
		if !ok {
			return fmt.Errorf("ps: shard %d does not own %v", s.machine, k)
		}
		slots = append(slots, slot)
		total += s.Width(k)
	}
	s.pushSlots = slots
	if total != len(vals) {
		return fmt.Errorf("ps: push payload has %d values, keys need %d", len(vals), total)
	}
	off := 0
	for _, slot := range slots {
		row := s.rowAt(slot)
		grad := vals[off : off+len(row)]
		off += len(row)
		opt.ApplyFinite(s.optim, slot, row, grad)
	}
	return nil
}
