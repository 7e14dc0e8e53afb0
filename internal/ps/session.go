package ps

import (
	"encoding/json"
	"errors"
	"fmt"

	"hetkg/internal/span"
	"hetkg/internal/telemetry"
)

// session is the shard end of one worker↔shard connection: the codec state
// and link identity negotiated when the connection opened, and the one
// dispatch on a request's op. serveConn runs one per TCP connection; an
// in-process link whose profile encodes (NewCodecTransport, any profile
// but fp32) calls one directly. A session is not synchronized — its
// connection's request order serializes it.
type session struct {
	rows  shardRows
	coord *Membership // nil: membership and telemetry ops are refused
	link  uint64      // the client's link identity (0 = push dedup off)
	lc    *linkCodec
	vbuf  []float32 // pulled rows, or a push's decoded gradients
}

// shardRows is what a session or an fp32 in-process conn serves: a
// *Server, or viaTransport over a Transport that is not a link.
type shardRows interface {
	Width(Key) int
	NumRows() int
	pullAppend(span.Context, []float32, []Key) ([]float32, error)
	PushTraced(span.Context, []Key, []float32) error
	pushApplied(link, seq uint64) bool
	markPush(link, seq uint64)
}

// newSession opens the shard end of a connection negotiated on prof.
func newSession(rows shardRows, coord *Membership, prof Profile, link uint64) (*session, error) {
	lc, err := newLinkCodec(prof, rows.Width)
	if err != nil {
		return nil, err
	}
	return &session{rows: rows, coord: coord, link: link, lc: lc}, nil
}

// handle serves one request, appending the reply payload to dst, or returns
// the reason the request was refused. A refused request leaves the session
// ready for the next one.
func (s *session) handle(dst []byte, req *wireRequest) ([]byte, error) {
	sc := span.Context{Trace: req.TraceID, Parent: req.ParentID}
	switch req.Op {
	case 'P':
		if err := bounded(s.rows, req.Keys); err != nil {
			return nil, err
		}
		vals, err := s.rows.pullAppend(sc, s.vbuf[:0], req.Keys)
		if err != nil {
			return nil, err
		}
		s.vbuf = vals
		return s.lc.encodePull(dst, req.Keys, req.Payload, vals)
	case 'U':
		if err := bounded(s.rows, req.Keys); err != nil {
			return nil, err
		}
		if s.rows.pushApplied(s.link, req.Seq) {
			// A retry of a push whose response was lost after the
			// gradient landed: acknowledge idempotently.
			return dst, nil
		}
		total := s.lc.totalWidth(req.Keys)
		if cap(s.vbuf) < total {
			s.vbuf = make([]float32, total)
		}
		vals := s.vbuf[:total]
		if err := s.lc.decodePush(req.Keys, req.Payload, vals); err != nil {
			return nil, err
		}
		if err := s.rows.PushTraced(sc, req.Keys, vals); err != nil {
			return nil, err
		}
		s.rows.markPush(s.link, req.Seq)
		return dst, nil
	case opJoin:
		// coordinate refuses a nil s.coord before calling its method value.
		return coordinate(s, dst, req, s.coord.Join)
	case opHeartbeat:
		return coordinate(s, dst, req, s.coord.Heartbeat)
	case opLeave:
		return coordinate(s, dst, req, func(m LeaveRequest) (struct{}, error) { return struct{}{}, s.coord.Leave(m) })
	case opTelemetry:
		return coordinate(s, dst, req, func(r telemetry.Report) (struct{}, error) { return struct{}{}, s.coord.SendTelemetry(r) })
	}
	return nil, fmt.Errorf("ps: unknown op %q", req.Op)
}

// bounded refuses a request naming more keys than the shard owns rows
// before anything is sized from the key count: no legitimate caller does
// that (pulls carry distinct ids, a gather asks for each row once), and a
// few bytes of keys must not make the shard allocate a row slab per key.
func bounded(rows shardRows, keys []Key) error {
	if n := rows.NumRows(); len(keys) > n {
		return fmt.Errorf("ps: request names %d keys, the shard owns %d rows", len(keys), n)
	}
	return nil
}

// coordinate serves one membership or telemetry op: decode the request's
// JSON body, run call on it against the coordinator, and append the reply's
// JSON to dst. A shard without a coordinator refuses by name, so a worker
// joining the wrong address gets a readable error instead of a timeout.
func coordinate[Req, Rep any](s *session, dst []byte, req *wireRequest, call func(Req) (Rep, error)) ([]byte, error) {
	if s.coord == nil {
		return nil, errors.New("ps: this shard is not the coordinator (start it with -coordinator, or use the first seed address)")
	}
	var m Req
	if err := decodeBody(req.Payload, &m); err != nil {
		return nil, err
	}
	rep, err := call(m)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(rep)
	return append(dst, b...), err
}
