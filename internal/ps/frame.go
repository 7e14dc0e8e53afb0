package ps

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Shard-link frames (DESIGN.md §10.4). Every message on a worker↔shard
// connection is one frame: a 4-byte little-endian body length, then the
// body. Each side reads frames into a body buffer it reuses and writes each
// frame with one Write, so a link round allocates nothing per message.
//
//	hello    magic | version | profile id | uvarint link id
//	ack      magic | version | status | uvarint entity width | uvarint relation width | error text
//	request  op | uvarint seq | uvarint trace id | uvarint parent id |
//	         uvarint key count | keys, zigzag-varint deltas from the previous key | payload
//	reply    status | op | uvarint request number | payload, or error text
//
// A shard numbers the requests on a connection from 1 and every reply
// names the request it answers, so a worker that reads a reply to another
// request fails the read instead of decoding the wrong rows.

// wireVersion is the frame protocol's version, carried by hello and ack.
// Version 1 was gob-encoded envelopes.
const wireVersion = 2

// wireMagic opens every hello and ack body.
const wireMagic = "hkps"

// Reply and ack status bytes.
const (
	statusOK      = 0
	statusRefused = 1
)

// Frame size bounds: every declared length is checked against one of these
// (or a request's own bound) before anything is sized from it.
const (
	maxHelloBody  = 64
	maxErrText    = 4 << 10 // a refusal's text; a shard cuts longer text
	maxAckBody    = len(wireMagic) + 3 + 2*binary.MaxVarintLen64 + maxErrText
	reqHeadMax    = 1 + 4*binary.MaxVarintLen64 // op, seq, trace ids, key count
	replyHeadMax  = 2 + binary.MaxVarintLen64
	maxKeyBytes   = binary.MaxVarintLen64
	maxMemberBody = 8 << 20 // a membership or telemetry payload, either way
)

// wireHello opens a connection: V is the protocol version, Profile the
// codec profile id the client wants for this link. Link identifies the
// client's (transport, shard) link across reconnects — the server's push
// dedup table keys on it so a push retried after a lost response is not
// applied twice (0 = no dedup, used by membership connections).
type wireHello struct {
	V       byte
	Profile byte
	Link    uint64
}

// wireHelloAck accepts or refuses a hello. On success it carries the
// shard's row widths, which the client's codec needs for per-row framing.
type wireHelloAck struct {
	V      byte
	Err    string
	EntDim int
	RelDim int
}

// wireRequest is one request. Payload carries codec-encoded bytes: the
// advertised base versions of a delta pull, the encoded gradient rows of a
// push, or a membership op's JSON body. Seq is the link's push
// sequence number (0 for pulls and membership ops): together with the
// hello's Link it gives pushes exactly-once semantics across retries and
// reconnects. TraceID/ParentID carry the originating batch's span context
// across the wire; the serving shard parents its spans under them.
type wireRequest struct {
	Op       byte // 'P' pull, 'U' push, 'J'/'H'/'L' membership, 'T' telemetry
	Keys     []Key
	Payload  []byte
	Seq      uint64
	TraceID  uint64
	ParentID uint64
}

// beginFrame appends a frame's length word, filled in by endFrame.
func beginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// endFrame sets the length word of the frame that begins at start.
func endFrame(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// appendHello appends h as one frame.
func appendHello(dst []byte, h wireHello) []byte {
	start := len(dst)
	dst = append(beginFrame(dst), wireMagic...)
	dst = append(dst, h.V, h.Profile)
	return endFrame(binary.AppendUvarint(dst, h.Link), start)
}

// parseHello parses a hello body.
func parseHello(body []byte) (wireHello, error) {
	body, err := magic(body)
	if err != nil {
		return wireHello{}, err
	}
	if len(body) < 2 {
		return wireHello{}, errors.New("ps: hello frame short")
	}
	h := wireHello{V: body[0], Profile: body[1]}
	if h.Link, body, err = uvarint(body[2:]); err != nil {
		return wireHello{}, err
	}
	if len(body) != 0 {
		return wireHello{}, errors.New("ps: hello frame has trailing bytes")
	}
	return h, nil
}

// appendAck appends a as one frame.
func appendAck(dst []byte, a wireHelloAck) []byte {
	start := len(dst)
	dst = append(beginFrame(dst), wireMagic...)
	if a.Err != "" {
		dst = append(dst, a.V, statusRefused, 0, 0)
		return endFrame(appendText(dst, a.Err), start)
	}
	dst = append(dst, a.V, statusOK)
	dst = binary.AppendUvarint(dst, uint64(a.EntDim))
	return endFrame(binary.AppendUvarint(dst, uint64(a.RelDim)), start)
}

// parseAck parses an ack body.
func parseAck(body []byte) (wireHelloAck, error) {
	body, err := magic(body)
	if err != nil {
		return wireHelloAck{}, err
	}
	if len(body) < 2 {
		return wireHelloAck{}, errors.New("ps: ack frame short")
	}
	a := wireHelloAck{V: body[0]}
	status := body[1]
	var ent, rel uint64
	if ent, body, err = uvarint(body[2:]); err != nil {
		return wireHelloAck{}, err
	}
	if rel, body, err = uvarint(body); err != nil {
		return wireHelloAck{}, err
	}
	switch status {
	case statusOK:
		if len(body) != 0 || ent > 1<<30 || rel > 1<<30 {
			return wireHelloAck{}, errors.New("ps: malformed ack frame")
		}
		a.EntDim, a.RelDim = int(ent), int(rel)
	case statusRefused:
		a.Err = string(body)
	default:
		return wireHelloAck{}, fmt.Errorf("ps: ack status %d", status)
	}
	return a, nil
}

// magic strips wireMagic from the front of a hello or ack body.
func magic(body []byte) ([]byte, error) {
	if len(body) < len(wireMagic) || string(body[:len(wireMagic)]) != wireMagic {
		return nil, errNotFrame
	}
	return body[len(wireMagic):], nil
}

// errNotFrame is a handshake whose peer does not speak these frames.
var errNotFrame = fmt.Errorf("ps: peer does not speak wire version %d (a process built before it sends gob; upgrade every shard and worker together)", wireVersion)

// appendRequest appends req as one frame.
func appendRequest(dst []byte, req *wireRequest) []byte {
	start := len(dst)
	dst = append(beginFrame(dst), req.Op)
	dst = binary.AppendUvarint(dst, req.Seq)
	dst = binary.AppendUvarint(dst, req.TraceID)
	dst = binary.AppendUvarint(dst, req.ParentID)
	dst = binary.AppendUvarint(dst, uint64(len(req.Keys)))
	var prev Key
	for _, k := range req.Keys {
		dst = binary.AppendVarint(dst, int64(k-prev))
		prev = k
	}
	return endFrame(append(dst, req.Payload...), start)
}

// parseRequest parses a request body into req. Its keys go into keys'
// storage (grown when short, and returned for reuse) and its payload aliases
// body. A key count larger than the bytes left is refused before anything
// is sized from it: every key takes at least one byte.
func parseRequest(body []byte, keys []Key, req *wireRequest) ([]Key, error) {
	*req = wireRequest{}
	if len(body) == 0 {
		return keys, errors.New("ps: empty request frame")
	}
	req.Op = body[0]
	var n uint64
	var err error
	body = body[1:]
	for _, f := range [...]*uint64{&req.Seq, &req.TraceID, &req.ParentID, &n} {
		if *f, body, err = uvarint(body); err != nil {
			return keys, err
		}
	}
	if n > uint64(len(body)) {
		return keys, fmt.Errorf("ps: request frame names %d keys in %d bytes", n, len(body))
	}
	if uint64(cap(keys)) < n {
		keys = make([]Key, n)
	}
	keys = keys[:n]
	var prev Key
	for i := range keys {
		d, m := binary.Varint(body)
		if m <= 0 {
			return keys, errors.New("ps: malformed key in request frame")
		}
		prev += Key(d)
		keys[i], body = prev, body[m:]
	}
	req.Keys, req.Payload = keys, body
	return keys, nil
}

// appendReplyHead begins a reply frame answering request num (op) with
// status OK. The caller appends the payload and ends the frame, or turns it
// into a refusal with refuse.
func appendReplyHead(dst []byte, op byte, num uint64) []byte {
	dst = append(beginFrame(dst), statusOK, op)
	return binary.AppendUvarint(dst, num)
}

// refuse turns the reply frame that b holds, whose head ends at head, into
// a refusal carrying err's text.
func refuse(b []byte, head int, err error) []byte {
	b[4] = statusRefused
	return appendText(b[:head], err.Error())
}

// appendText appends s cut to maxErrText bytes.
func appendText(dst []byte, s string) []byte {
	return append(dst, s[:min(len(s), maxErrText)]...)
}

// parseReply checks that a reply body answers request num (op) and returns
// its payload, or the shard's refusal as a *RemoteError.
func parseReply(body []byte, op byte, num uint64) ([]byte, error) {
	if len(body) < 2 {
		return nil, errors.New("ps: reply frame short")
	}
	status, rop := body[0], body[1]
	got, payload, err := uvarint(body[2:])
	if err != nil {
		return nil, err
	}
	if rop != op || got != num {
		return nil, fmt.Errorf("ps: reply answers request %d (op %q), want %d (op %q)", got, rop, num, op)
	}
	switch status {
	case statusOK:
		return payload, nil
	case statusRefused:
		return nil, &RemoteError{Msg: string(payload)}
	}
	return nil, fmt.Errorf("ps: reply status %d", status)
}

// uvarint reads one uvarint from the front of b.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("ps: malformed varint in frame")
	}
	return v, b[n:], nil
}

// frameReader reads one connection's frames into a body buffer it reuses.
// The buffer grows only to the largest frame the connection has carried,
// and only as that frame's bytes arrive, never on a length word alone.
type frameReader struct {
	r    *bufio.Reader
	head [4]byte
	body []byte
}

// frameLenError is a frame whose declared length exceeds its bound.
type frameLenError struct{ n, limit int }

func (e *frameLenError) Error() string {
	return fmt.Sprintf("ps: frame of %d bytes, the bound is %d", e.n, e.limit)
}

// next reads one frame of at most limit body bytes and returns its body,
// valid until the next call. A longer frame fails with a *frameLenError
// before any of its body is read.
func (fr *frameReader) next(limit int) ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.head[:]))
	if n > limit {
		return nil, &frameLenError{n: n, limit: limit}
	}
	b := fr.body[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			// Grow once more of the body has arrived, to double what
			// has, at most to n.
			if _, err := fr.r.Peek(1); err != nil {
				fr.body = b
				return nil, unexpected(err)
			}
			grown := make([]byte, len(b), min(n, max(2*len(b), 512)))
			copy(grown, b)
			b = grown
		}
		m, err := io.ReadFull(fr.r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			fr.body = b
			return nil, unexpected(err)
		}
	}
	fr.body = b
	return b, nil
}

// unexpected turns io.EOF inside a frame into io.ErrUnexpectedEOF.
func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// skip discards the n-byte body of a frame next refused and returns its
// first byte (a request's op), 0 for an empty body.
func (fr *frameReader) skip(n int) (byte, error) {
	if n == 0 {
		return 0, nil
	}
	first, err := fr.r.ReadByte()
	if err == nil {
		_, err = fr.r.Discard(n - 1)
	}
	return first, err
}
