package ps

import (
	"fmt"

	"hetkg/internal/netsim"
	"hetkg/internal/span"
)

// PullRequest asks a shard for the rows of Keys. Trace carries the sampled
// batch's span context (zero when the batch is unsampled or tracing is off)
// so shard-side spans stitch to the originating batch.
type PullRequest struct {
	Keys  []Key
	Trace span.Context
}

// PullResponse carries the requested rows concatenated in key order.
// TxBytes and RxBytes are the wire sizes of the request and the response as
// the transport that encoded them measured; a transport that moves no
// encoded bytes (InProc) leaves them zero, which prices the round trip by
// PullRequestBytes / PullResponseBytes.
type PullResponse struct {
	Vals    []float32
	TxBytes int64
	RxBytes int64
}

// PushRequest carries gradients for Keys, concatenated in key order. Trace
// is the originating batch's span context, as in PullRequest. WireBytes is
// filled in by the transport that encodes the request, with its measured
// wire size; left zero (InProc) the request is priced by PushRequestBytes.
type PushRequest struct {
	Keys      []Key
	Vals      []float32
	Trace     span.Context
	WireBytes int64
}

// Transport moves requests between a worker and the server shards. A
// Client sits on one of two: InProc (direct shard calls, used for
// experiments so traffic cost comes from the netsim model, not Go
// scheduling noise), or a LinkTransport — one link per shard, whose conn is
// either a direct call into an in-process shard session
// (NewCodecTransport: the negotiated codec's two ends, both really run) or
// binary frames over TCP (DialTCPLink: the real wire protocol, used by
// integration tests and multi-process deployments). The two kinds of link
// run the same round, codec, sequence and retry code; only the conn
// differs.
//
// A Client hands a LinkTransport a batch's per-shard requests as one round
// (see Client) and calls any other Transport from its own goroutine, one
// shard at a time, so a wrapper or fake that only one client uses need not
// be safe for concurrent use.
type Transport interface {
	// Pull fetches rows from the given shard.
	Pull(shard int, req *PullRequest) (*PullResponse, error)
	// Push sends gradients to the given shard.
	Push(shard int, req *PushRequest) error
	// Close releases transport resources.
	Close() error
}

// Wire-size accounting shared by all transports: 16 bytes of framing per
// message, 8 bytes per key, 4 bytes per float32 value. These sizes feed the
// netsim cost model. The TCP frames (frame.go) carry a little less — a
// head of a few bytes, a key in one or two — and the formula stays, so
// every deterministic traffic figure is the same on every transport.
const msgHeaderBytes = 16

// PullRequestBytes returns the serialized size of a pull request.
func PullRequestBytes(numKeys int) int64 { return msgHeaderBytes + 8*int64(numKeys) }

// PullResponseBytes returns the serialized size of a pull response.
func PullResponseBytes(numVals int) int64 { return msgHeaderBytes + 4*int64(numVals) }

// PushRequestBytes returns the serialized size of a push request.
func PushRequestBytes(numKeys, numVals int) int64 {
	return msgHeaderBytes + 8*int64(numKeys) + 4*int64(numVals)
}

// InProc is the in-process transport: requests call shard methods directly.
type InProc struct {
	servers []*Server
}

// NewInProc wraps a cluster's shards.
func NewInProc(c *Cluster) *InProc { return &InProc{servers: c.Servers} }

// Pull implements Transport.
func (t *InProc) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	if shard < 0 || shard >= len(t.servers) {
		return nil, fmt.Errorf("ps: no shard %d", shard)
	}
	vals, err := t.servers[shard].PullTraced(req.Trace, req.Keys)
	if err != nil {
		return nil, err
	}
	return &PullResponse{Vals: vals}, nil
}

// Push implements Transport.
func (t *InProc) Push(shard int, req *PushRequest) error {
	if shard < 0 || shard >= len(t.servers) {
		return fmt.Errorf("ps: no shard %d", shard)
	}
	return t.servers[shard].PushTraced(req.Trace, req.Keys, req.Vals)
}

// Close implements Transport.
func (t *InProc) Close() error { return nil }

// NewCodecTransport puts inner behind the named codec profile: one link
// per shard over an in-process session that reads and applies the shard's
// rows through inner. Both ends of every link run — the session encodes
// pulls and decodes pushes, the link the reverse — so lossy codecs lose
// exactly the bits a remote peer would, and each call carries its
// post-codec wire size back to the client for the netsim cost model. "auto"
// resolves against cm's modeled inter-machine link via ChooseProfile (under
// the paper's 1 Gbps default, delta-int8). The transport is shared by a
// trainer process's workers, as a TCP connection pool is: one delta base
// per (process, shard).
func NewCodecTransport(inner Transport, c *Cluster, codec string, cm netsim.CostModel) (*LinkTransport, error) {
	prof, err := ResolveProfile(codec)
	if err != nil {
		return nil, err
	}
	if prof.Name == ProfileAuto {
		prof, err = ResolveProfile(ChooseProfile(2*cm.RemoteLatency, cm.RemoteBandwidthBps))
		if err != nil {
			return nil, err
		}
	}
	// An in-process call cannot lose its reply, so the links need no
	// push-dedup identity.
	return newLinkTransport(make([]string, len(c.Servers)), prof, LinkConfig{}, false,
		func(_ *LinkTransport, l *link) (*linkConn, error) {
			s, err := newSession(viaTransport{Server: c.Servers[l.shard], tr: inner}, nil, l.prof, l.id)
			if err != nil {
				return nil, err
			}
			lc, err := newLinkCodec(l.prof, s.rows.Width)
			if err != nil {
				return nil, err
			}
			return &linkConn{sess: s, lc: lc}, nil
		})
}

// viaTransport is the rows an in-process session serves: one shard's, read
// and applied through an in-process transport. Widths, the row count and
// the push-dedup table are the shard's own.
type viaTransport struct {
	*Server
	tr Transport
}

// pullAppend reads rows through the transport. The transport answers in a
// buffer of its own, which is returned as it is rather than copied to dst.
func (v viaTransport) pullAppend(sc span.Context, _ []float32, keys []Key) ([]float32, error) {
	resp, err := v.tr.Pull(v.machine, &PullRequest{Keys: keys, Trace: sc})
	if err != nil {
		return nil, err
	}
	return resp.Vals, nil
}

// PushTraced applies gradients through the transport.
func (v viaTransport) PushTraced(sc span.Context, keys []Key, vals []float32) error {
	return v.tr.Push(v.machine, &PushRequest{Keys: keys, Vals: vals, Trace: sc})
}
