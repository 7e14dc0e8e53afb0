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
type PullResponse struct {
	Vals []float32
}

// PushRequest carries gradients for Keys, concatenated in key order. Trace
// is the originating batch's span context, as in PullRequest.
type PushRequest struct {
	Keys  []Key
	Vals  []float32
	Trace span.Context
}

// Transport reaches one shard per call. A Client runs every call over a
// LinkTransport — one link per shard, whose conn is an in-process call
// into the shard (NewInProc, NewCodecTransport) or binary frames over TCP
// (DialTCPLink, used by integration tests and multi-process deployments),
// the same round, codec, sequence and retry code over either. Any other
// Transport (a wrapper or a test fake) is put behind fp32 in-process links
// that call it, each call from the goroutine of the round that makes it,
// so a wrapper or fake that only one client uses need not be safe for
// concurrent use.
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

// NewInProc puts a cluster's shards behind fp32 in-process links, one per
// shard (c must host them, see NewCluster): a pull copies the shard's rows
// straight into the caller's buffer and a push applies the caller's
// gradients, nothing encoded (see linkConn.move).
func NewInProc(c *Cluster) *LinkTransport {
	t, _ := inProcLinks(c, nil, fp32Profile) // an fp32 in-process link's dial cannot fail
	return t
}

// NewCodecTransport puts c's shards behind the named codec profile, one
// in-process link per shard. With inner nil each link's conn sits on its
// shard directly; otherwise it reads and applies the shard's rows through
// inner. An fp32 link moves rows unencoded (as NewInProc's do). Any other
// profile runs both ends of its codec — an in-process session encodes
// pulls and decodes pushes, the link the reverse — so lossy codecs lose
// exactly the bits a remote peer would. Every link reports its calls'
// post-codec wire sizes to the client for the netsim cost model. "auto"
// resolves against cm's modeled inter-machine link via ChooseProfile
// (under the paper's 1 Gbps default, delta-int8). The transport is shared
// by a trainer process's workers, as a TCP connection pool is: one delta
// base per (process, shard).
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
	return inProcLinks(c, inner, prof)
}

// fp32Profile is the resolved fp32 profile.
var fp32Profile, _ = ResolveProfile(ProfileFP32)

// inProcLinks builds one in-process link per shard of c on the resolved
// prof, each conn on its shard's rows, or on viaTransport's when inner is
// not nil. This is the one place a non-link Transport joins the link path.
// An in-process call cannot lose its reply, so the links need no push-dedup
// identity. A layout that hosts no shards has nothing to link to.
func inProcLinks(c *Cluster, inner Transport, prof Profile) (*LinkTransport, error) {
	if len(c.Servers) == 0 {
		return nil, fmt.Errorf("ps: the cluster hosts no shards to link in process; dial them (DialTCPLink)")
	}
	return newLinkTransport(make([]string, len(c.Servers)), prof, LinkConfig{}, false,
		func(_ *LinkTransport, l *link) (*linkConn, error) {
			var rows shardRows = c.Servers[l.shard]
			if inner != nil {
				rows = viaTransport{Server: c.Servers[l.shard], tr: inner}
			}
			lc, err := newLinkCodec(l.prof, rows.Width)
			if err != nil {
				return nil, err
			}
			if l.prof.Name == ProfileFP32 {
				return &linkConn{rows: rows, lc: lc}, nil
			}
			s, err := newSession(rows, nil, l.prof, l.id)
			if err != nil {
				return nil, err
			}
			return &linkConn{sess: s, lc: lc}, nil
		})
}

// viaTransport is the rows an in-process link serves when the caller hands
// in a Transport that is not a link: one shard's, read and applied through
// that transport. Widths, the row count and the push-dedup table are the
// shard's own.
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
