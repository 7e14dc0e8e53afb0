package ps

import (
	"fmt"

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

// Transport moves requests between a worker and the server shards. Every
// deployment is one of three stacks under a Client: InProc (direct calls,
// used for experiments so traffic cost comes from the netsim model, not Go
// scheduling noise), CodecTransport over InProc (the same, with both ends
// of the negotiated codec simulated), and the TCP link (a real wire
// protocol, used by integration tests and multi-process deployments).
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
// netsim cost model, so they must match what a binary wire format would
// actually carry.
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
