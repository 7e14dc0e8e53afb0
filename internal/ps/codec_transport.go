package ps

import (
	"fmt"
	"sync"

	"hetkg/internal/metrics"
	"hetkg/internal/netsim"
	"hetkg/internal/span"
)

// CodecTransport wraps an in-process transport with the negotiated codec
// layer, simulating both ends of every worker↔shard link: each pull
// response and push payload really round-trips through the profile's
// codecs (so lossy codecs lose exactly the bits a remote peer would see),
// and each call carries its post-codec wire size back to the client, so
// the netsim cost model prices compressed links.
//
// One CodecTransport is shared by every worker of a trainer process, the
// same sharing a real TCP connection pool has, so "per link" means per
// (process, shard) pair: all of a process's workers share one delta base
// per shard. A mutex serializes calls (the deterministic trainers drive
// workers serially anyway).
type CodecTransport struct {
	mu     sync.Mutex
	inner  Transport
	prof   Profile
	links  []*linkCodec
	tracer *span.Tracer

	bv  []byte // advertised-versions scratch
	buf []byte // payload scratch
}

// NewCodecTransport wraps inner with the named codec profile for a
// cluster's key widths. "auto" resolves against cm's modeled inter-machine
// link — the dominant cost in the single-process simulation — via
// ChooseProfile; under the paper's 1 Gbps default that selects delta-int8.
func NewCodecTransport(inner Transport, c *Cluster, codec string, cm netsim.CostModel) (*CodecTransport, error) {
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
	widthOf := func(k Key) int {
		if k.IsRelation() {
			return c.RelationDim()
		}
		return c.EntityDim()
	}
	t := &CodecTransport{inner: inner, prof: prof}
	for range c.Servers {
		lc, err := newLinkCodec(prof, widthOf)
		if err != nil {
			return nil, err
		}
		t.links = append(t.links, lc)
	}
	return t, nil
}

// NegotiatedProfile returns the resolved profile name (auto already picked).
func (t *CodecTransport) NegotiatedProfile() string { return t.prof.Name }

// Instrument publishes the codec's byte accounting into reg: pre-codec
// payload bytes (ps.codec.bytes_raw), post-codec wire bytes
// (ps.codec.bytes_wire), and delta-encoded pull rows (ps.codec.rows_delta).
// Call before the transport carries traffic.
func (t *CodecTransport) Instrument(reg *metrics.Registry) {
	obs := newCodecObs(reg)
	for _, lc := range t.links {
		lc.obs = obs
	}
}

// Trace attaches a span tracer: traced requests record a transport.encode
// child covering the codec work. The tracer also forwards to the inner
// transport when it records spans of its own.
func (t *CodecTransport) Trace(tr *span.Tracer) {
	t.tracer = tr
	if tt, ok := t.inner.(interface{ Trace(*span.Tracer) }); ok {
		tt.Trace(tr)
	}
}

// Pull implements Transport: the response payload round-trips through the
// pull codec (delta-framed when negotiated) before the caller sees it.
func (t *CodecTransport) Pull(shard int, req *PullRequest) (*PullResponse, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if shard < 0 || shard >= len(t.links) {
		return nil, fmt.Errorf("ps: no shard %d", shard)
	}
	lc := t.links[shard]
	// Advertise versions before the pull mutates the bases.
	t.bv = lc.appendBaseVers(t.bv[:0], req.Keys)
	resp, err := t.inner.Pull(shard, req)
	if err != nil {
		return nil, err
	}
	sp := t.tracer.StartChild(req.Trace, span.NEncode)
	payload, err := lc.encodePull(t.buf[:0], req.Keys, t.bv, resp.Vals)
	if err != nil {
		sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
		return nil, err
	}
	t.buf = payload
	sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(payload)), Shard: shard})
	// Keys plus advertised versions out, framing plus encoded payload back.
	resp.TxBytes = PullRequestBytes(len(req.Keys)) + int64(len(t.bv))
	resp.RxBytes = msgHeaderBytes + int64(len(payload))
	return resp, nil
}

// Push implements Transport: gradients round-trip through the push codec
// before they reach the shard's optimizer.
func (t *CodecTransport) Push(shard int, req *PushRequest) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if shard < 0 || shard >= len(t.links) {
		return fmt.Errorf("ps: no shard %d", shard)
	}
	lc := t.links[shard]
	sp := t.tracer.StartChild(req.Trace, span.NEncode)
	payload, err := lc.encodePush(t.buf[:0], req.Keys, req.Vals)
	if err != nil {
		sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Shard: shard})
		return err
	}
	t.buf = payload
	sp.EndAttrs(span.Attrs{Rows: int64(len(req.Keys)), Bytes: int64(len(payload)), Shard: shard})
	req.WireBytes = msgHeaderBytes + 8*int64(len(req.Keys)) + int64(len(payload))
	return t.inner.Push(shard, req)
}

// Close implements Transport.
func (t *CodecTransport) Close() error { return t.inner.Close() }
