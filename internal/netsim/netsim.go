// Package netsim models the training cluster's network. The paper's
// measurements (communication dominating 70%+ of DGL-KE epoch time on a
// 1 Gbps link, Table I) are driven by how many bytes cross the slow
// inter-machine link versus how many are served from co-located shared
// memory. This package meters exactly that traffic and converts it to time
// through a configurable cost model, so a single-process reproduction
// exhibits the same communication/computation structure as the 4-machine
// cluster.
//
// Metering is done by the parameter-server client (every pull/push knows
// whether its target shard is co-located); this package is policy-free.
package netsim

import (
	"fmt"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// CostModel converts message counts and byte volumes into elapsed time.
// Remote traffic crosses the inter-machine network; local traffic moves
// through shared memory between co-located workers and servers.
type CostModel struct {
	// RemoteLatency is charged once per remote message (RPC half-trip).
	RemoteLatency time.Duration
	// RemoteBandwidthBps is the inter-machine link speed in bytes/second.
	RemoteBandwidthBps float64
	// LocalLatency is charged once per local (shared-memory) operation.
	LocalLatency time.Duration
	// LocalBandwidthBps is the shared-memory copy speed in bytes/second.
	LocalBandwidthBps float64
}

// Default1Gbps mirrors the paper's testbed: a 1 Gbps Ethernet
// (125 MB/s) with ~100 µs effective per-message latency, against ~20 GB/s
// shared memory with negligible latency.
func Default1Gbps() CostModel {
	return CostModel{
		RemoteLatency:      100 * time.Microsecond,
		RemoteBandwidthBps: 125e6,
		LocalLatency:       200 * time.Nanosecond,
		LocalBandwidthBps:  20e9,
	}
}

// Validate reports whether the model's rates are usable.
func (c CostModel) Validate() error {
	if c.RemoteBandwidthBps <= 0 || c.LocalBandwidthBps <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth (remote %v, local %v)",
			c.RemoteBandwidthBps, c.LocalBandwidthBps)
	}
	if c.RemoteLatency < 0 || c.LocalLatency < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	return nil
}

// RemoteTime returns the simulated time to move msgs messages totalling
// bytes over the inter-machine link.
func (c CostModel) RemoteTime(msgs, bytes int64) time.Duration {
	return time.Duration(msgs)*c.RemoteLatency +
		time.Duration(float64(bytes)/c.RemoteBandwidthBps*float64(time.Second))
}

// LocalTime returns the simulated time for local shared-memory traffic.
func (c CostModel) LocalTime(msgs, bytes int64) time.Duration {
	return time.Duration(msgs)*c.LocalLatency +
		time.Duration(float64(bytes)/c.LocalBandwidthBps*float64(time.Second))
}

// Meter accumulates a worker's traffic, split by locality. It is safe for
// concurrent use. An instrumented meter (see Instrument) additionally
// publishes per-link message/byte counters and the running simulated wire
// time into a metrics registry.
type Meter struct {
	localMsgs   metrics.Counter
	localBytes  metrics.Counter
	remoteMsgs  metrics.Counter
	remoteBytes metrics.Counter
	obs         *meterObs
}

// meterObs holds a meter's registry-backed series. All fields are shared
// get-or-create registry metrics, so every meter wired to the same registry
// feeds one aggregate per-link series.
type meterObs struct {
	localMsgs   *metrics.Counter
	localBytes  *metrics.Counter
	remoteMsgs  *metrics.Counter
	remoteBytes *metrics.Counter
	simWireNS   *metrics.Counter
	cm          CostModel
}

// Instrument publishes this meter's traffic into reg: the per-link
// net.{local,remote}_{msgs,bytes} counters, plus net.sim_wire_ns — the
// cumulative simulated wire time, priced per message by cm (each message
// pays its latency plus bytes/bandwidth). Pricing is integer-nanosecond
// arithmetic on deterministic byte counts, so the series is reproducible.
// Call before the meter sees traffic; not synchronized with Record calls.
func (m *Meter) Instrument(reg *metrics.Registry, cm CostModel) {
	m.obs = &meterObs{
		localMsgs:   reg.Counter(metrics.MNetLocalMsgs),
		localBytes:  reg.Counter(metrics.MNetLocalBytes),
		remoteMsgs:  reg.Counter(metrics.MNetRemoteMsgs),
		remoteBytes: reg.Counter(metrics.MNetRemoteBytes),
		simWireNS:   reg.Counter(metrics.MNetSimWire),
		cm:          cm,
	}
}

// RecordLocal notes one local message of the given size.
func (m *Meter) RecordLocal(bytes int64) {
	m.localMsgs.Inc()
	m.localBytes.Add(bytes)
	if o := m.obs; o != nil {
		o.localMsgs.Inc()
		o.localBytes.Add(bytes)
		o.simWireNS.Add(int64(o.cm.LocalTime(1, bytes)))
	}
}

// RecordRemote notes one remote message of the given size.
func (m *Meter) RecordRemote(bytes int64) {
	m.remoteMsgs.Inc()
	m.remoteBytes.Add(bytes)
	if o := m.obs; o != nil {
		o.remoteMsgs.Inc()
		o.remoteBytes.Add(bytes)
		o.simWireNS.Add(int64(o.cm.RemoteTime(1, bytes)))
	}
}

// RecordLocalSpan is RecordLocal plus a simulated wire.sim span: when the
// meter is instrumented (the cost model lives on the obs struct) and sc
// belongs to a sampled batch, the priced local time is recorded under sc so
// the trace shows what this message would have cost on the modeled link.
func (m *Meter) RecordLocalSpan(bytes int64, tr *span.Tracer, sc span.Context) {
	m.RecordLocal(bytes)
	if o := m.obs; o != nil {
		tr.RecordSim(sc, span.NWireSim, o.cm.LocalTime(1, bytes), bytes)
	}
}

// RecordRemoteSpan is RecordRemote plus a simulated wire.sim span priced at
// the modeled inter-machine link.
func (m *Meter) RecordRemoteSpan(bytes int64, tr *span.Tracer, sc span.Context) {
	m.RecordRemote(bytes)
	if o := m.obs; o != nil {
		tr.RecordSim(sc, span.NWireSim, o.cm.RemoteTime(1, bytes), bytes)
	}
}

// Snapshot is a point-in-time copy of a Meter's counters.
type Snapshot struct {
	LocalMsgs, LocalBytes   int64
	RemoteMsgs, RemoteBytes int64
}

// Snapshot returns the current counters.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{
		LocalMsgs:   m.localMsgs.Value(),
		LocalBytes:  m.localBytes.Value(),
		RemoteMsgs:  m.remoteMsgs.Value(),
		RemoteBytes: m.remoteBytes.Value(),
	}
}

// Reset zeroes all counters.
func (m *Meter) Reset() {
	m.localMsgs.Reset()
	m.localBytes.Reset()
	m.remoteMsgs.Reset()
	m.remoteBytes.Reset()
}

// Sub returns s - prev component-wise, for per-epoch deltas.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		LocalMsgs:   s.LocalMsgs - prev.LocalMsgs,
		LocalBytes:  s.LocalBytes - prev.LocalBytes,
		RemoteMsgs:  s.RemoteMsgs - prev.RemoteMsgs,
		RemoteBytes: s.RemoteBytes - prev.RemoteBytes,
	}
}

// Time converts the snapshot to simulated communication time under cm.
func (s Snapshot) Time(cm CostModel) time.Duration {
	return cm.RemoteTime(s.RemoteMsgs, s.RemoteBytes) + cm.LocalTime(s.LocalMsgs, s.LocalBytes)
}

// String renders a compact summary.
func (s Snapshot) String() string {
	return fmt.Sprintf("local %d msgs/%d B, remote %d msgs/%d B",
		s.LocalMsgs, s.LocalBytes, s.RemoteMsgs, s.RemoteBytes)
}
