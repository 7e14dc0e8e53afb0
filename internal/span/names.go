package span

// Canonical span names. Every constant in this file must be documented in
// DESIGN.md §8's span table — TestNamesAreDocumented (docs_test.go) enforces
// the coverage, the same way metric names are pinned to EXPERIMENTS.md.
const (
	// NBatch is the root span of one sampled worker batch (one training
	// iteration end to end: prefetch/refresh, sampling, gather, compute,
	// push).
	NBatch = "batch"
	// NNegSample covers drawing the batch's positives and negatives (or
	// popping a prefetched batch).
	NNegSample = "sample.negatives"
	// NCacheLookup covers the gather pass over the hot-embedding table
	// that classifies each key as cache-served or missing.
	NCacheLookup = "cache.lookup"
	// NCacheRefresh covers a hot-table Build/Refresh: the bulk pull that
	// (re)installs cached values (Algorithms 1–3).
	NCacheRefresh = "cache.refresh"
	// NGradCompute covers the sharded forward/backward pass and the
	// ordered gradient merge.
	NGradCompute = "grad.compute"
	// NPSPull is one client-side pull RPC to one shard.
	NPSPull = "ps.pull"
	// NPSPush is one client-side push RPC to one shard.
	NPSPush = "ps.push"
	// NSerialize covers gob-encoding and flushing a request on the TCP
	// transport.
	NSerialize = "transport.serialize"
	// NEncode covers the negotiated wire codec's work on a request: delta
	// framing and row encoding of a pull response (in-process transports
	// simulate both ends), or decode of one on the TCP client, or gradient
	// encoding of a push.
	NEncode = "transport.encode"
	// NWireTCP covers the real-socket round trip of a TCP request: from
	// request flushed to response decoded (includes shard service time).
	NWireTCP = "wire.tcp"
	// NWireSim is the netsim cost model's simulated wire time for one
	// message, recorded with Sim=true.
	NWireSim = "wire.sim"
	// NShardPull is the shard-side handling of a pull request.
	NShardPull = "shard.pull"
	// NShardApply is the shard-side handling of a push request: applying
	// pushed gradients through the shard optimizer.
	NShardApply = "shard.apply"

	// NClusterHeartbeat covers one membership heartbeat round trip from an
	// elastic worker process to the coordinator (progress report out,
	// assignment set back).
	NClusterHeartbeat = "cluster.heartbeat"
	// NClusterRecover covers adopting one partition mid-run: reading its
	// progress snapshot (or falling back to the coordinator's hint),
	// building the partition's worker, and fast-forwarding its sampler to
	// the resume point.
	NClusterRecover = "cluster.recover"

	// NFleetAlert marks one health-alert activation by the coordinator's
	// fleet aggregator (straggler, cache_degraded, comm_stall,
	// telemetry_lag). Emitted with an Every=1 collector so no activation is
	// sampled away; correlate with the coordinator log line for the rule
	// and subject.
	NFleetAlert = "fleet.alert"

	// NServeRequest is the root span of one sampled serving request
	// (hetkg serve), the inference-time counterpart of NBatch.
	NServeRequest = "serve.request"
	// NServeSweep covers one prediction's candidate sweep: scoring the
	// partial triple against the full entity table and keeping the top k.
	NServeSweep = "serve.sweep"
	// NServeKNN covers the exact nearest-neighbor search behind
	// /v1/neighbors.
	NServeKNN = "serve.knn"
)
