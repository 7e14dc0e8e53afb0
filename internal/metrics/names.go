package metrics

// Canonical registry metric names. Every subsystem registers under these
// constants so a run's registry — and therefore its timeline and the live
// introspection endpoint — carries one stable, documented vocabulary.
// TestNamesAreDocumented (docs_test.go) enforces that each name listed here
// is documented in EXPERIMENTS.md's "metric → paper figure" table.
const (
	// MTrainIterations counts processed mini-batches across all workers.
	MTrainIterations = "train.iterations"
	// MTrainPairs counts scored (positive, negative) pairs.
	MTrainPairs = "train.pairs"
	// MTrainLoss is the mean pair loss of the most recent batch.
	MTrainLoss = "train.loss"
	// MTrainEpoch is the current epoch (set at timeline emission).
	MTrainEpoch = "train.epoch"
	// MTrainCompWall is the accumulated wall-clock gradient-computation
	// time (timer; excluded from timelines).
	MTrainCompWall = "train.comp_wall"

	// MCacheHits counts hot-embedding-table hits across all workers.
	MCacheHits = "cache.hits"
	// MCacheMisses counts hot-embedding-table misses (cold or stale).
	MCacheMisses = "cache.misses"
	// MCacheHitRatio is hits/(hits+misses), set at timeline emission.
	MCacheHitRatio = "cache.hit_ratio"
	// MCacheEvictedRows counts rows dropped by table rebuilds (DPS).
	MCacheEvictedRows = "cache.evicted_rows"
	// MCacheRefreshRows counts rows pulled by Build/Refresh — the
	// construction-traffic side of the staleness trade-off.
	MCacheRefreshRows = "cache.refresh_rows"
	// MCacheStaleness is the histogram of row ages (iterations since last
	// synchronization) observed at cache hits.
	MCacheStaleness = "cache.staleness"

	// MPSPullRPCs counts parameter-server pull round trips.
	MPSPullRPCs = "ps.pull_rpcs"
	// MPSPushRPCs counts parameter-server push requests.
	MPSPushRPCs = "ps.push_rpcs"
	// MPSPullRows counts embedding rows fetched from the PS.
	MPSPullRows = "ps.pull_rows"
	// MPSPushRows counts gradient rows pushed to the PS.
	MPSPushRows = "ps.push_rows"
	// MPSBytesTx counts wire bytes sent to the PS (pull requests and push
	// payloads), priced by the transport's size accounting.
	MPSBytesTx = "ps.bytes_tx"
	// MPSBytesRx counts wire bytes received from the PS (pull responses).
	MPSBytesRx = "ps.bytes_rx"

	// MPSCodecBytesRaw counts pre-codec payload bytes (4 per float32 value
	// crossing the transport in either direction), the baseline the codec
	// savings are measured against.
	MPSCodecBytesRaw = "ps.codec.bytes_raw"
	// MPSCodecBytesWire counts post-codec payload bytes — what the
	// negotiated wire codec actually ships. bytes_raw/bytes_wire is the
	// compression ratio.
	MPSCodecBytesWire = "ps.codec.bytes_wire"
	// MPSCodecRowsDelta counts pull rows that were delta-encoded against
	// the link's cached version (vs sent full).
	MPSCodecRowsDelta = "ps.codec.rows_delta"
	// MPSCodecRowsTopkDropped counts gradient coordinates zeroed by the
	// top-k sparsifier into the error-feedback buffer (re-sent later).
	MPSCodecRowsTopkDropped = "ps.codec.rows_topk_dropped"

	// MPSLinkRetries counts RPC attempts re-issued after a transport-level
	// failure (the first attempt of each call is not a retry).
	MPSLinkRetries = "ps.link.retries"
	// MPSLinkReconnects counts successful re-dials of a previously
	// connected shard link (each resets the link's delta-codec base state).
	MPSLinkReconnects = "ps.link.reconnects"
	// MPSLinkFailures counts failed RPC/dial attempts on shard links
	// (every failure, whether or not a retry later succeeded).
	MPSLinkFailures = "ps.link.failures"
	// MPSLinkDeadlineExceeded counts link attempt failures caused by the
	// per-RPC deadline (a subset of ps.link.failures; a stalled — not
	// dead — shard shows up here).
	MPSLinkDeadlineExceeded = "ps.link.deadline_exceeded"
	// MPSLinkBreakerTrips counts circuit-breaker transitions from closed
	// to open (consecutive-failure threshold reached).
	MPSLinkBreakerTrips = "ps.link.breaker_trips"
	// MPSLinkBreakerOpen is the number of shard links currently behind an
	// open (or half-open) circuit breaker (gauge; nonzero means the
	// process is running degraded or stalling on a dead shard).
	MPSLinkBreakerOpen = "ps.link.breaker_open"

	// MNetLocalMsgs counts shared-memory (co-located) messages.
	MNetLocalMsgs = "net.local_msgs"
	// MNetLocalBytes counts shared-memory bytes.
	MNetLocalBytes = "net.local_bytes"
	// MNetRemoteMsgs counts inter-machine messages.
	MNetRemoteMsgs = "net.remote_msgs"
	// MNetRemoteBytes counts inter-machine bytes.
	MNetRemoteBytes = "net.remote_bytes"
	// MNetSimWire accumulates simulated wire nanoseconds, priced
	// per message by the netsim cost model.
	MNetSimWire = "net.sim_wire_ns"

	// MPSServerPulls counts pull requests served by a PS shard.
	MPSServerPulls = "ps.server.pulls"
	// MPSServerPushes counts push requests served by a PS shard.
	MPSServerPushes = "ps.server.pushes"
	// MPSServerRowsPulled counts rows a shard served to pulls.
	MPSServerRowsPulled = "ps.server.rows_pulled"
	// MPSServerRowsPushed counts gradient rows a shard applied.
	MPSServerRowsPushed = "ps.server.rows_pushed"
	// MPSTCPConns counts accepted TCP transport connections.
	MPSTCPConns = "ps.tcp.conns"
	// MPSTCPRxBytes counts bytes read from TCP transport connections.
	MPSTCPRxBytes = "ps.tcp.rx_bytes"
	// MPSTCPTxBytes counts bytes written to TCP transport connections.
	MPSTCPTxBytes = "ps.tcp.tx_bytes"

	// MServeRequests counts query-server API requests across all endpoints.
	MServeRequests = "serve.requests"
	// MServeErrors counts API requests rejected with an error status.
	MServeErrors = "serve.errors"
	// MServeLatencyScore is the /v1/score service-time histogram (ns).
	MServeLatencyScore = "serve.latency.score_ns"
	// MServeLatencyPredict is the /v1/predict service-time histogram (ns).
	MServeLatencyPredict = "serve.latency.predict_ns"
	// MServeLatencyNeighbors is the /v1/neighbors service-time histogram (ns).
	MServeLatencyNeighbors = "serve.latency.neighbors_ns"
	// MServeBatchSize was the histogram of predictions coalesced per sweep.
	// Nothing publishes it since a prediction sweeps alone; it stays declared
	// because benchmark/run.go reads it (and skips it while it is empty).
	MServeBatchSize = "serve.batch_size"

	// MClusterWorkers is the coordinator's count of live registered worker
	// processes (gauge, refreshed on every membership RPC).
	MClusterWorkers = "cluster.workers"
	// MClusterPartsUnassigned is the coordinator's count of partitions with
	// work remaining but no live owner (gauge; nonzero between a worker
	// failure and the next rebalance-carrying heartbeat).
	MClusterPartsUnassigned = "cluster.partitions_unassigned"
	// MClusterHeartbeats counts heartbeat RPCs the coordinator received.
	MClusterHeartbeats = "cluster.heartbeats"
	// MClusterWorkerFailures counts workers expired by heartbeat timeout
	// (crashes as seen by the coordinator; graceful leaves do not count).
	MClusterWorkerFailures = "cluster.worker_failures"
	// MClusterReassigns counts partition ownership moves performed by the
	// coordinator (cold-start spreading plus post-failure adoption).
	MClusterReassigns = "cluster.reassignments"

	// MFleetProcesses is the coordinator's count of processes that have ever
	// shipped a telemetry report (gauge; includes processes that later died).
	MFleetProcesses = "fleet.processes"
	// MFleetReports counts telemetry reports the fleet aggregator ingested.
	MFleetReports = "fleet.reports"
	// MFleetAlertsActive is the number of currently active health alerts
	// (gauge, refreshed on every rule evaluation).
	MFleetAlertsActive = "fleet.alerts_active"
	// MFleetAlertsTotal counts alert activations since the coordinator
	// started (debounced transitions, not raw rule breaches).
	MFleetAlertsTotal = "fleet.alerts_total"
	// MFleetStragglers is the number of workers currently flagged by the
	// straggler rule (gauge; a subset of fleet.alerts_active).
	MFleetStragglers = "fleet.stragglers"

	// MClusterCkptWrites counts partition progress snapshots a worker wrote.
	MClusterCkptWrites = "cluster.ckpt_writes"
	// MClusterCkptResumes counts partitions a worker adopted mid-run and
	// resumed from a progress snapshot or coordinator hint.
	MClusterCkptResumes = "cluster.ckpt_resumes"
	// MClusterCkptCorrupt counts progress snapshots rejected as corrupt or
	// truncated at resume (the worker falls back to the coordinator's hint).
	MClusterCkptCorrupt = "cluster.ckpt_corrupt"

	// MTrainDegradedBatches counts batches that trained through degraded
	// mode (at least one shard link down, rows served stale from the cache
	// and/or pushes buffered).
	MTrainDegradedBatches = "train.degraded.batches"
	// MTrainDegradedStaleRows counts rows served from the cache within the
	// degraded staleness bound while their shard link was down.
	MTrainDegradedStaleRows = "train.degraded.stale_rows"
	// MTrainDegradedBufferedRows counts gradient rows buffered (coalesced
	// by key) because their shard link was down at push time.
	MTrainDegradedBufferedRows = "train.degraded.buffered_rows"
	// MTrainDegradedReplayedRows counts buffered gradient rows successfully
	// replayed to their shard after the link recovered.
	MTrainDegradedReplayedRows = "train.degraded.replayed_rows"
)
