package train

import (
	"errors"
	"strings"
	"testing"

	"hetkg/internal/metrics"
	"hetkg/internal/ps"
)

// outageTransport simulates one shard going dark for a deterministic window
// of transport operations: calls targeting the shard inside [from, until)
// fail with ps.LinkDownError — the exact error shape the TCP link layer
// produces once retries are exhausted or the breaker is open — while every
// other call passes through. until < 0 means the shard never recovers.
// Scheduling is deterministic (round-robin workers; the trainer puts a
// Transport that is not a LinkTransport behind in-process links, and a
// round's in-process requests are served as they are sent, one shard at a
// time in shard order), so the same window yields the identical fault
// schedule on every run.
type outageTransport struct {
	inner ps.Transport
	shard int
	from  int
	until int
	ops   int
}

func (o *outageTransport) down(shard int) bool {
	op := o.ops
	o.ops++
	if shard != o.shard || op < o.from {
		return false
	}
	return o.until < 0 || op < o.until
}

func (o *outageTransport) Pull(shard int, req *ps.PullRequest) (*ps.PullResponse, error) {
	if o.down(shard) {
		return nil, &ps.LinkDownError{Shard: shard, Addr: "outage-test", Err: errors.New("injected outage")}
	}
	return o.inner.Pull(shard, req)
}

func (o *outageTransport) Push(shard int, req *ps.PushRequest) error {
	if o.down(shard) {
		return &ps.LinkDownError{Shard: shard, Addr: "outage-test", Err: errors.New("injected outage")}
	}
	return o.inner.Push(shard, req)
}

func (o *outageTransport) Close() error { return o.inner.Close() }

// degradedConfig is testConfig tuned so a mid-epoch outage is survivable:
// the hot table is big enough to hold the whole epoch-1 census (every key
// the epoch will touch is stale-servable) and the staleness bound is wide.
func degradedConfig(t *testing.T, from, until int) trial {
	t.Helper()
	cfg := testConfig(t, 2)
	cfg.Epochs = 2
	cfg.EvalEvery = -1
	cfg.CacheCapacity = 5000
	cfg.DegradedMaxStaleness = 10000
	cfg.hooks.wrapInProc = func(inner ps.Transport) (ps.Transport, error) {
		return &outageTransport{inner: inner, shard: 1, from: from, until: until}, nil
	}
	return cfg
}

// TestDegradedSurvivesShardOutage is the degraded-mode happy path: shard 1
// goes dark mid-epoch, training rides through on stale cache rows and
// buffered pushes, the shard recovers, and every buffered gradient row
// replays — nothing is dropped, and the whole run is deterministic.
func TestDegradedSurvivesShardOutage(t *testing.T) {
	run := func() (*Result, *metrics.Registry) {
		t.Helper()
		cfg := degradedConfig(t, 40, 120)
		reg := metrics.NewRegistry()
		cfg.Metrics = reg
		res, err := cfg.run()
		if err != nil {
			t.Fatalf("degraded run failed: %v", err)
		}
		return res, reg
	}
	res, reg := run()

	batches := reg.Counter(metrics.MTrainDegradedBatches).Value()
	stale := reg.Counter(metrics.MTrainDegradedStaleRows).Value()
	buffered := reg.Counter(metrics.MTrainDegradedBufferedRows).Value()
	replayed := reg.Counter(metrics.MTrainDegradedReplayedRows).Value()
	if batches == 0 {
		t.Error("no batch ran degraded during the outage window")
	}
	if stale == 0 {
		t.Error("no pull was served stale during the outage")
	}
	if buffered == 0 {
		t.Error("no push was buffered during the outage")
	}
	if replayed != buffered {
		t.Errorf("replayed %d of %d buffered rows — update mass dropped or double-counted", replayed, buffered)
	}

	// Determinism: an identical second run (same seed, same fault window)
	// must produce bit-identical embeddings.
	res2, _ := run()
	if len(res.Entities.Data) != len(res2.Entities.Data) {
		t.Fatalf("entity table size differs across identical runs: %d vs %d",
			len(res.Entities.Data), len(res2.Entities.Data))
	}
	for i := range res.Entities.Data {
		if res.Entities.Data[i] != res2.Entities.Data[i] {
			t.Fatalf("entity value %d differs across identical degraded runs: %v vs %v",
				i, res.Entities.Data[i], res2.Entities.Data[i])
		}
	}
}

// TestDegradedDisabledSurfacesOutage: without opting in (DegradedMaxStaleness
// unset), a shard outage is a hard error, exactly as before the feature.
func TestDegradedDisabledSurfacesOutage(t *testing.T) {
	cfg := degradedConfig(t, 40, 120)
	cfg.DegradedMaxStaleness = 0
	if _, err := cfg.run(); !errors.Is(err, ps.ErrLinkDown) {
		t.Fatalf("want the outage surfaced as ErrLinkDown, got %v", err)
	}
}

// TestDegradedStalenessBoundIsFatal: a bound tighter than the cache's sync
// period means no expired row is eligible for stale serving, so the outage
// must fail the run rather than silently train on over-age rows.
func TestDegradedStalenessBoundIsFatal(t *testing.T) {
	cfg := degradedConfig(t, 40, -1)
	cfg.DegradedMaxStaleness = 1
	_, err := cfg.run()
	if err == nil || !strings.Contains(err.Error(), "staleness bound") {
		t.Fatalf("want staleness-bound failure, got %v", err)
	}
	if !errors.Is(err, ps.ErrLinkDown) {
		t.Fatalf("staleness failure should still identify the outage: %v", err)
	}
}

// TestDegradedBufferBudgetIsFatal: the replay buffer is bounded; an outage
// that accumulates more distinct rows than the budget fails the run instead
// of growing without limit.
func TestDegradedBufferBudgetIsFatal(t *testing.T) {
	cfg := degradedConfig(t, 40, -1)
	cfg.hooks.bufferCap = 2
	_, err := cfg.run()
	if err == nil || !strings.Contains(err.Error(), "buffer full") {
		t.Fatalf("want buffer-budget failure, got %v", err)
	}
}

// TestDegradedDrainFailureIsFatal: a shard that never recovers leaves
// buffered pushes at finalize; the strict drain must fail the run so the
// gathered embeddings never silently miss update mass.
func TestDegradedDrainFailureIsFatal(t *testing.T) {
	cfg := degradedConfig(t, 40, -1)
	cfg.Epochs = 1
	_, err := cfg.run()
	if err == nil || !strings.Contains(err.Error(), "buffered degraded push") {
		t.Fatalf("want strict-drain failure, got %v", err)
	}
}
