// Package telemetry is the fleet observability plane of a multi-process
// run (DESIGN.md §12): every process — hetkg train elastic workers,
// hetkg ps shards, hetkg serve replicas — periodically ships a labeled
// snapshot of its metrics registry to the cluster coordinator, where a
// Fleet aggregator keeps a short per-process time series, derives rates
// (iterations/s, bytes/s, windowed hit ratio, report lag), and runs a
// rule-driven health engine (straggler, cache degradation, comm stall,
// telemetry lag — see health.go) over the aggregate. The coordinator
// exposes the result as the /fleet JSON endpoint on its obs server; the
// hetkg top dashboard renders it live.
//
// Reports travel as op 'T' on the existing membership gob TCP envelope
// (internal/ps), so the telemetry plane needs no extra listener: workers
// piggyback a report on every heartbeat, shards and serve replicas run a
// Shipper against a dialed coordinator connection.
//
// All clocking is injectable (FleetConfig.Now), so rate and alert
// computations are fully deterministic under a fake clock in tests.
package telemetry

import (
	"sort"
	"time"

	"hetkg/internal/metrics"
)

// Process roles a Report can carry. The role selects which registry
// series the aggregator derives rates from (a worker's iterations, a
// shard's served RPCs, a serve replica's requests).
const (
	// RoleWorker is a hetkg train elastic worker process.
	RoleWorker = "worker"
	// RoleShard is a hetkg ps parameter-server shard process.
	RoleShard = "shard"
	// RoleServe is a hetkg serve inference replica.
	RoleServe = "serve"
)

// Report is one process's labeled metric-registry snapshot, the unit that
// crosses the wire (ps op 'T').
type Report struct {
	// Role classifies the sender: RoleWorker, RoleShard, or RoleServe.
	Role string
	// Label identifies the process within its role (host:pid, listen addr).
	Label string
	// Seq is the sender's monotonically increasing report index; stale
	// (reordered) reports are dropped by the aggregator.
	Seq int64
	// Metrics is the sender's full registry snapshot at ship time.
	Metrics metrics.Snapshot
}

// Sender ships telemetry reports to the cluster coordinator. Implemented
// by *ps.CoordClient (over the gob TCP wire) and by *ps.Membership
// (in-process, forwarding straight into the coordinator's Fleet).
type Sender interface {
	// SendTelemetry delivers one report; best effort, callers log and
	// continue on error.
	SendTelemetry(Report) error
}

// DefaultWindow is the default per-process ring capacity in samples.
const DefaultWindow = 64

// FleetConfig parameterizes a coordinator's Fleet aggregator.
type FleetConfig struct {
	// Window is the per-process sample ring capacity (default
	// DefaultWindow). Rates are derived over the ring's span, so the
	// window × report interval is the smoothing horizon.
	Window int
	// Now supplies the clock (default time.Now); tests inject a fake so
	// every derived rate and alert decision is deterministic.
	Now func() time.Time
	// Health parameterizes the rule engine; zero fields take defaults.
	Health HealthConfig
	// Logf, when non-nil, receives alert activations and clears.
	Logf func(format string, args ...any)
}

// sample is one ingested snapshot with its arrival time.
type sample struct {
	t    time.Time
	snap metrics.Snapshot
}

// procSeries is the aggregator's ring-buffered view of one process.
type procSeries struct {
	role, label string
	reports     int64
	lastSeq     int64
	ring        []sample // fixed capacity; head indexes the oldest
	head, n     int
}

func (p *procSeries) push(t time.Time, snap metrics.Snapshot) {
	if p.n < cap(p.ring) {
		p.ring = p.ring[:p.n+1]
		p.ring[(p.head+p.n)%cap(p.ring)] = sample{t, snap}
		p.n++
		return
	}
	p.ring[p.head] = sample{t, snap}
	p.head = (p.head + 1) % cap(p.ring)
}

// at returns the i-th oldest sample (0 ≤ i < n).
func (p *procSeries) at(i int) sample { return p.ring[(p.head+i)%cap(p.ring)] }

func (p *procSeries) newest() sample { return p.at(p.n - 1) }
func (p *procSeries) oldest() sample { return p.at(0) }

// counterSum sums the named counter values in a snapshot (histogram and
// timer observation counts also qualify — they are monotonic).
func counterSum(s metrics.Snapshot, names []string) (total int64, found bool) {
	for _, name := range names {
		if v, ok := s[name]; ok {
			total += v.Count
			found = true
		}
	}
	return total, found
}

// windowRate returns the per-second rate of the summed named counters
// over the whole ring window. ok is false with fewer than two samples, no
// elapsed time, or when none of the counters exist.
func (p *procSeries) windowRate(names []string) (perSec float64, ok bool) {
	if p.n < 2 {
		return 0, false
	}
	first, newest := p.oldest(), p.newest()
	dt := newest.t.Sub(first.t).Seconds()
	if dt <= 0 {
		return 0, false
	}
	a, okA := counterSum(first.snap, names)
	b, okB := counterSum(newest.snap, names)
	if !okA && !okB {
		return 0, false
	}
	return float64(b-a) / dt, true
}

// rateHistory returns the per-interval rate between each consecutive
// sample pair, oldest first — the hetkg top sparkline series.
func (p *procSeries) rateHistory(names []string) []float64 {
	if p.n < 2 {
		return nil
	}
	out := make([]float64, 0, p.n-1)
	for i := 1; i < p.n; i++ {
		a, b := p.at(i-1), p.at(i)
		dt := b.t.Sub(a.t).Seconds()
		if dt <= 0 {
			out = append(out, 0)
			continue
		}
		ca, _ := counterSum(a.snap, names)
		cb, _ := counterSum(b.snap, names)
		out = append(out, float64(cb-ca)/dt)
	}
	return out
}

// windowRatio returns hits/(hits+misses) over the ring window, plus the
// window's total accesses. ok is false when the counters are absent or
// nothing was accessed in the window.
func (p *procSeries) windowRatio(hits, misses []string) (ratio float64, accesses int64, ok bool) {
	if p.n < 2 {
		return 0, 0, false
	}
	first, newest := p.oldest(), p.newest()
	h0, okH := counterSum(first.snap, hits)
	m0, _ := counterSum(first.snap, misses)
	h1, _ := counterSum(newest.snap, hits)
	m1, okM := counterSum(newest.snap, misses)
	if !okH && !okM {
		return 0, 0, false
	}
	dh, dm := h1-h0, m1-m0
	if dh+dm <= 0 {
		return 0, 0, false
	}
	return float64(dh) / float64(dh+dm), dh + dm, true
}

// reportInterval estimates the process's report cadence as the median gap
// between consecutive samples (0 with fewer than two samples).
func (p *procSeries) reportInterval() time.Duration {
	if p.n < 2 {
		return 0
	}
	gaps := make([]time.Duration, 0, p.n-1)
	for i := 1; i < p.n; i++ {
		gaps = append(gaps, p.at(i).t.Sub(p.at(i-1).t))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2]
}

// roleRates maps each role to the named per-second rates the aggregator
// derives for it. The first entry is the role's primary rate — the one
// hetkg top sparklines and the straggler rule (workers) read.
var roleRates = map[string][]struct {
	name     string
	counters []string
}{
	RoleWorker: {
		{"iter_s", []string{metrics.MTrainIterations}},
		{"bytes_s", []string{metrics.MPSBytesTx, metrics.MPSBytesRx}},
	},
	RoleShard: {
		{"rpc_s", []string{metrics.MPSServerPulls, metrics.MPSServerPushes}},
		{"bytes_s", []string{metrics.MPSTCPRxBytes, metrics.MPSTCPTxBytes}},
	},
	RoleServe: {
		{"req_s", []string{metrics.MServeRequests}},
		{"bytes_s", nil}, // serve has no byte meter; omitted from views
	},
}

// roleHit maps roles to their cache hit/miss counter pair. Only training
// workers run the hotness-aware cache, so the fleet hit ratio and the
// cache_degraded rule are the training cache's alone.
var roleHit = map[string][2][]string{
	RoleWorker: {{metrics.MCacheHits}, {metrics.MCacheMisses}},
}

// PrimaryRate returns the name of a role's primary derived rate ("iter_s"
// for workers, "rpc_s" for shards, "req_s" for serve replicas).
func PrimaryRate(role string) string {
	specs := roleRates[role]
	if len(specs) == 0 {
		return ""
	}
	return specs[0].name
}

// procKey is a process's stable identity in the aggregator.
func procKey(role, label string) string { return role + "/" + label }
