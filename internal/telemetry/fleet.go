package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// ViewKind is the schema discriminator of /fleet JSON documents.
const ViewKind = "hetkg-fleet/v1"

// Fleet is the coordinator-side telemetry aggregator: it ingests labeled
// registry snapshots from every process of a run, keeps a ring-buffered
// per-process time series, derives rates, and evaluates the health rules
// on every ingest. All methods are safe for concurrent use (reports
// arrive on independent shard connections).
type Fleet struct {
	cfg FleetConfig

	mu     sync.Mutex
	procs  map[string]*procSeries
	health *healthState
	obs    *fleetObs
	tracer *span.Tracer
	spans  int // fleet.alert span sequence
}

// fleetObs holds the aggregator's own fleet.* registry series.
type fleetObs struct {
	processes    *metrics.Gauge
	reports      *metrics.Counter
	alertsActive *metrics.Gauge
	alertsTotal  *metrics.Counter
	stragglers   *metrics.Gauge
}

// NewFleet builds an empty aggregator.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.Health.defaults()
	return &Fleet{
		cfg:    cfg,
		procs:  make(map[string]*procSeries),
		health: newHealthState(),
	}
}

// Instrument publishes the aggregator's fleet.* series into reg:
// fleet.processes / fleet.alerts_active / fleet.stragglers gauges plus
// counters for ingested reports (fleet.reports) and alert activations
// (fleet.alerts_total). Call before reports flow.
func (f *Fleet) Instrument(reg *metrics.Registry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.obs = &fleetObs{
		processes:    reg.Gauge(metrics.MFleetProcesses),
		reports:      reg.Counter(metrics.MFleetReports),
		alertsActive: reg.Gauge(metrics.MFleetAlertsActive),
		alertsTotal:  reg.Counter(metrics.MFleetAlertsTotal),
		stragglers:   reg.Gauge(metrics.MFleetStragglers),
	}
}

// Trace attaches a span tracer: each alert activation then records one
// fleet.alert span event. Build the tracer from a collector with Every=1
// so no activation is sampled away.
func (f *Fleet) Trace(tr *span.Tracer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tracer = tr
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Ingest folds one report into the aggregate and re-evaluates the health
// rules. Reports with a stale Seq (reordered or duplicated on the wire)
// are dropped.
func (f *Fleet) Ingest(rep Report) error {
	switch rep.Role {
	case RoleWorker, RoleShard, RoleServe:
	default:
		return fmt.Errorf("telemetry: unknown role %q", rep.Role)
	}
	if rep.Label == "" {
		return fmt.Errorf("telemetry: report without a label")
	}
	if rep.Metrics == nil {
		return fmt.Errorf("telemetry: report without a snapshot")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.cfg.Now()
	key := procKey(rep.Role, rep.Label)
	p := f.procs[key]
	if p == nil {
		p = &procSeries{
			role:  rep.Role,
			label: rep.Label,
			ring:  make([]sample, 0, f.cfg.Window),
		}
		f.procs[key] = p
		f.logf("fleet: %s reporting (%d processes)", key, len(f.procs))
	}
	if rep.Seq != 0 && rep.Seq <= p.lastSeq {
		return nil // stale or duplicate; the newer view already landed
	}
	p.lastSeq = rep.Seq
	p.reports++
	p.push(now, rep.Metrics)
	if o := f.obs; o != nil {
		o.reports.Inc()
		o.processes.Set(float64(len(f.procs)))
	}
	f.evaluateLocked(now)
	return nil
}

// Processes returns the number of processes the aggregator has heard from.
func (f *Fleet) Processes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.procs)
}

// ProcessView is one process's row in a FleetView.
type ProcessView struct {
	// ID is the process key, "role/label".
	ID string `json:"id"`
	// Role is RoleWorker, RoleShard, or RoleServe.
	Role string `json:"role"`
	// Label is the sender-chosen process identity.
	Label string `json:"label"`
	// Reports counts ingested snapshots from this process.
	Reports int64 `json:"reports"`
	// AgeMS is milliseconds since the last report arrived.
	AgeMS float64 `json:"age_ms"`
	// IntervalMS is the estimated report cadence (median gap), 0 until
	// two reports have arrived.
	IntervalMS float64 `json:"interval_ms,omitempty"`
	// Rates maps derived rate names (iter_s, rpc_s, req_s, bytes_s) to
	// per-second values over the ring window.
	Rates map[string]float64 `json:"rates,omitempty"`
	// HitRatio is the windowed training-cache hit ratio, present only for
	// workers whose cache saw accesses in the window.
	HitRatio *float64 `json:"hit_ratio,omitempty"`
	// LinksDown, present only for processes reporting the PS link-layer
	// gauge, is how many shard links currently sit behind an open circuit
	// breaker — non-zero means the process is riding out a shard outage.
	LinksDown *int `json:"links_down,omitempty"`
	// History is the per-interval series of the role's primary rate,
	// oldest first — the sparkline feed.
	History []float64 `json:"history,omitempty"`
	// Alerts lists the rules currently active against this process.
	Alerts []string `json:"alerts,omitempty"`
}

// FleetView is the /fleet JSON document: every known process with derived
// rates, plus the active alerts.
type FleetView struct {
	// Kind is always ViewKind.
	Kind string `json:"kind"`
	// Processes lists every process that ever reported, sorted by ID.
	Processes []ProcessView `json:"processes"`
	// Alerts lists the currently active alerts, most severe (oldest
	// activation) first.
	Alerts []Alert `json:"alerts"`
}

// View assembles the current fleet view. Reading a view also re-evaluates
// the health rules, so a process that silently died is flagged by the
// telemetry-lag rule even when no other reports arrive.
func (f *Fleet) View() FleetView {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.cfg.Now()
	f.evaluateLocked(now)
	v := FleetView{Kind: ViewKind}
	keys := make([]string, 0, len(f.procs))
	for k := range f.procs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p := f.procs[k]
		pv := ProcessView{
			ID:      k,
			Role:    p.role,
			Label:   p.label,
			Reports: p.reports,
			AgeMS:   float64(now.Sub(p.newest().t)) / 1e6,
		}
		if iv := p.reportInterval(); iv > 0 {
			pv.IntervalMS = float64(iv) / 1e6
		}
		var primary []string
		for i, spec := range roleRates[p.role] {
			if len(spec.counters) == 0 {
				continue
			}
			if i == 0 {
				primary = spec.counters
			}
			if rate, ok := p.windowRate(spec.counters); ok {
				if pv.Rates == nil {
					pv.Rates = make(map[string]float64)
				}
				pv.Rates[spec.name] = rate
			}
		}
		if hm, ok := roleHit[p.role]; ok {
			if ratio, _, ok := p.windowRatio(hm[0], hm[1]); ok {
				pv.HitRatio = &ratio
			}
		}
		if v, ok := p.newest().snap[metrics.MPSLinkBreakerOpen]; ok {
			n := int(v.Value)
			pv.LinksDown = &n
		}
		if primary != nil {
			pv.History = p.rateHistory(primary)
		}
		pv.Alerts = f.health.activeRules(k)
		v.Processes = append(v.Processes, pv)
	}
	v.Alerts = f.health.activeAlerts(now)
	return v
}

// ServeHTTP implements the /fleet endpoint: the FleetView as indented
// JSON. Mount it on the coordinator's obs server (obs.WithRoute).
func (f *Fleet) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f.View()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
