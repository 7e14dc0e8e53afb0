package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"

	"hetkg/internal/metrics"
	"hetkg/internal/span"
)

// The health engine runs four rules over the aggregate on every ingest
// (and on every View, so a dead process is flagged without fresh
// traffic). Rules breach per evaluation; an alert only activates after
// debounceUp consecutive breaches *with new data for its subject* and
// clears after debounceDown consecutive quiet evaluations — a one-sample
// blip never pages, and an alert never flaps at ingest frequency.

// Rule names, as they appear in FleetView.Alerts and hetkg top.
const (
	// RuleStraggler flags a worker whose iteration rate falls below
	// stragglerRatio × the fleet median (median-ratio outlier; the z-score
	// against the fleet mean is reported in the alert message).
	RuleStraggler = "straggler"
	// RuleCacheDegraded flags a fleet-wide windowed cache hit ratio below
	// hitRatioFloor — the paper's core artifact decaying.
	RuleCacheDegraded = "cache_degraded"
	// RuleCommStall flags a worker or shard whose byte counters stopped
	// moving across the whole window despite earlier traffic.
	RuleCommStall = "comm_stall"
	// RuleTelemetryLag flags a process whose reports stopped arriving for
	// longer than lagFactor × its own estimated cadence — the telemetry
	// analog of heartbeat failure detection.
	RuleTelemetryLag = "telemetry_lag"
)

// The rule engine's thresholds. They are fixed: no deployment needs a
// second value, and /fleet reports each breached one as Alert.Threshold.
const (
	// stragglerRatio: a worker is a straggler when its iter/s drops below
	// this fraction of the fleet median.
	stragglerRatio = 0.5
	// stragglerMinPeers is the minimum worker count for the straggler
	// rule to run — a median over fewer processes is noise.
	stragglerMinPeers = 3
	// hitRatioFloor: the fleet-wide windowed hit ratio below which
	// cache_degraded fires.
	hitRatioFloor = 0.2
	// minAccesses is the minimum windowed cache accesses before the hit
	// ratio is judged at all — a cold cache is not an alert.
	minAccesses = 256
	// lagFactor: telemetry_lag fires when a process's report silence
	// exceeds this multiple of its estimated cadence, matching the
	// membership layer's worst-case detection bound.
	lagFactor = 4
	// debounceUp is the consecutive breach count (per subject report)
	// required to activate an alert.
	debounceUp = 2
	// debounceDown is the consecutive quiet count required to clear an
	// active alert.
	debounceDown = 2
)

// Alert is one active health finding in a FleetView.
type Alert struct {
	// Rule names the breached rule (RuleStraggler, ...).
	Rule string `json:"rule"`
	// Proc is the subject process key ("role/label"); empty for
	// fleet-wide rules (cache_degraded).
	Proc string `json:"proc,omitempty"`
	// Value is the measured quantity that breached.
	Value float64 `json:"value"`
	// Threshold is the boundary it breached.
	Threshold float64 `json:"threshold"`
	// SinceMS is how long the alert has been active, in milliseconds.
	SinceMS float64 `json:"since_ms"`
	// Message is the operator-facing one-liner.
	Message string `json:"message"`
}

// alertKey identifies one (rule, subject) debounce lane.
type alertKey struct{ rule, proc string }

// breach is one rule violation observed in a single evaluation pass.
type breach struct {
	value, threshold float64
	message          string
}

// lane is the debounce state of one alertKey.
type lane struct {
	streak   int   // consecutive breaches (or clears when active)
	lastData int64 // subject's report count when the streak last advanced
	active   bool
	since    time.Time
	last     breach
}

// healthState holds the engine's debounce lanes.
type healthState struct {
	lanes map[alertKey]*lane
}

func newHealthState() *healthState {
	return &healthState{lanes: make(map[alertKey]*lane)}
}

// activeRules lists the rules currently active against proc, sorted.
func (h *healthState) activeRules(proc string) []string {
	var out []string
	for k, l := range h.lanes {
		if l.active && k.proc == proc {
			out = append(out, k.rule)
		}
	}
	sort.Strings(out)
	return out
}

// activeAlerts renders every active lane, oldest activation first.
func (h *healthState) activeAlerts(now time.Time) []Alert {
	out := []Alert{}
	keys := make([]alertKey, 0, len(h.lanes))
	for k, l := range h.lanes {
		if l.active {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := h.lanes[keys[i]], h.lanes[keys[j]]
		if !a.since.Equal(b.since) {
			return a.since.Before(b.since)
		}
		if keys[i].rule != keys[j].rule {
			return keys[i].rule < keys[j].rule
		}
		return keys[i].proc < keys[j].proc
	})
	for _, k := range keys {
		l := h.lanes[k]
		out = append(out, Alert{
			Rule:      k.rule,
			Proc:      k.proc,
			Value:     l.last.value,
			Threshold: l.last.threshold,
			SinceMS:   float64(now.Sub(l.since)) / 1e6,
			Message:   l.last.message,
		})
	}
	return out
}

// evaluateLocked runs every rule and advances the debounce lanes. The
// caller holds f.mu.
func (f *Fleet) evaluateLocked(now time.Time) {
	breaches := make(map[alertKey]breach)
	f.stragglerRule(breaches)
	f.cacheRule(breaches)
	f.commStallRule(breaches)
	f.lagRule(now, breaches)

	// Advance lanes: breached keys accumulate toward activation, quiet
	// keys toward clearing. A lane only moves when its subject produced
	// new data since the lane last moved, so debounce counts subject
	// reports, not ingest events from unrelated processes.
	for k, b := range breaches {
		l := f.health.lanes[k]
		if l == nil {
			l = &lane{lastData: -1}
			f.health.lanes[k] = l
		}
		data := f.laneData(k, now)
		if data == l.lastData {
			if l.active {
				l.last = b // keep the message fresh even without new data
			}
			continue
		}
		l.lastData = data
		l.last = b
		if l.active {
			l.streak = 0 // an active lane's streak counts clears
			continue
		}
		l.streak++
		if l.streak >= debounceUp {
			l.active = true
			l.since = now
			l.streak = 0
			f.alertTransition(k, b, true)
		}
	}
	for k, l := range f.health.lanes {
		if _, breached := breaches[k]; breached {
			continue
		}
		data := f.laneData(k, now)
		if data == l.lastData {
			continue
		}
		l.lastData = data
		if !l.active {
			delete(f.health.lanes, k)
			continue
		}
		l.streak++
		if l.streak >= debounceDown {
			f.alertTransition(k, l.last, false)
			delete(f.health.lanes, k)
		}
	}
	f.publishLocked()
}

// laneData returns the debounce data counter for an alert lane: the
// subject's own report count (per-process rules), the fleet-wide report
// total (fleet-wide rules, proc == ""), or the evaluation time for the
// telemetry-lag rule — whose subject is silent by definition, so distinct
// evaluation instants are its "new data".
func (f *Fleet) laneData(k alertKey, now time.Time) int64 {
	if k.rule == RuleTelemetryLag {
		return now.UnixNano()
	}
	if k.proc != "" {
		if p := f.procs[k.proc]; p != nil {
			return p.reports
		}
		return 0
	}
	var total int64
	for _, p := range f.procs {
		total += p.reports
	}
	return total
}

// alertTransition records one activation or clear: log line, counters,
// and a fleet.alert span event on activation.
func (f *Fleet) alertTransition(k alertKey, b breach, activated bool) {
	subject := k.proc
	if subject == "" {
		subject = "fleet"
	}
	if activated {
		f.logf("fleet: ALERT %s on %s: %s", k.rule, subject, b.message)
		if o := f.obs; o != nil {
			o.alertsTotal.Inc()
		}
		sp := f.tracer.RootNamed(f.spans, span.NFleetAlert)
		f.spans++
		sp.End()
		return
	}
	f.logf("fleet: alert %s on %s cleared", k.rule, subject)
}

// publishLocked refreshes the alert gauges.
func (f *Fleet) publishLocked() {
	o := f.obs
	if o == nil {
		return
	}
	active, stragglers := 0, 0
	for k, l := range f.health.lanes {
		if !l.active {
			continue
		}
		active++
		if k.rule == RuleStraggler {
			stragglers++
		}
	}
	o.alertsActive.Set(float64(active))
	o.stragglers.Set(float64(stragglers))
}

// stragglerRule flags workers whose primary rate falls below
// stragglerRatio × the worker median.
func (f *Fleet) stragglerRule(breaches map[alertKey]breach) {
	spec := roleRates[RoleWorker][0]
	type wr struct {
		key  string
		rate float64
	}
	var rates []wr
	for k, p := range f.procs {
		if p.role != RoleWorker {
			continue
		}
		if rate, ok := p.windowRate(spec.counters); ok {
			rates = append(rates, wr{k, rate})
		}
	}
	if len(rates) < stragglerMinPeers {
		return
	}
	sorted := make([]float64, len(rates))
	var mean float64
	for i, r := range rates {
		sorted[i] = r.rate
		mean += r.rate
	}
	mean /= float64(len(rates))
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	threshold := stragglerRatio * median
	if threshold <= 0 {
		return
	}
	var variance float64
	for _, r := range rates {
		variance += (r.rate - mean) * (r.rate - mean)
	}
	std := math.Sqrt(variance / float64(len(rates)))
	for _, r := range rates {
		if r.rate >= threshold {
			continue
		}
		z := 0.0
		if std > 0 {
			z = (r.rate - mean) / std
		}
		breaches[alertKey{RuleStraggler, r.key}] = breach{
			value:     r.rate,
			threshold: threshold,
			message: fmt.Sprintf("%.1f iter/s < %.2f x median %.1f (z=%.1f)",
				r.rate, stragglerRatio, median, z),
		}
	}
}

// cacheRule flags a fleet-wide windowed hit ratio of the training cache
// (every role in roleHit, pooled) below the floor.
func (f *Fleet) cacheRule(breaches map[alertKey]breach) {
	var hits, total int64
	for _, p := range f.procs {
		hm, ok := roleHit[p.role]
		if !ok {
			continue
		}
		ratio, accesses, ok := p.windowRatio(hm[0], hm[1])
		if !ok {
			continue
		}
		hits += int64(ratio * float64(accesses))
		total += accesses
	}
	if total < minAccesses {
		return
	}
	ratio := float64(hits) / float64(total)
	if ratio >= hitRatioFloor {
		return
	}
	breaches[alertKey{RuleCacheDegraded, ""}] = breach{
		value:     ratio,
		threshold: hitRatioFloor,
		message: fmt.Sprintf("fleet hit ratio %.3f < floor %.2f over %d accesses",
			ratio, hitRatioFloor, total),
	}
}

// commStallRule flags workers and shards whose byte counters froze across
// the window despite earlier traffic.
func (f *Fleet) commStallRule(breaches map[alertKey]breach) {
	for k, p := range f.procs {
		var names []string
		for _, spec := range roleRates[p.role] {
			if spec.name == "bytes_s" {
				names = spec.counters
			}
		}
		if names == nil || p.n < 2 {
			continue
		}
		first, _ := counterSum(p.oldest().snap, names)
		newest, ok := counterSum(p.newest().snap, names)
		if !ok || first == 0 || newest != first {
			continue // never had traffic, or traffic still flowing
		}
		// A stall with open circuit breakers is a diagnosed outage — the
		// process is riding it out in degraded mode — not a mystery freeze.
		msg := fmt.Sprintf("no wire traffic across the last %d reports (total stuck at %d bytes)", p.n, newest)
		if v, open := p.newest().snap[metrics.MPSLinkBreakerOpen]; open && v.Value > 0 {
			msg = fmt.Sprintf("shard link down (%d breaker(s) open), no wire traffic across the last %d reports — degraded mode, not frozen", int(v.Value), p.n)
		}
		breaches[alertKey{RuleCommStall, k}] = breach{
			value:     0,
			threshold: 1,
			message:   msg,
		}
	}
}

// lagRule flags processes whose reports stopped arriving.
func (f *Fleet) lagRule(now time.Time, breaches map[alertKey]breach) {
	for k, p := range f.procs {
		iv := p.reportInterval()
		if iv <= 0 {
			continue
		}
		silence := now.Sub(p.newest().t)
		limit := time.Duration(lagFactor * float64(iv))
		if silence <= limit {
			continue
		}
		breaches[alertKey{RuleTelemetryLag, k}] = breach{
			value:     silence.Seconds(),
			threshold: limit.Seconds(),
			message: fmt.Sprintf("no report for %v (cadence %v, limit %v)",
				silence.Round(time.Millisecond), iv.Round(time.Millisecond), limit.Round(time.Millisecond)),
		}
	}
}
