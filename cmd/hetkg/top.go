package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hetkg/internal/telemetry"
)

func bindTop(fs *flag.FlagSet) action {
	var (
		addr    = fs.String("addr", "127.0.0.1:6060", "coordinator metrics address serving /fleet (host:port or a full http:// URL)")
		refresh = fs.Duration("refresh", 2*time.Second, "poll and redraw interval")
		once    = fs.Bool("once", false, "print one snapshot and exit instead of refreshing")
		failOn  = fs.Bool("fail-on-alert", false, "exit with status 1 when any health alert is active")
	)
	return func(stdout, stderr io.Writer) int {
		url := fleetURL(*addr)
		var alerted bool
		if *once {
			v, err := fetchView(url)
			if err != nil {
				return failf(stderr, 1, "hetkg top: %v", err)
			}
			render(stdout, v)
			alerted = len(v.Alerts) > 0
		} else {
			ctx, stop := signalContext()
			defer stop()
			alerted = watch(ctx, stdout, url, *refresh)
		}
		if *failOn && alerted {
			return 1
		}
		return 0
	}
}

// watch polls url every refresh and redraws until ctx is cancelled. It
// returns whether any poll showed an active alert.
func watch(ctx context.Context, w io.Writer, url string, refresh time.Duration) bool {
	alerted := false
	t := time.NewTicker(refresh)
	defer t.Stop()
	for {
		v, err := fetchView(url)
		fmt.Fprint(w, "\033[H\033[2J") // home + clear: redraw in place
		if err != nil {
			fmt.Fprintf(w, "hetkg top: %v (retrying every %v)\n", err, refresh)
		} else {
			render(w, v)
			alerted = alerted || len(v.Alerts) > 0
		}
		select {
		case <-ctx.Done():
			return alerted
		case <-t.C:
		}
	}
}

// fleetURL normalizes -addr into the /fleet URL.
func fleetURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/") + "/fleet"
}

// fetchView GETs and decodes one FleetView, rejecting non-fleet documents
// (e.g. pointing -addr at a process that serves /metrics but hosts no
// coordinator).
func fetchView(url string) (*telemetry.FleetView, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s (is this address a coordinator with -metrics-addr?)", url, resp.Status)
	}
	var v telemetry.FleetView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", url, err)
	}
	if v.Kind != telemetry.ViewKind {
		return nil, fmt.Errorf("%s is %q, want %q", url, v.Kind, telemetry.ViewKind)
	}
	return &v, nil
}

// render draws one fleet snapshot: the per-process table then the active
// alerts.
func render(w io.Writer, v *telemetry.FleetView) {
	fmt.Fprintf(w, "fleet: %d processes, %d active alerts\n\n", len(v.Processes), len(v.Alerts))
	if len(v.Processes) == 0 {
		fmt.Fprintln(w, "  no processes have reported yet")
		return
	}
	fmt.Fprintf(w, "  %-28s%10s%12s%12s%7s%8s%9s  %-16s%s\n",
		"process", "reports", "rate", "bytes/s", "hit%", "links", "age", "trend", "alerts")
	for _, p := range v.Processes {
		fmt.Fprintf(w, "  %-28s%10d%12s%12s%7s%8s%9s  %-16s%s\n",
			p.ID, p.Reports,
			fmtRate(primaryOf(p)),
			fmtRate(rateOr(p, "bytes_s")),
			fmtHit(p.HitRatio),
			fmtLinks(p.LinksDown),
			fmtMS(p.AgeMS),
			sparkline(p.History),
			strings.Join(p.Alerts, ","))
	}
	if len(v.Alerts) == 0 {
		fmt.Fprintln(w, "\n  no active alerts")
		return
	}
	fmt.Fprintln(w, "\nactive alerts:")
	for _, a := range v.Alerts {
		subject := a.Proc
		if subject == "" {
			subject = "fleet"
		}
		fmt.Fprintf(w, "  [%s] %s: %s (active %s)\n", a.Rule, subject, a.Message, fmtMS(a.SinceMS))
	}
}

// primaryOf returns a process's primary rate (iter/s for workers, rpc/s for
// shards, req/s for serve), NaN-free: -1 marks "unknown".
func primaryOf(p telemetry.ProcessView) float64 {
	return rateOr(p, telemetry.PrimaryRate(p.Role))
}

// rateOr returns the named derived rate, or -1 when the process has not
// produced it yet.
func rateOr(p telemetry.ProcessView, name string) float64 {
	if v, ok := p.Rates[name]; ok {
		return v
	}
	return -1
}

// fmtRate renders a per-second rate compactly ("-" for unknown, k/M
// suffixes above 10^3/10^6).
func fmtRate(v float64) string {
	switch {
	case v < 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// fmtHit renders a cache hit ratio as a percentage, "-" when the role has
// no cache or saw no accesses in the window.
func fmtHit(r *float64) string {
	if r == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", *r*100)
}

// fmtLinks renders per-process shard link health: "-" when the process
// reports no link-layer gauge (in-proc transport, shards themselves), "ok"
// when every link is up, "N down" while circuit breakers are open.
func fmtLinks(n *int) string {
	switch {
	case n == nil:
		return "-"
	case *n == 0:
		return "ok"
	default:
		return fmt.Sprintf("%d down", *n)
	}
}

// fmtMS renders a millisecond quantity as a duration ("1.2s", "450ms").
func fmtMS(ms float64) string {
	d := time.Duration(ms * float64(time.Millisecond))
	if d >= time.Second {
		return d.Round(100 * time.Millisecond).String()
	}
	return d.Round(time.Millisecond).String()
}
