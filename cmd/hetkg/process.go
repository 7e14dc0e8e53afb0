package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetkg"
	"hetkg/internal/metrics"
)

// The process plumbing more than one verb needs: each shared flag group is
// declared here, once, next to the one piece of code that acts on it.

// loadGraph resolves "which graph": the TSV triples file in when given, else
// the named dataset preset.
func loadGraph(in, dataset, scale string, seed int64) (*hetkg.Graph, error) {
	if in == "" {
		sc, err := hetkg.ParseScale(scale)
		if err != nil {
			return nil, err
		}
		g, ok := hetkg.DatasetByName(dataset, sc, seed)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q (have %v)", dataset, hetkg.DatasetNames())
		}
		return g, nil
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := hetkg.ReadTSV(f, in)
	return g, err
}

// bindArtifacts declares -artifacts and returns the opener of the cache it
// names: no directory, no cache (a nil store).
func bindArtifacts(fs *flag.FlagSet, def string) func() (*hetkg.ArtifactStore, error) {
	dir := fs.String("artifacts", def,
		"serve dataset generation and partitioning from this content-addressed cache directory (empty = no caching)")
	return func() (*hetkg.ArtifactStore, error) {
		if *dir == "" {
			return nil, nil
		}
		return hetkg.OpenArtifacts(*dir)
	}
}

// bindObs declares the live introspection endpoint's flags and returns its
// starter, which serves reg (plus any extra routes) when -metrics-addr is
// set and returns the running server, nil when it is not.
func bindObs(fs *flag.FlagSet) func(*hetkg.MetricsRegistry, io.Writer, ...hetkg.ServeOption) (*hetkg.MetricsServer, error) {
	addr := fs.String("metrics-addr", "", "serve live metrics + pprof on this address (e.g. 127.0.0.1:6060; unauthenticated, loopback only unless -metrics-allow-remote)")
	allowRemote := fs.Bool("metrics-allow-remote", false, "allow -metrics-addr to bind non-loopback addresses (exposes unauthenticated pprof)")
	return func(reg *hetkg.MetricsRegistry, stdout io.Writer, opts ...hetkg.ServeOption) (*hetkg.MetricsServer, error) {
		if *addr == "" {
			return nil, nil
		}
		if *allowRemote {
			opts = append(opts, hetkg.MetricsAllowRemote())
		}
		srv, err := hetkg.ServeMetrics(*addr, reg, opts...)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		fmt.Fprintf(stdout, "metrics: serving http://%s/metrics (+ /debug/pprof)\n", srv.Addr())
		return srv, nil
	}
}

// bindSpan declares the span-tracing flag pair. What -span names (a file or
// a directory) and what is sampled differ per verb, so the wording is the
// caller's; what is written is always a hetkg-spans/v1 dump.
func bindSpan(fs *flag.FlagSet, pathUsage, sampled string) (path *string, every *int) {
	return fs.String("span", "", pathUsage),
		fs.Int("span-every", 0, sampled+" sampling interval for -span (0 = default 16)")
}

// bindTelemetry declares the fleet-telemetry flags of a process that is not
// an elastic worker (those piggyback reports on their heartbeats) and
// returns its shipper starter: snap is reported as role/label through send
// or, when send is nil and -telemetry is set, over TCP to the coordinator
// there. Telemetry is auxiliary and launch order is not guaranteed, so that
// dial runs in the background and retries rather than refusing to serve.
// The returned stop ends whichever stage is running — it abandons the dial,
// or has the shipper flush its final report and closes the connection — and
// returns once that is done.
func bindTelemetry(fs *flag.FlagSet, addrUsage string) func(role, label string, snap func() metrics.Snapshot, send hetkg.TelemetrySender, logf func(string, ...any)) (stop func()) {
	addr := fs.String("telemetry", "", addrUsage)
	every := fs.Duration("telemetry-every", 0, "telemetry report cadence (0 = default 2s)")
	return func(role, label string, snap func() metrics.Snapshot, send hetkg.TelemetrySender, logf func(string, ...any)) func() {
		start := func(send hetkg.TelemetrySender) *hetkg.TelemetryShipper {
			s := hetkg.NewTelemetryShipper(role, label, snap, send, *every, logf)
			s.Start()
			return s
		}
		if send != nil {
			return start(send).Stop
		}
		if *addr == "" {
			return func() {}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if cc := dialCoordinator(ctx, *addr, logf); cc != nil {
				logf("telemetry: shipping to coordinator %s as %s/%s", *addr, role, label)
				s := start(cc)
				<-ctx.Done()
				s.Stop()
				cc.Close()
			}
		}()
		return func() {
			cancel()
			<-done
		}
	}
}

// dialCoordinator dials addr once a second until it answers or ctx ends (nil).
func dialCoordinator(ctx context.Context, addr string, logf func(string, ...any)) *hetkg.CoordClient {
	for attempt := 0; ; attempt++ {
		cc, err := hetkg.DialCoordinator(addr, 5*time.Second)
		if err == nil {
			return cc
		}
		if attempt == 0 {
			logf("telemetry: coordinator %s unreachable (%v), retrying every 1s", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(time.Second):
		}
	}
}

// signalContext is cancelled by SIGINT or SIGTERM.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// bindGrace declares -grace and returns the serving loop it bounds: run
// serve (an accept loop that returns only when its listener fails or is
// closed) until SIGINT/SIGTERM, then hand drain the -grace budget to stop
// accepting and finish in-flight work within it. A serve that gives out
// before any signal is an error.
func bindGrace(fs *flag.FlagSet, draining string) func(serve func() error, drain func(grace time.Duration)) error {
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain budget for in-flight "+draining+" on SIGINT/SIGTERM")
	return func(serve func() error, drain func(time.Duration)) error {
		ctx, stop := signalContext()
		defer stop()
		done := make(chan error, 1)
		go func() { done <- serve() }()
		select {
		case err := <-done:
			return fmt.Errorf("accept loop ended: %v", err)
		case <-ctx.Done():
		}
		stop() // a second signal kills the process instead of waiting out the drain
		drain(*grace)
		<-done
		return nil
	}
}

// sparkline renders values as Unicode block characters, min-max scaled.
func sparkline(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	var sb strings.Builder
	for _, v := range vals {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[idx])
	}
	return sb.String()
}
