// Package obs is the live introspection endpoint: an opt-in HTTP server
// exposing a metrics Registry as JSON plus the standard pprof profiling
// handlers, attached to long-running processes (hetkg train, hetkg ps) so a
// training run can be watched and profiled in flight.
//
// The endpoint serves operational data (metric values, goroutine and heap
// profiles) with no authentication; bind it to loopback (the
// 127.0.0.1-prefixed defaults used throughout this repository) unless the
// network is trusted. See DESIGN.md §7.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hetkg/internal/metrics"
)

// Server is a running introspection endpoint. Close releases the listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	addr string
}

// Option adjusts Serve's behaviour.
type Option func(*serveOpts)

type serveOpts struct {
	allowRemote bool
	routes      []Route
}

// Route is one extra handler mounted into the introspection mux alongside
// /metrics and /healthz — the coordinator mounts its /fleet view this way.
type Route struct {
	// Pattern is the http.ServeMux pattern (e.g. "/fleet").
	Pattern string
	// Handler serves the route.
	Handler http.Handler
}

// WithRoute mounts an extra handler on the endpoint (e.g. the fleet
// aggregator's /fleet view on a coordinator's obs server).
func WithRoute(pattern string, h http.Handler) Option {
	return func(o *serveOpts) { o.routes = append(o.routes, Route{Pattern: pattern, Handler: h}) }
}

// AllowRemote permits binding non-loopback addresses. The endpoint serves
// unauthenticated pprof handlers (heap contents, CPU profiles), so Serve
// refuses such addresses by default; pass this option only on a trusted
// network.
func AllowRemote() Option {
	return func(o *serveOpts) { o.allowRemote = true }
}

// Serve starts the endpoint on addr (e.g. "127.0.0.1:6060"; a ":0" port
// picks a free one — read the chosen address back with Addr). Routes:
//
//	/metrics       registry snapshot as JSON
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  the net/http/pprof index and profiles
//
// The endpoint is unauthenticated, so addr must resolve to a loopback
// interface unless the AllowRemote option is given.
//
// The server runs on its own goroutine until Close.
func Serve(addr string, reg *metrics.Registry, opts ...Option) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("obs: nil registry")
	}
	var so serveOpts
	for _, o := range opts {
		o(&so)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if !so.allowRemote {
		if err := CheckLoopback(addr); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	mux := Handler(reg, so.routes...)

	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:      mux,
			ReadTimeout:  30 * time.Second,
			WriteTimeout: 0, // pprof profile/trace streams run long
		},
		addr: ln.Addr().String(),
	}
	go s.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Close
	return s, nil
}

// Handler returns the introspection routes as a mux that can be mounted
// into another process's HTTP server (hetkg serve shares its query mux):
// /metrics (registry snapshot as JSON, optionally narrowed with
// ?prefix=cluster. style queries), /healthz, the net/http/pprof profiles
// under /debug/pprof/, and any extra routes. The routes are
// unauthenticated; whoever mounts them owns the loopback guard
// (CheckLoopback).
func Handler(reg *metrics.Registry, extra ...Route) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := reg.Snapshot().Filter(r.URL.Query().Get("prefix"))
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// CheckLoopback rejects listen addresses that would expose an
// unauthenticated endpoint beyond the local host: an empty host (all
// interfaces) or a host that is neither "localhost" nor a loopback IP. It
// is shared by the obs endpoint and the hetkg serve query listener, whose
// opt-outs are AllowRemote and -allow-remote respectively.
func CheckLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("obs: invalid address %q: %w", addr, err)
	}
	if host == "" {
		return fmt.Errorf("obs: refusing to serve an unauthenticated endpoint on all interfaces (%q); bind a loopback address or explicitly allow remote access", addr)
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return nil
	}
	return fmt.Errorf("obs: refusing non-loopback address %q for an unauthenticated endpoint; bind 127.0.0.1/[::1]/localhost or explicitly allow remote access", addr)
}

// Addr returns the address the endpoint is listening on.
func (s *Server) Addr() string { return s.addr }

// Close stops the endpoint and releases its listener.
func (s *Server) Close() error { return s.srv.Close() }
