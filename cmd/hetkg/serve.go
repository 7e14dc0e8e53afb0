package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"hetkg"
	"hetkg/internal/span"
)

func bindServe(fs *flag.FlagSet) action {
	var (
		ckptPath    = fs.String("ckpt", "", "checkpoint to serve (from hetkg train -save; required)")
		listen      = fs.String("listen", "127.0.0.1:8080", "address to serve on")
		allowRemote = fs.Bool("allow-remote", false, "allow -listen to bind non-loopback addresses (exposes unauthenticated query + pprof endpoints)")
		maxK        = fs.Int("max-k", 0, "max k per request (0 = default)")
		knnMetric   = fs.String("knn-metric", "cosine", "neighbor similarity: cosine | dot | l2")
		serve       = bindGrace(fs, "requests")
		shipTel     = bindTelemetry(fs, "ship serve.* metrics to the cluster coordinator at this address (fleet view / hetkg top)")
		telLabel    = fs.String("telemetry-label", "", "label for this process in the fleet view (default: the -listen address)")
	)
	spanOut, spanN := bindSpan(fs, "write sampled request spans to this file on shutdown (hetkg trace spans)", "request")
	return func(stdout, stderr io.Writer) int {
		if *ckptPath == "" {
			fs.Usage()
			return failf(stderr, 2, "hetkg serve: -ckpt is required")
		}
		ck, err := hetkg.ReadCheckpoint(*ckptPath)
		if err != nil {
			return failf(stderr, 1, "checkpoint: %v", err)
		}
		metric, err := hetkg.ParseKNNMetric(*knnMetric)
		if err != nil {
			return failf(stderr, 2, "%v", err)
		}

		var col *span.Collector
		cfg := hetkg.QueryServerConfig{Checkpoint: ck, MaxK: *maxK, KNNMetric: metric}
		if *spanOut != "" {
			col = span.NewCollector(span.CollectorConfig{Every: *spanN})
			cfg.Tracer = col.Tracer(0, 0)
		}
		srv, err := hetkg.NewQueryServer(cfg)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}

		l, err := srv.Listen(*listen, *allowRemote)
		if err != nil {
			return failf(stderr, 1, "listen: %v", err)
		}
		fmt.Fprintf(stdout, "hetkg serve: %s (%s, dim %d, %d entities, %d relations) on http://%s\n",
			*ckptPath, ck.ModelName, ck.Dim, ck.Entities.Rows, ck.Relations.Rows, l.Addr())

		label := *telLabel
		if label == "" {
			label = l.Addr().String()
		}
		stopTel := shipTel(hetkg.TelemetryRoleServe, label, srv.Registry().Snapshot, nil, logTo(stdout, ""))

		httpSrv := &http.Server{Handler: srv.Handler()}
		err = serve(func() error { return httpSrv.Serve(l) }, func(grace time.Duration) {
			fmt.Fprintln(stdout, "hetkg serve: shutting down, draining in-flight requests")
			sctx, cancel := context.WithTimeout(context.Background(), grace)
			defer cancel()
			if err := httpSrv.Shutdown(sctx); err != nil {
				httpSrv.Close() // grace expired: force-close lingering connections
			}
			stopTel() // after the drain, so the final report counts every request
		})
		if err != nil {
			return failf(stderr, 1, "serve: %v", err)
		}
		if col != nil {
			hdr := span.Header{System: "hetkg-serve", Dataset: ck.Dataset, Every: col.Every(), Seed: ck.Seed}
			if err := span.WriteFile(*spanOut, hdr, col.Drain()); err != nil {
				return failf(stderr, 1, "span: %v", err)
			}
			fmt.Fprintf(stdout, "hetkg serve: spans written to %s\n", *spanOut)
		}
		return 0
	}
}
