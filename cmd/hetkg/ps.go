package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"hetkg"
	"hetkg/internal/plan"
)

// The run-identity flags are the declaration train binds too
// (plan.BindIdentity), and every process of a run must be given the same
// values for them — the shard's deterministic derivation of its rows depends
// on it. The training-loop flags (-epochs, -batch, ...) are not in that
// group, so a shard rejects them.
func bindPS(fs *flag.FlagSet) action {
	var rc hetkg.RunConfig
	plan.BindIdentity(fs, &rc)
	var (
		machine  = fs.Int("machine", 0, "this shard's machine index [0, machines)")
		listen   = fs.String("listen", "127.0.0.1:7070", "address to serve on")
		codecs   = fs.String("codec", "", "comma-separated wire codec profiles to accept (empty = all)")
		coord    = fs.Bool("coordinator", false, "additionally host the cluster coordinator (exactly one shard per cluster; requires -shards)")
		shards   = fs.String("shards", "", "comma-separated addresses of ALL shards in machine order, advertised to joining workers (required with -coordinator)")
		hbEvery  = fs.Duration("heartbeat-interval", time.Second, "heartbeat cadence advertised to workers (with -coordinator)")
		wTimeout = fs.Duration("worker-timeout", 0, "declare a worker dead after this much heartbeat silence (0 = 3x -heartbeat-interval; with -coordinator)")
		startObs = bindObs(fs)
		shipTel  = bindTelemetry(fs, "ship this shard's metrics to the coordinator at this address (not needed on the coordinator itself)")
		serve    = bindGrace(fs, "connections")
		openArt  = bindArtifacts(fs, "")
	)
	return func(stdout, stderr io.Writer) int {
		rc.Normalize() // print what the shard derives from: -seed 0 means 42
		var err error
		if rc.Artifacts, err = openArt(); err != nil {
			return failf(stderr, 1, "artifacts: %v", err)
		}
		shard, err := hetkg.BuildShard(rc, *machine)
		if err != nil {
			return failf(stderr, 1, "building shard: %v", err)
		}

		logf := logTo(stdout, "")
		reg := hetkg.NewMetricsRegistry()
		shard.Instrument(reg)

		var acc hetkg.ShardAcceptor
		if *codecs != "" {
			acc.AllowCodecs = strings.Split(*codecs, ",")
		}
		var obsOpts []hetkg.ServeOption
		if *coord {
			if *shards == "" {
				return failf(stderr, 2, "-coordinator requires -shards (the full fleet, in machine order)")
			}
			addrs := strings.Split(*shards, ",")
			if len(addrs) != rc.Machines {
				return failf(stderr, 2, "-shards lists %d addresses for %d machines", len(addrs), rc.Machines)
			}
			fleet := hetkg.NewFleetTelemetry(hetkg.FleetTelemetryConfig{Logf: logf})
			fleet.Instrument(reg)
			acc.Coordinator, err = hetkg.NewMembership(hetkg.MemberConfig{
				Partitions:     rc.Machines,
				ShardAddrs:     addrs,
				HeartbeatEvery: *hbEvery,
				WorkerTimeout:  *wTimeout,
				Telemetry:      fleet,
				Logf:           logf,
			})
			if err != nil {
				return failf(stderr, 1, "coordinator: %v", err)
			}
			acc.Coordinator.Instrument(reg)
			obsOpts = append(obsOpts, hetkg.MetricsRoute("/fleet", fleet))
		}

		srv, err := startObs(reg, stdout, obsOpts...)
		if err != nil {
			return failf(stderr, 1, "%v", err)
		}
		if srv != nil {
			defer srv.Close()
			if *coord {
				fmt.Fprintf(stdout, "metrics: fleet view on http://%s/fleet (hetkg top -addr %s)\n", srv.Addr(), srv.Addr())
			}
		}

		// Every shard reports into the fleet view: the coordinator's own
		// shard in-process through its membership, the rest over TCP via
		// -telemetry.
		var inProcess hetkg.TelemetrySender
		if acc.Coordinator != nil {
			inProcess = acc.Coordinator
		}
		defer shipTel(hetkg.TelemetryRoleShard, fmt.Sprintf("machine-%d", *machine), reg.Snapshot, inProcess, logf)()

		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return failf(stderr, 1, "listen: %v", err)
		}
		fmt.Fprintf(stdout, "hetkg ps: shard %d/%d serving %d rows on %s (dataset=%s scale=%s seed=%d)\n",
			*machine, rc.Machines, shard.NumRows(), l.Addr(), rc.Dataset, rc.Scale, rc.Seed)
		if acc.Coordinator != nil {
			timeout := *wTimeout
			if timeout <= 0 {
				timeout = 3 * *hbEvery
			}
			fmt.Fprintf(stdout, "hetkg ps: coordinating %d partitions (heartbeat %v, worker timeout %v)\n",
				rc.Machines, *hbEvery, timeout)
		}

		// Drain: close the listener (stops accepting), wait up to -grace for
		// trainer connections to finish, force-close stragglers.
		err = serve(func() error { acc.Serve(l, shard); return nil }, func(grace time.Duration) {
			fmt.Fprintln(stdout, "hetkg ps: shutting down, draining connections")
			l.Close()
			acc.Shutdown(grace)
		})
		if err != nil {
			return failf(stderr, 1, "hetkg ps: %v", err)
		}
		return 0
	}
}
