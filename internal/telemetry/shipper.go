package telemetry

import (
	"time"

	"hetkg/internal/metrics"
)

// DefaultShipEvery is the default report cadence of a Shipper.
const DefaultShipEvery = 2 * time.Second

// Shipper periodically snapshots a metrics registry and ships the result
// to the coordinator through a Sender. It is the telemetry loop of
// processes with no heartbeat to piggyback on (hetkg ps shards,
// hetkg serve replicas); elastic workers instead attach a report to every
// membership heartbeat.
type Shipper struct {
	role, label string
	snap        func() metrics.Snapshot
	send        Sender
	every       time.Duration
	logf        func(format string, args ...any)

	seq  int64
	stop chan struct{}
	done chan struct{}
}

// NewShipper builds a Shipper that ships snap() (typically
// Registry.Snapshot) through send every interval (DefaultShipEvery when
// every <= 0). logf may be nil. Call Start to begin shipping.
func NewShipper(role, label string, snap func() metrics.Snapshot, send Sender, every time.Duration, logf func(format string, args ...any)) *Shipper {
	if every <= 0 {
		every = DefaultShipEvery
	}
	return &Shipper{
		role:  role,
		label: label,
		snap:  snap,
		send:  send,
		every: every,
		logf:  logf,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the shipping loop. One immediate report is sent so the
// fleet view lists the process before the first full interval elapses.
func (s *Shipper) Start() {
	go func() {
		defer close(s.done)
		s.ship()
		t := time.NewTicker(s.every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ship()
			}
		}
	}()
}

// Stop ends the loop, ships one final report (so the aggregator sees the
// process's last counters), and waits for the goroutine to exit.
func (s *Shipper) Stop() {
	close(s.stop)
	<-s.done
	s.ship()
}

// ship sends one report; errors are logged and swallowed — telemetry is
// best effort and must never take a shard down.
func (s *Shipper) ship() {
	s.seq++
	rep := Report{Role: s.role, Label: s.label, Seq: s.seq, Metrics: s.snap()}
	if err := s.send.SendTelemetry(rep); err != nil && s.logf != nil {
		s.logf("telemetry: ship failed: %v", err)
	}
}
