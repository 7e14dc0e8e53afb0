package train

import (
	"net"
	"testing"

	"hetkg/internal/ps"
)

// TestTrainingOverRealTCP runs the full HET-KG training loop — prefetch,
// cache builds, staleness refreshes, per-batch pulls and pushes — through
// real loopback sockets instead of the in-process transport, proving the
// wire protocol carries the entire workload, not just single calls.
func TestTrainingOverRealTCP(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Epochs = 1
	cfg.EvalEvery = -1

	var listeners []net.Listener
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	var transports []*ps.LinkTransport
	defer func() {
		for _, tr := range transports {
			tr.Close()
		}
	}()
	cfg.NewTransport = func(c *ps.Cluster) (ps.Transport, error) {
		var addrs []string
		for _, srv := range c.Servers {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			listeners = append(listeners, l)
			addrs = append(addrs, l.Addr().String())
			go ps.ServeTCP(l, srv)
		}
		tr, err := ps.DialTCPLink(addrs, ps.ProfileFP32, ps.LinkConfig{})
		if err != nil {
			return nil, err
		}
		transports = append(transports, tr)
		return tr, nil
	}

	tcpRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("HET-KG over TCP: %v", err)
	}
	if tcpRes.HitRatio <= 0 {
		t.Error("cache never hit over TCP")
	}

	// The exact same run over the in-process transport must produce
	// identical embeddings: the transport is pure plumbing.
	inprocCfg := testConfig(t, 2)
	inprocCfg.Epochs = 1
	inprocCfg.EvalEvery = -1
	inprocRes, err := Run(inprocCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tcpRes.Entities.Data {
		if tcpRes.Entities.Data[i] != inprocRes.Entities.Data[i] {
			t.Fatalf("TCP and in-process runs diverge at entity datum %d", i)
		}
	}
}
