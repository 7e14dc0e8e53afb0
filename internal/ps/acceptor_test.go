package ps

import (
	"errors"
	"net"
	"testing"
	"time"

	"hetkg/internal/metrics"
)

// TestAcceptorShutdownDrains covers the graceful path: the client closes
// its connection, so Shutdown returns well before the grace deadline.
func TestAcceptorShutdownDrains(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var a Acceptor
	served := make(chan struct{})
	go func() {
		a.Serve(l, c.Servers[0])
		close(served)
	}()

	tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatalf("DialTCPLink: %v", err)
	}
	cl, _ := NewClient(0, c, tr, nil)
	dst := make(map[Key][]float32)
	if err := cl.Pull([]Key{EntityKey(0)}, dst); err != nil {
		t.Fatalf("Pull: %v", err)
	}

	l.Close()
	tr.Close() // peer closes: handler sees EOF, drain completes
	start := time.Now()
	a.Shutdown(5 * time.Second)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown took %v with closed peer; want fast drain", d)
	}
	select {
	case <-served:
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after listener close")
	}
}

// TestAcceptorShutdownForceCloses covers the grace-expired path: a
// persistent client connection stays open, so Shutdown force-closes it
// after the grace period and the client's next request fails.
func TestAcceptorShutdownForceCloses(t *testing.T) {
	c := testCluster(t, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var a Acceptor
	go a.Serve(l, c.Servers[0])

	tr, err := DialTCPLink([]string{l.Addr().String()}, ProfileFP32, LinkConfig{})
	if err != nil {
		t.Fatalf("DialTCPLink: %v", err)
	}
	defer tr.Close()
	cl, _ := NewClient(0, c, tr, nil)
	dst := make(map[Key][]float32)
	if err := cl.Pull([]Key{EntityKey(0)}, dst); err != nil {
		t.Fatalf("Pull: %v", err)
	}

	l.Close()
	a.Shutdown(50 * time.Millisecond) // connection still open: force close
	if err := cl.Pull([]Key{EntityKey(0)}, dst); err == nil {
		t.Fatal("Pull succeeded after forced shutdown; want error")
	}
}

// handOffConn is a conn whose Write hands the bytes to the peer first and
// returns only once the test lets it; it then reports n bytes written.
type handOffConn struct {
	net.Conn
	delivered chan []byte
	release   chan struct{}
	n         int
}

func (c *handOffConn) Write(p []byte) (int, error) {
	c.delivered <- p
	<-c.release
	if c.n < len(p) {
		return c.n, errors.New("short write")
	}
	return c.n, nil
}

// TestCountingConnCountsBeforeThePeerReads: a shard's ps.tcp.tx_bytes
// already counts a reply once its peer holds it, before Write returns, and
// a short write counts only the bytes it sent.
func TestCountingConnCountsBeforeThePeerReads(t *testing.T) {
	for _, sent := range []int{5, 2} {
		inner := &handOffConn{delivered: make(chan []byte), release: make(chan struct{}), n: sent}
		tx := metrics.NewRegistry().Counter(metrics.MPSTCPTxBytes)
		c := &countingConn{Conn: inner, tx: tx}
		done := make(chan struct{})
		go func() {
			c.Write([]byte("reply"))
			close(done)
		}()
		p := <-inner.delivered
		if got := tx.Value(); got != int64(len(p)) {
			t.Errorf("the peer holds %d bytes, tx_bytes reads %d", len(p), got)
		}
		close(inner.release)
		<-done
		if got := tx.Value(); got != int64(sent) {
			t.Errorf("a write of %d of 5 bytes: tx_bytes reads %d", sent, got)
		}
	}
}
