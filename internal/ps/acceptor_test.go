package ps

import (
	"net"
	"testing"
	"time"
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
