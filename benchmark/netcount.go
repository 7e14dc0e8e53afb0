package main

import (
	"net"
	"sync/atomic"
)

// wireCount is the real socket traffic seen from the server side of a
// listener: rx is what clients sent, tx what the server wrote back.
type wireCount struct {
	rx, tx atomic.Int64
}

func (w *wireCount) total() int64 { return w.rx.Load() + w.tx.Load() }

// countingListener counts every byte read from and written to the
// connections it accepts. The benchmark owns the count because the
// program's worker-side ps.tcp.tx_bytes / rx_bytes counters are only fed by
// shards instrumented in the same registry, and read 0 on the loopback path.
type countingListener struct {
	net.Listener
	count *wireCount
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, count: l.count}, nil
}

type countingConn struct {
	net.Conn
	count *wireCount
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count.rx.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count.tx.Add(int64(n))
	return n, err
}
