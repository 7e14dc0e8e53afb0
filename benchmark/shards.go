package main

import (
	"net"
	"sync"

	"hetkg/internal/ps"
)

// shardHost serves parameter-server shards on loopback TCP listeners, one
// per machine, the way cmd/hetkg-ps does, and counts the real bytes that
// cross them.
type shardHost struct {
	addrs     []string
	count     *wireCount
	listeners []net.Listener
	acceptors []*ps.Acceptor
	serving   sync.WaitGroup
}

// hostShards starts one accept loop per shard on 127.0.0.1:0.
func hostShards(shards []*ps.Server) (*shardHost, error) {
	h := &shardHost{count: &wireCount{}}
	for _, s := range shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		acc := &ps.Acceptor{}
		h.listeners = append(h.listeners, l)
		h.acceptors = append(h.acceptors, acc)
		h.addrs = append(h.addrs, l.Addr().String())
		h.serving.Add(1)
		go func(s *ps.Server) {
			defer h.serving.Done()
			acc.Serve(countingListener{Listener: l, count: h.count}, s)
		}(s)
	}
	return h, nil
}

// close stops accepting, force-closes the trainer's persistent connections
// (hetkg.Run does not close its transport) and waits for every accept loop
// and connection handler to return.
func (h *shardHost) close() {
	for _, l := range h.listeners {
		l.Close()
	}
	h.serving.Wait()
	for _, acc := range h.acceptors {
		acc.Shutdown(0)
	}
}
