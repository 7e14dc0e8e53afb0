// Multi-worker: the distributed substrate up close. This example
//
//  1. runs the same workload on 1 vs 4 simulated machines for all three
//     systems and prints the computation/communication breakdown (the
//     paper's Table I / Fig. 7 story), and
//  2. stands up real parameter-server shards on TCP sockets, connects a
//     client through the wire protocol, and does a pull → gradient push →
//     pull round trip — the same code path a true multi-process deployment
//     would use.
//
// Run with:
//
//	go run ./examples/multiworker
package main

import (
	"fmt"
	"log"
	"net"

	"hetkg"
	"hetkg/internal/opt"
	"hetkg/internal/ps"
)

func main() {
	fmt.Println("== 1 vs 4 machines: where does the time go? ==")
	fmt.Println("system    machines  comp     comm     comm%")
	for _, sys := range []hetkg.System{hetkg.SystemPBG, hetkg.SystemDGLKE, hetkg.SystemHETKGD} {
		for _, machines := range []int{1, 4} {
			res, err := hetkg.Run(hetkg.RunConfig{
				Dataset:   "fb15k",
				Scale:     hetkg.ScaleTiny,
				System:    sys,
				ModelName: "transe",
				Dim:       64,
				BatchSize: 128,
				Machines:  machines,
				Epochs:    2,
				EvalEvery: -1,
				Seed:      5,
			})
			if err != nil {
				log.Fatal(err)
			}
			frac := 0.0
			if res.Total() > 0 {
				frac = 100 * float64(res.Comm) / float64(res.Total())
			}
			fmt.Printf("%-9s %-9d %-8v %-8v %.0f%%\n",
				res.System, machines, res.Comp.Round(1e6), res.Comm.Round(1e6), frac)
		}
	}

	fmt.Println("\n== the parameter server over real TCP ==")
	// Build a 2-shard cluster and expose each shard on a loopback socket.
	cluster, err := ps.NewCluster(ps.ClusterConfig{
		NumMachines:  2,
		EntityPart:   []int32{0, 1, 0, 1, 0, 1, 0, 1},
		NumRelations: 3,
		EntityDim:    8,
		RelationDim:  8,
		NewOptimizer: func() opt.Optimizer { return opt.NewAdaGrad(0.1, 1e-10) },
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	var addrs []string
	for _, srv := range cluster.Servers {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		addrs = append(addrs, l.Addr().String())
		go ps.ServeTCP(l, srv)
	}
	fmt.Printf("shards listening on %v\n", addrs)

	tr, err := ps.DialTCPLink(addrs, ps.ProfileFP32, ps.LinkConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	client, err := ps.NewClient(0, cluster, tr, nil)
	if err != nil {
		log.Fatal(err)
	}

	keys := []ps.Key{ps.EntityKey(2), ps.EntityKey(3), ps.RelationKey(1)}
	rows := make([][]float32, len(keys))
	for i, k := range keys {
		rows[i] = make([]float32, client.Width(k))
	}
	if err := client.PullRows(keys, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pulled %v over the wire; e:2 starts %.4f\n", keys, rows[0][0])

	grad := make([]float32, 8)
	grad[0] = 1 // one AdaGrad step on the first coordinate
	if err := client.PushRows(keys[:1], [][]float32{grad}); err != nil {
		log.Fatal(err)
	}
	if err := client.PullRows(keys[:1], rows[:1]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after pushing a gradient: e:2 starts %.4f (server applied AdaGrad)\n", rows[0][0])
}
