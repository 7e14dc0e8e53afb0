package partition

import (
	"fmt"
	"testing"

	"hetkg/internal/dataset"
)

// BenchmarkPartitioner partitions at the shapes the tcp-* benchmark
// workloads build their shards from: tcp-wide (fb15k, 2 shards),
// tcp-chatty (wn18, 4 shards) and tcp-hotcache (freebase86m, 2 shards),
// all at small scale.
func BenchmarkPartitioner(b *testing.B) {
	for _, c := range []struct {
		dataset string
		k       int
	}{{"fb15k", 2}, {"wn18", 4}, {"freebase86m", 2}} {
		g, _ := dataset.ByName(c.dataset, dataset.Small, 42)
		b.Run(fmt.Sprintf("%s/k=%d", c.dataset, c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&MetisLike{Seed: 42}).Partition(g, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
