package sampler_test

import (
	"math/rand"
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
	"hetkg/internal/sampler"
)

// BenchmarkSamplerNext times one filtered batch at two benchmark workloads'
// shapes: inproc-compute's (fb15k small, b_p 128, b_n 32, chunks of 8) and
// tcp-hotcache's (freebase86m small, b_p 128, b_n 8, chunks of 8), the
// filter being the whole split's triples as in training.
func BenchmarkSamplerNext(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *kg.Graph
		neg  int
	}{
		{"inproc-compute", dataset.FB15kLike(dataset.Small, 42), 32},
		{"tcp-hotcache", dataset.Freebase86mLike(dataset.Small, 42), 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			sp, err := kg.SplitTriples(c.g, rand.New(rand.NewSource(59)), 0.05, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			s, err := sampler.New(sampler.Config{
				BatchSize: 128, NegPerPos: c.neg, ChunkSize: 8,
				NumEntity: c.g.NumEntity, Filter: sp.AllTriples(),
			}, sp.Train, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Next()
			}
		})
	}
}
