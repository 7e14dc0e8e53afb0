package kg_test

import (
	"testing"

	"hetkg/internal/dataset"
	"hetkg/internal/kg"
)

// BenchmarkNewTripleSet times building the filter AllTriples returns, over
// a whole preset graph's triples.
func BenchmarkNewTripleSet(b *testing.B) {
	for _, g := range []*kg.Graph{
		dataset.FB15kLike(dataset.Small, 42),
		dataset.Freebase86mLike(dataset.Small, 42),
	} {
		b.Run(g.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kg.NewTripleSet(g.Triples)
			}
		})
	}
}
