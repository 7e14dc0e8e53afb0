package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegree(t *testing.T) {
	if got := Degree(3); got != 3 {
		t.Errorf("Degree(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Degree(0); got != want {
		t.Errorf("Degree(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Degree(-5); got != want {
		t.Errorf("Degree(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestShardsCoverAndBalance(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 4}, {1, 4}, {5, 4}, {8, 4}, {100, 32}, {31, 32}, {7, 1}, {10, -1},
	} {
		shards := Shards(tc.n, tc.want)
		if tc.n == 0 {
			if shards != nil {
				t.Errorf("Shards(0, %d) = %v, want nil", tc.want, shards)
			}
			continue
		}
		next := 0
		minLen, maxLen := tc.n, 0
		for _, r := range shards {
			if r.Begin != next {
				t.Fatalf("Shards(%d, %d): gap at %d (%v)", tc.n, tc.want, next, shards)
			}
			if r.Len() <= 0 {
				t.Fatalf("Shards(%d, %d): empty shard %v", tc.n, tc.want, r)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			next = r.End
		}
		if next != tc.n {
			t.Errorf("Shards(%d, %d) covers [0,%d)", tc.n, tc.want, next)
		}
		if maxLen-minLen > 1 {
			t.Errorf("Shards(%d, %d) unbalanced: min %d max %d", tc.n, tc.want, minLen, maxLen)
		}
	}
}

func TestShardsDegreeIndependent(t *testing.T) {
	// The same (n, want) must always give the same boundaries — the contract
	// the deterministic-merge design rests on.
	a := Shards(997, 32)
	b := Shards(997, 32)
	if len(a) != len(b) {
		t.Fatal("shard count varies")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, degree := range []int{1, 2, 4, 8} {
		n := 1000
		counts := make([]atomic.Int32, n)
		For(degree, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("degree %d: index %d ran %d times", degree, i, c)
			}
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	For(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	For(8, 1, func(i int) { ran = true })
	if !ran {
		t.Error("n=1 did not run")
	}
}

func TestMapOrdered(t *testing.T) {
	for _, degree := range []int{1, 4} {
		got := Map(degree, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("degree %d: Map[%d] = %d, want %d", degree, i, v, i*i)
			}
		}
	}
	if Map(4, 0, func(i int) int { return i }) != nil {
		t.Error("Map with n=0 not nil")
	}
}

// TestShardedAccumulationBitIdentical pins the core numeric contract: a
// float sum accumulated per-shard and merged in shard order gives identical
// bits whether the shards run on one goroutine or many.
func TestShardedAccumulationBitIdentical(t *testing.T) {
	n := 10007
	xs := make([]float32, n)
	seed := uint32(2463534242)
	for i := range xs {
		seed ^= seed << 13
		seed ^= seed >> 17
		seed ^= seed << 5
		xs[i] = float32(seed%1000)/999 - 0.5
	}
	sum := func(degree int) float32 {
		shards := Shards(n, 32)
		partial := make([]float32, len(shards))
		For(degree, len(shards), func(s int) {
			var acc float32
			for i := shards[s].Begin; i < shards[s].End; i++ {
				acc += xs[i]
			}
			partial[s] = acc
		})
		var total float32
		for _, p := range partial {
			total += p
		}
		return total
	}
	want := sum(1)
	for _, degree := range []int{2, 4, 8, 16} {
		if got := sum(degree); got != want {
			t.Fatalf("degree %d: sum %v != serial %v", degree, got, want)
		}
	}
}
