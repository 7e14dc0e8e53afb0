package train

import (
	"testing"
	"time"
)

func pc(a, b int32, d time.Duration) pairCost {
	return pairCost{pair: [2]int32{a, b}, comp: d / 2, comm: d - d/2}
}

func TestSchedulePairsSerialOnOneWorker(t *testing.T) {
	costs := []pairCost{pc(0, 1, time.Second), pc(2, 3, time.Second), pc(0, 2, time.Second)}
	comp, comm := schedulePairs(costs, 1)
	if total := comp + comm; total != 3*time.Second {
		t.Errorf("1-worker makespan = %v, want 3s (strictly serial)", total)
	}
}

func TestSchedulePairsDisjointPairsOverlap(t *testing.T) {
	// (0,1) and (2,3) share no bucket: two workers run them in parallel.
	costs := []pairCost{pc(0, 1, time.Second), pc(2, 3, time.Second)}
	comp, comm := schedulePairs(costs, 2)
	if total := comp + comm; total != time.Second {
		t.Errorf("disjoint pairs makespan = %v, want 1s", total)
	}
}

func TestSchedulePairsBucketConflictSerializes(t *testing.T) {
	// (0,1) and (1,2) share bucket 1: the lock server forbids overlap even
	// with idle workers — PBG's documented scalability ceiling.
	costs := []pairCost{pc(0, 1, time.Second), pc(1, 2, time.Second)}
	comp, comm := schedulePairs(costs, 4)
	if total := comp + comm; total != 2*time.Second {
		t.Errorf("conflicting pairs makespan = %v, want 2s", total)
	}
}

func TestSchedulePairsPreservesCompCommMix(t *testing.T) {
	costs := []pairCost{
		{pair: [2]int32{0, 1}, comp: 3 * time.Second, comm: time.Second},
	}
	comp, comm := schedulePairs(costs, 2)
	if comp != 3*time.Second || comm != time.Second {
		t.Errorf("mix distorted: comp %v comm %v, want 3s/1s", comp, comm)
	}
}

func TestSchedulePairsEmptyAndZeroWorkers(t *testing.T) {
	if comp, comm := schedulePairs(nil, 2); comp != 0 || comm != 0 {
		t.Error("empty schedule should be zero time")
	}
	// numWorkers < 1 clamps to 1 instead of crashing.
	costs := []pairCost{pc(0, 1, time.Second)}
	if comp, comm := schedulePairs(costs, 0); comp+comm != time.Second {
		t.Errorf("clamped schedule = %v", comp+comm)
	}
}

// Tighter staleness bounds must lower the measured hit ratio (every expiry
// is a refresh miss) — the mechanism behind Fig. 8(b).
func TestTighterStalenessLowersHitRatio(t *testing.T) {
	ratios := map[int]float64{}
	for _, p := range []int{1, 4, 32} {
		cfg := testConfig(t, 2)
		cfg.Epochs = 1
		cfg.EvalEvery = -1
		cfg.CacheSyncEvery = p
		res, err := cfg.run()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		ratios[p] = res.HitRatio
	}
	t.Logf("hit ratios: P=1 %.3f, P=4 %.3f, P=32 %.3f", ratios[1], ratios[4], ratios[32])
	if !(ratios[1] < ratios[4] && ratios[4] < ratios[32]) {
		t.Errorf("hit ratio not monotone in P: %v", ratios)
	}
}
