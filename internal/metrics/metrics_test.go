package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Errorf("Value after Reset = %d, want 0", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("Value = %d, want 8000", c.Value())
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Errorf("empty Ratio = %v, want 0", r.Value())
	}
	r.Hit()
	r.Hit()
	r.Miss()
	r.Miss()
	if got := r.Value(); got != 0.5 {
		t.Errorf("Ratio = %v, want 0.5", got)
	}
	r.Reset()
	if r.Value() != 0 || r.Total.Value() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEpochStatTotal(t *testing.T) {
	e := EpochStat{Comp: time.Second, Comm: 2 * time.Second}
	if e.Total() != 3*time.Second {
		t.Errorf("Total = %v, want 3s", e.Total())
	}
}
