package opt

import (
	"math"
	"testing"
)

func TestSGDApply(t *testing.T) {
	o := &SGD{LR: 0.5}
	row := []float32{1, 2}
	o.Apply(0, row, []float32{2, -2})
	if row[0] != 0 || row[1] != 3 {
		t.Errorf("SGD row = %v, want [0 3]", row)
	}
}

func TestAdaGradFirstStepIsUnitScaled(t *testing.T) {
	// With accumulated G = g², the first step is lr*g/|g| = lr*sign(g).
	o := NewAdaGrad(0.1, 0)
	row := []float32{0, 0}
	o.Apply(1, row, []float32{4, -0.25})
	if !approx(row[0], -0.1) || !approx(row[1], 0.1) {
		t.Errorf("first AdaGrad step = %v, want [-0.1 0.1]", row)
	}
}

func TestAdaGradStepsShrink(t *testing.T) {
	o := NewAdaGrad(0.1, 1e-10)
	row := []float32{0}
	prev := float32(0)
	var lastStep float32 = math.MaxFloat32
	for i := 0; i < 5; i++ {
		o.Apply(7, row, []float32{1})
		step := prev - row[0]
		if step <= 0 {
			t.Fatalf("step %d not a descent step: %v", i, step)
		}
		if step >= lastStep {
			t.Fatalf("step %d (%v) did not shrink from %v", i, step, lastStep)
		}
		lastStep = step
		prev = row[0]
	}
}

func TestAdaGradPerKeyState(t *testing.T) {
	o := NewAdaGrad(0.1, 1e-10)
	a := []float32{0}
	b := []float32{0}
	// Hammer key 1 so its accumulator grows.
	for i := 0; i < 100; i++ {
		o.Apply(1, a, []float32{1})
	}
	o.Apply(2, b, []float32{1})
	// A fresh key gets the full first step; the worn key's 101st step is tiny.
	before := a[0]
	o.Apply(1, a, []float32{1})
	wornStep := before - a[0]
	if freshStep := -b[0]; freshStep < 5*wornStep {
		t.Errorf("fresh step %v should dwarf worn step %v", freshStep, wornStep)
	}
	if o.StateRows() != 2 {
		t.Errorf("StateRows = %d, want 2", o.StateRows())
	}
}

// TestStateAllocatedOnFirstTouch holds the slot-indexed state tables to
// the map's meaning: only slots that were applied hold state, however far
// apart they lie.
func TestStateAllocatedOnFirstTouch(t *testing.T) {
	for _, o := range []interface {
		Optimizer
		StateRows() int
	}{NewAdaGrad(0.1, 1e-10), NewAdam(0.1)} {
		row := []float32{0, 0}
		o.Apply(5000, row, []float32{1, 1})
		o.Apply(3, row, []float32{1, 1})
		o.Apply(5000, row, []float32{1, 1})
		if n := o.StateRows(); n != 2 {
			t.Errorf("%s: StateRows = %d after touching slots 5000 and 3, want 2", o.Name(), n)
		}
		o.Reset()
		if n := o.StateRows(); n != 0 {
			t.Errorf("%s: StateRows after Reset = %d, want 0", o.Name(), n)
		}
	}
}

func TestAdaGradReset(t *testing.T) {
	o := NewAdaGrad(0.1, 1e-10)
	row := []float32{0}
	o.Apply(1, row, []float32{1})
	o.Reset()
	if o.StateRows() != 0 {
		t.Errorf("StateRows after Reset = %d, want 0", o.StateRows())
	}
}

func TestAdaGradWidthChangeResetsRowState(t *testing.T) {
	o := NewAdaGrad(0.1, 1e-10)
	row2 := []float32{0, 0}
	o.Apply(1, row2, []float32{1, 1})
	row3 := []float32{0, 0, 0}
	// Must not panic or index out of bounds when the same key shows up
	// with a different width (can happen across tests reusing keyspaces).
	o.Apply(1, row3, []float32{1, 1, 1})
	if row3[2] == 0 {
		t.Error("third coordinate not updated after width change")
	}
}

func TestNew(t *testing.T) {
	if o, err := New("adagrad", 0.1); err != nil || o.Name() != "adagrad" {
		t.Errorf("New(adagrad) = %v, %v", o, err)
	}
	if o, err := New("sgd", 0.1); err != nil || o.Name() != "sgd" {
		t.Errorf("New(sgd) = %v, %v", o, err)
	}
	if _, err := New("rmsprop", 0.1); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

func TestAdaGradConcurrentApply(t *testing.T) {
	// The PS applies gradients from many workers; per-key state creation
	// must be race-free. Run with -race in CI.
	o := NewAdaGrad(0.01, 1e-10)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			row := []float32{0, 0}
			for i := 0; i < 200; i++ {
				o.Apply(i%10, row, []float32{0.1, -0.1})
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if o.StateRows() != 10 {
		t.Errorf("StateRows = %d, want 10", o.StateRows())
	}
}

func approx(a, b float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-5
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, Adam's first step is ≈ lr·sign(g).
	o := NewAdam(0.05)
	row := []float32{0, 0}
	o.Apply(1, row, []float32{3, -0.2})
	if !approx(row[0], -0.05) || !approx(row[1], 0.05) {
		t.Errorf("first Adam step = %v, want [-0.05 0.05]", row)
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (x-3)² from 0: gradient 2(x-3).
	o := NewAdam(0.1)
	row := []float32{0}
	for i := 0; i < 600; i++ {
		o.Apply(1, row, []float32{2 * (row[0] - 3)})
	}
	if row[0] < 2.5 || row[0] > 3.5 {
		t.Errorf("Adam did not converge toward 3: %v", row[0])
	}
}

func TestAdamPerKeyStateAndReset(t *testing.T) {
	o := NewAdam(0.1)
	a, b := []float32{0}, []float32{0}
	o.Apply(1, a, []float32{1})
	o.Apply(2, b, []float32{1})
	if o.StateRows() != 2 {
		t.Errorf("StateRows = %d, want 2", o.StateRows())
	}
	o.Reset()
	if o.StateRows() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestNewAdamByName(t *testing.T) {
	if o, err := New("adam", 0.1); err != nil || o.Name() != "adam" {
		t.Errorf("New(adam) = %v, %v", o, err)
	}
}
