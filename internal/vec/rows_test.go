package vec

import (
	"math"
	"math/rand"
	"testing"
)

func TestRowsKernelsPanicOnRaggedRun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("7 floats accepted as 2 rows of width 4")
		}
	}()
	DotRows(make([]float32, 2), make([]float32, 4), make([]float32, 7))
}

func TestAbs(t *testing.T) {
	for _, c := range [][2]float32{
		{1.5, 1.5}, {-1.5, 1.5}, {0, 0}, {float32(math.Copysign(0, -1)), 0},
		{float32(math.Inf(-1)), float32(math.Inf(1))},
	} {
		if got := Abs(c[0]); math.Float32bits(got) != math.Float32bits(c[1]) {
			t.Errorf("Abs(%v) = %v (%#08x), want %v", c[0], got, math.Float32bits(got), c[1])
		}
	}
	if got := Abs(math.Float32frombits(0xFFC00000)); got == got {
		t.Errorf("Abs(NaN) = %v, want NaN", got)
	}
}

// BenchmarkRows measures each kernel over a 20 000×64 table in 256-row
// runs, next to the per-row loop it replaces.
func BenchmarkRows(b *testing.B) {
	const rows, dim, tile = 20000, 64, 256
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(rows, dim)
	m.InitKGE(rng)
	q := m.Row(0)
	out := make([]float32, tile)
	perRow := func(one func(a, b []float32) float32) func(out, q, rows []float32) {
		return func(out, q, rows []float32) {
			for k := range out {
				out[k] = one(q, rows[k*dim:(k+1)*dim])
			}
		}
	}
	for _, c := range []struct {
		name string
		fn   func(out, q, rows []float32)
	}{
		{"DotRows", DotRows}, {"Dot", perRow(Dot)},
		{"L1DistRows", L1DistRows}, {"L1Dist", perRow(L1Dist)},
		{"SquaredL2DistRows", SquaredL2DistRows}, {"SquaredL2Dist", perRow(SquaredL2Dist)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < rows; lo += tile {
					hi := min(lo+tile, rows)
					c.fn(out[:hi-lo], q, m.Data[lo*dim:hi*dim])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
