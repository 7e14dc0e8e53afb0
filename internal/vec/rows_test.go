package vec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var rowsKernels = []struct {
	name string
	rows func(out, q, rows []float32)
	one  func(a, b []float32) float32
}{
	{"DotRows", DotRows, Dot},
	{"L1DistRows", L1DistRows, L1Dist},
	{"SquaredL2DistRows", SquaredL2DistRows, SquaredL2Dist},
}

// specialFloats are the values whose bits a kernel most easily gets wrong:
// signed zeros and infinities, NaNs of either sign (quiet and signalling)
// and subnormals.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7F800001), math.Float32frombits(0xFF800001),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807FFFFF),
}

// onAndOff runs f with the block kernels off and, where this CPU has them,
// on: both paths answer to one contract.
func onAndOff(t testing.TB, f func(path string)) {
	t.Helper()
	has := blockKernels
	defer func() { blockKernels = has }()
	blockKernels = false
	f("go")
	if has {
		blockKernels = true
		f("block")
	}
}

// checkRows runs every *Rows kernel over n rows and fails unless out[k]
// carries the bits the per-row function returns for row k. out starts as a
// NaN no kernel computes, so a row left unwritten fails too.
func checkRows(t testing.TB, label string, n int, q, rows []float32) {
	t.Helper()
	d := len(q)
	out := make([]float32, n)
	for _, kn := range rowsKernels {
		for k := range out {
			out[k] = math.Float32frombits(0x7FC0DEAD)
		}
		kn.rows(out, q, rows)
		for k := range out {
			want := kn.one(q, rows[k*d:(k+1)*d])
			if math.Float32bits(out[k]) != math.Float32bits(want) {
				t.Fatalf("%s %s row %d: %v (%#08x), per-row %v (%#08x)",
					kn.name, label, k, out[k], math.Float32bits(out[k]), want, math.Float32bits(want))
			}
		}
	}
}

// TestRowsKernelsMatchPerRowBitForBit is the kernels' whole contract: for
// widths and row counts on and off the four-row tile and the eight-row
// block, on the block kernels and on the Go kernels, out[k] carries the
// bits the per-row function returns for row k — also when rows or the query
// hold special values, and when the query and the rows start one float past
// the start of their allocation.
func TestRowsKernelsMatchPerRowBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(x []float32, dirty float64) {
		for i := range x {
			x[i] = rng.Float32()*2 - 1
		}
		if len(x) > 0 && rng.Float64() < dirty {
			x[rng.Intn(len(x))] = specialFloats[rng.Intn(len(specialFloats))]
		}
	}
	for _, d := range []int{0, 1, 3, 4, 7, 8, 16, 24, 64, 128, 130} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 257, 263, 1000} {
			for _, dirtyQuery := range []float64{0, 1} {
				for _, skew := range []int{0, 1} {
					q := make([]float32, skew+d)[skew:]
					fill(q, dirtyQuery)
					rows := make([]float32, skew+n*d)[skew:]
					for k := 0; k < n; k++ {
						fill(rows[k*d:(k+1)*d], 0.3)
					}
					onAndOff(t, func(path string) {
						checkRows(t, fmt.Sprintf("%s d=%d rows=%d dirtyQuery=%v skew=%d", path, d, n, dirtyQuery == 1, skew), n, q, rows)
					})
				}
			}
		}
	}
}

// TestRowsKernelsSpecialsAtEveryBlockPosition puts each special value at
// every lane and column of a block, in the rows and in the query, one at a
// time, so no position of the transpose goes unchecked.
func TestRowsKernelsSpecialsAtEveryBlockPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, d := range []int{8, 16, 24} {
		const n = 9 // one block and a row for the Go kernels
		q, rows := make([]float32, d), make([]float32, n*d)
		for i := range q {
			q[i] = rng.Float32()*2 - 1
		}
		for i := range rows {
			rows[i] = rng.Float32()*2 - 1
		}
		onAndOff(t, func(path string) {
			for _, v := range specialFloats {
				for c := 0; c < d; c++ {
					for lane := 0; lane < n; lane++ {
						i := lane*d + c
						was := rows[i]
						rows[i] = v
						checkRows(t, fmt.Sprintf("%s d=%d row %d col %d = %#08x", path, d, lane, c, math.Float32bits(v)), n, q, rows)
						rows[i] = was
					}
					was := q[c]
					q[c] = v
					checkRows(t, fmt.Sprintf("%s d=%d query col %d = %#08x", path, d, c, math.Float32bits(v)), n, q, rows)
					q[c] = was
				}
			}
		})
	}
}

// FuzzRowsKernels decodes a width (every other input a multiple of 8), a
// row count and the raw bits of the query and rows, and holds all three
// kernels to their per-row functions on both paths.
func FuzzRowsKernels(f *testing.F) {
	f.Add([]byte{16, 9, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0xff, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{1, 17, 0x3f, 0x80, 0x00, 0x00})
	f.Add([]byte{48, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := int(data[0]>>1) % 41
		if data[0]&1 == 0 {
			d &^= 7
		}
		n := int(data[1]) % 41
		raw := data[2:]
		word := func(i int) float32 {
			if len(raw) == 0 {
				return 0
			}
			var b [4]byte
			for j := range b {
				b[j] = raw[(4*i+j)%len(raw)]
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
		}
		q, rows := make([]float32, d), make([]float32, n*d)
		for i := range q {
			q[i] = word(i)
		}
		for i := range rows {
			rows[i] = word(d + i)
		}
		onAndOff(t, func(path string) { checkRows(t, fmt.Sprintf("%s d=%d rows=%d", path, d, n), n, q, rows) })
	})
}

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
