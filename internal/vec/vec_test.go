package vec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func approxEq(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func TestDot(t *testing.T) {
	tests := []struct {
		a, b []float32
		want float32
	}{
		{nil, nil, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{-1, 2}, []float32{3, -4}, -11},
	}
	for _, tc := range tests {
		if got := Dot(tc.a, tc.b); !approxEq(got, tc.want, 1e-6) {
			t.Errorf("Dot(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestAddSubInverse(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		a := sanitize(raw)
		b := make([]float32, len(a))
		for i := range b {
			b[i] = a[len(a)-1-i]
		}
		sum := make([]float32, len(a))
		Add(sum, a, b)
		back := make([]float32, len(a))
		Sub(back, sum, b)
		for i := range a {
			if !approxEq(back[i], a[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAxpy(t *testing.T) {
	dst := []float32{1, 2, 3}
	Axpy(dst, 2, []float32{10, 20, 30})
	want := []float32{21, 42, 63}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", dst, want)
		}
	}
}

func TestDotAxpyMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		alpha := rng.Float32()*4 - 2
		dst := randSliceFrom(rng, n)
		x := randSliceFrom(rng, n)
		y := randSliceFrom(rng, n)
		wantDst := make([]float32, n)
		copy(wantDst, dst)
		Axpy(wantDst, alpha, x)
		wantDot := Dot(x, y)
		got := DotAxpy(dst, alpha, x, y)
		if got != wantDot {
			t.Fatalf("DotAxpy dot = %v, want %v", got, wantDot)
		}
		for i := range dst {
			if dst[i] != wantDst[i] {
				t.Fatalf("DotAxpy dst[%d] = %v, want %v", i, dst[i], wantDst[i])
			}
		}
	}
}

func TestDotAxpyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	DotAxpy(make([]float32, 2), 1, make([]float32, 3), make([]float32, 3))
}

func TestDot2MatchesTwoDots(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		a := randSliceFrom(rng, n)
		x := randSliceFrom(rng, n)
		y := randSliceFrom(rng, n)
		ax, ay := Dot2(a, x, y)
		if wx := Dot(a, x); ax != wx {
			t.Fatalf("Dot2 ax = %v, want %v", ax, wx)
		}
		if wy := Dot(a, y); ay != wy {
			t.Fatalf("Dot2 ay = %v, want %v", ay, wy)
		}
	}
}

func randSliceFrom(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = rng.Float32()*2 - 1
	}
	return out
}

func TestNorms(t *testing.T) {
	x := []float32{3, -4}
	if got := L2(x); !approxEq(got, 5, 1e-6) {
		t.Errorf("L2 = %v, want 5", got)
	}
	if got := SquaredL2(x); got != 25 {
		t.Errorf("SquaredL2 = %v, want 25", got)
	}
}

func TestDistances(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 6, 3}
	if got := L1Dist(a, b); got != 7 {
		t.Errorf("L1Dist = %v, want 7", got)
	}
	if got := SquaredL2Dist(a, b); got != 25 {
		t.Errorf("SquaredL2Dist = %v, want 25", got)
	}
}

// Property: the triangle inequality holds for the l2 distance,
// sqrt(SquaredL2Dist) — the distance knn's L2 metric ranks by.
func TestL2DistTriangleInequality(t *testing.T) {
	dist := func(a, b []float32) float64 { return math.Sqrt(float64(SquaredL2Dist(a, b))) }
	f := func(ra, rb, rc [8]float32) bool {
		a := sanitize(ra[:])
		b := sanitize(rb[:])
		c := sanitize(rc[:])
		ab, bc, ac := dist(a, b), dist(b, c), dist(a, c)
		return ac <= ab+bc+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	x := []float32{3, 4}
	Normalize(x)
	if !approxEq(L2(x), 1, 1e-6) {
		t.Errorf("Normalize produced norm %v, want 1", L2(x))
	}
	zero := []float32{0, 0}
	Normalize(zero) // must not NaN
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("Normalize modified zero vector: %v", zero)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float32{1, -2, 0}) {
		t.Error("finite vector reported non-finite")
	}
	if IsFinite([]float32{1, float32(math.NaN())}) {
		t.Error("NaN not detected")
	}
	if IsFinite([]float32{float32(math.Inf(1))}) {
		t.Error("Inf not detected")
	}
}

func TestMul(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	dst := make([]float32, 3)
	Mul(dst, a, b)
	want := []float32{4, 10, 18}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("Mul result %v, want %v", dst, want)
		}
	}
}

func TestMatrixRowsShareStorage(t *testing.T) {
	m := NewMatrix(3, 4)
	r := m.Row(1)
	r[0] = 42
	if m.Data[4] != 42 {
		t.Error("Row does not share storage with Data")
	}
	// Full-slice expression must prevent append from clobbering row 2.
	r = append(r, 99)
	if m.Data[8] == 99 {
		t.Error("append to a Row slice overwrote the next row")
	}
	_ = r
}

func TestMatrixInitKGE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(10, 16)
	m.InitKGE(rng)
	for i := 0; i < m.Rows; i++ {
		if n := L2(m.Row(i)); !approxEq(n, 1, 1e-5) {
			t.Errorf("row %d has norm %v after InitKGE, want 1", i, n)
		}
	}
}

func TestMatrixInitUniformBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(100, 8)
	m.InitUniform(rng, 0.25)
	for i, v := range m.Data {
		if v < -0.25 || v > 0.25 {
			t.Fatalf("Data[%d] = %v outside [-0.25, 0.25]", i, v)
		}
	}
}

// TestMatrixSerializationRoundTrip covers a table smaller than one read
// chunk and one that makes ReadMatrix grow its table twice, followed by
// trailing bytes that must stay unread.
func TestMatrixSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range [][2]int{{7, 5}, {1000, 50}} {
		m := NewMatrix(shape[0], shape[1])
		m.InitXavier(rng)
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		buf.WriteString("next")
		got, err := ReadMatrix(&buf)
		if err != nil {
			t.Fatalf("ReadMatrix: %v", err)
		}
		if got.Rows != m.Rows || got.Dim != m.Dim || len(got.Data) != cap(got.Data) {
			t.Fatalf("shape mismatch: got %dx%d (cap %d), want %dx%d", got.Rows, got.Dim, cap(got.Data), m.Rows, m.Dim)
		}
		for i := range m.Data {
			if got.Data[i] != m.Data[i] {
				t.Fatalf("%dx%d: Data[%d] = %v, want %v", m.Rows, m.Dim, i, got.Data[i], m.Data[i])
			}
		}
		if buf.String() != "next" {
			t.Errorf("%dx%d: ReadMatrix left %q unread, want %q", m.Rows, m.Dim, buf.String(), "next")
		}
	}
}

func TestReadMatrixRejectsGarbage(t *testing.T) {
	if _, err := ReadMatrix(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short input accepted")
	}
	var buf bytes.Buffer
	m := NewMatrix(2, 2)
	_, _ = m.WriteTo(&buf)
	b := buf.Bytes()
	b[8] = 0xFF // corrupt dim into something huge
	b[15] = 0x7F
	if _, err := ReadMatrix(bytes.NewReader(b)); err == nil {
		t.Error("implausible shape accepted")
	}
}

// TestReadMatrixAllocatesWhatTheInputHolds gives ReadMatrix a header that
// declares a 2^20 × 2^20 table (4 TiB of floats, inside the shape bound) and
// eight bytes of data. It must fail at the end of the input having allocated
// about what the input held, not what the header claimed.
func TestReadMatrixAllocatesWhatTheInputHolds(t *testing.T) {
	b := binary.LittleEndian.AppendUint64(nil, 1<<20)
	b = binary.LittleEndian.AppendUint64(b, 1<<20)
	b = append(b, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadMatrix(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ReadMatrix of a truncated 2^20 x 2^20 table: error %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("ReadMatrix allocated %d bytes for a %d-byte input", alloc, len(b))
	}
}

func TestMatrixBytes(t *testing.T) {
	m := NewMatrix(3, 10)
	if got := m.Bytes(); got != 120 {
		t.Errorf("Bytes = %d, want 120", got)
	}
}

// sanitize replaces NaN/Inf and huge magnitudes from quick with small finite
// values so float comparisons stay meaningful.
func sanitize(raw []float32) []float32 {
	out := make([]float32, len(raw))
	for i, v := range raw {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			out[i] = 0
			continue
		}
		for f > 100 || f < -100 {
			f /= 1e6
		}
		out[i] = float32(f)
	}
	return out
}

// TestIsFiniteByExponentBits holds IsFinite's exponent-bits test to
// math.IsNaN and math.IsInf on every exponent, both signs, and mantissas at
// both ends and in between, the value placed first, inside and last.
func TestIsFiniteByExponentBits(t *testing.T) {
	for e := uint32(0); e < 256; e++ {
		for _, mant := range []uint32{0, 1, 0x400000, 0x7fffff} {
			for _, sign := range []uint32{0, 1 << 31} {
				v := math.Float32frombits(sign | e<<23 | mant)
				want := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
				for _, x := range [][]float32{{v}, {1, v, 2}, {0, 0, v}} {
					if got := IsFinite(x); got != want {
						t.Fatalf("IsFinite(%v) = %v, want %v (bits %#08x)", x, got, want, math.Float32bits(v))
					}
				}
			}
		}
	}
}
