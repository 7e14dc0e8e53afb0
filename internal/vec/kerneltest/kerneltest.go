// Package kerneltest holds every assembly kernel in the module to one
// contract: an entry point that hands blocks to a kernel writes and returns
// the float32 bits it does with the kernels off (vec.SetKernels), or those
// of a reference the registration names. A kernel joins by registering its
// entry point as a Kernel in its package's tests; Run then drives it over
// widths, layouts and special values, and Fuzz over decoded fuzz inputs.
// Only tests import this package.
package kerneltest

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetkg/internal/vec"
)

// Specials are the values whose bits a kernel most easily gets wrong: both
// zeros and infinities, subnormals of both signs, quiet and signalling NaNs
// of both signs, and NaNs that carry payloads.
var Specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807fffff),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd00bad),
	math.Float32frombits(0xff812345),
}

// A Kernel adapts one kernel's public entry point to the harness.
type Kernel struct {
	Name string
	// Widths gives the floats of each operand at base width d and count n.
	// Operands the entry point writes come after those it reads, so that
	// under Overlapping each written one starts past what it reads.
	Widths func(d, n int) []int
	// Run calls the entry point on ops and returns what it returns; what it
	// writes into ops is compared too.
	Run func(c Case, ops [][]float32) []float32
	// Ref is the reference Run must match with the kernels off and on. If
	// it is nil, Run with the kernels off is the reference.
	Ref func(c Case, ops [][]float32) []float32
}

// A Layout says where a case's operands lie in the one buffer they are cut
// from.
type Layout int

const (
	Apart       Layout = iota // one after another, sharing no float
	Skewed                    // apart, the first one float past the allocation
	Aliased                   // all starting at the same float
	Overlapping               // each starting one float past the one before
	layouts
)

func (l Layout) String() string {
	return [...]string{"apart", "skewed", "aliased", "overlapping"}[l]
}

// A Case is one input: a base width D, a count N (of rows, where a kernel
// takes several), a layout, two scalars (dScore, or a learning rate and an
// epsilon) and the operand floats, repeated as far as the operands reach.
type Case struct {
	D, N    int
	Layout  Layout
	Scalars [2]float32
	Floats  []float32
}

func (c Case) String() string {
	return fmt.Sprintf("D=%d N=%d %v scalars %#08x %#08x", c.D, c.N, c.Layout,
		math.Float32bits(c.Scalars[0]), math.Float32bits(c.Scalars[1]))
}

// buffer returns c's operand floats for operands of the given widths and
// where each operand starts among them.
func (c Case) buffer(widths []int) (buf []float32, at []int) {
	at = make([]int, len(widths))
	size, next := 0, 0
	for i, w := range widths {
		switch c.Layout {
		case Aliased:
			at[i] = 0
		case Overlapping:
			at[i] = i
		default:
			at[i], next = next, next+w
		}
		size = max(size, at[i]+w)
	}
	buf = make([]float32, size)
	if len(c.Floats) > 0 {
		for i := range buf {
			buf[i] = c.Floats[i%len(c.Floats)]
		}
	}
	return buf, at
}

// run calls fn on operands cut from a fresh copy of buf and returns the
// copy after the call and what fn returned.
func (c Case) run(fn func(Case, [][]float32) []float32, buf []float32, at, widths []int) (after, out []float32) {
	skew := 0
	if c.Layout == Skewed {
		skew = 1
	}
	after = append(make([]float32, skew, skew+len(buf)), buf...)[skew:]
	ops := make([][]float32, len(widths))
	for i, w := range widths {
		ops[i] = after[at[i] : at[i]+w : at[i]+w]
	}
	return after, fn(c, ops)
}

// Check fails t unless k, on c, writes and returns the reference bits with
// the kernels off and, where the CPU runs them, on.
func Check(t testing.TB, k Kernel, c Case) {
	t.Helper()
	widths := k.Widths(c.D, c.N)
	buf, at := c.buffer(widths)
	check(t, k, c, widths, buf, at)
}

func check(t testing.TB, k Kernel, c Case, widths []int, buf []float32, at []int) {
	t.Helper()
	defer vec.SetKernels(vec.Kernels())
	vec.SetKernels(false)
	ref, paths := k.Ref, []bool{false, true}
	if ref == nil {
		ref, paths = k.Run, paths[1:]
	}
	wantBuf, wantOut := c.run(ref, buf, at, widths)
	for _, on := range paths {
		if !vec.SetKernels(on) {
			continue
		}
		gotBuf, gotOut := c.run(k.Run, buf, at, widths)
		for _, v := range [...]struct {
			what      string
			got, want []float32
		}{{"operand float", gotBuf, wantBuf}, {"result", gotOut, wantOut}} {
			if len(v.got) != len(v.want) {
				t.Fatalf("%s %v kernels on=%v: %d %ss, want %d", k.Name, c, on, len(v.got), v.what, len(v.want))
			}
			for i := range v.want {
				if math.Float32bits(v.got[i]) == math.Float32bits(v.want[i]) {
					continue
				}
				t.Fatalf("%s %v kernels on=%v: %s %d is %#08x, want %#08x", k.Name, c, on, v.what, i,
					math.Float32bits(v.got[i]), math.Float32bits(v.want[i]))
			}
		}
	}
}

// Unwritten returns n results set to a NaN no kernel computes, so a result
// an entry point leaves unwritten fails.
func Unwritten(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(0x7fc0dead)
	}
	return out
}

// Run holds every kernel in ks to its whole contract: RunCases, then
// RunSpecials.
func Run(t *testing.T, ks []Kernel) {
	RunCases(t, ks)
	RunSpecials(t, ks)
}

// RunCases holds every kernel in ks to its reference at widths below, on
// and off the eight-float block, in every layout, on normal values, small
// integers (so sums cancel to ±0) and values mixed with Specials, with
// normal and special scalars.
func RunCases(t *testing.T, ks []Kernel) {
	rng := rand.New(rand.NewSource(42))
	special := func() float32 { return Specials[rng.Intn(len(Specials))] }
	counts := []int{0, 1, 3, 4, 5, 7, 8, 9, 11, 16, 17, 45}
	for _, d := range []int{0, 1, 3, 4, 7, 8, 9, 12, 16, 24, 31, 128, 130} {
		var pool [8][]float32
		for trial := range pool {
			pool[trial] = floats(rng, trial%4)
		}
		for _, k := range ks {
			for l := Layout(0); l < layouts; l++ {
				for trial, x := range pool {
					c := Case{D: d, N: counts[(trial*5+d)%len(counts)], Layout: l, Floats: x,
						Scalars: [2]float32{[...]float32{0.1, -0.37, 3e38, -1e-30}[trial%4], 1e-10}}
					if trial >= 6 {
						c.Scalars[trial%2] = special()
					}
					Check(t, k, c)
				}
			}
		}
	}
}

// floats returns operand floats: normal (mode 0), small integers, so sums
// cancel to ±0, with 5% of them Specials (1), or normal with 0.5% (2) or
// 30% (3) Specials. Their count is prime, so no width tiles them.
func floats(rng *rand.Rand, mode int) []float32 {
	x := make([]float32, 4093)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		if mode == 1 {
			x[i] = float32(rng.Intn(5) - 2)
		}
		if dirty := [...]float64{0, 0.05, 0.005, 0.3}[mode]; rng.Float64() < dirty {
			x[i] = Specials[rng.Intn(len(Specials))]
		}
	}
	return x
}

// RunSpecials holds every kernel in ks to its reference at D = 8, 16 and 24
// with N = 9 (a block and one more), with each of Specials at every float
// of every operand, one at a time, and in each scalar.
func RunSpecials(t *testing.T, ks []Kernel) {
	rng := rand.New(rand.NewSource(42))
	for _, k := range ks {
		for _, d := range []int{8, 16, 24} {
			c := Case{D: d, N: 9, Floats: floats(rng, 0), Scalars: [2]float32{0.1, 1e-10}}
			widths := k.Widths(d, c.N)
			buf, at := c.buffer(widths)
			for i, was := range buf {
				for _, v := range Specials {
					buf[i] = v
					check(t, k, c, widths, buf, at)
				}
				buf[i] = was
			}
			for i := range c.Scalars {
				for _, v := range Specials {
					s := c
					s.Scalars[i] = v
					check(t, k, s, widths, buf, at)
				}
			}
		}
	}
}

// Decode reads a fuzz input as a case: D = (b0>>1)%41, rounded down to a
// multiple of 8 when b0 is even; N = b1%41; the layout from b2; then raw
// little-endian float32 bits, read cyclically, for the two scalars and
// then the operand floats.
func Decode(data []byte) (Case, bool) {
	if len(data) < 3 {
		return Case{}, false
	}
	c := Case{D: int(data[0]>>1) % 41, N: int(data[1]) % 41, Layout: Layout(data[2]) % layouts}
	if data[0]&1 == 0 {
		c.D &^= 7
	}
	raw := data[3:]
	word := func(i int) float32 {
		var b [4]byte
		for j := range b {
			b[j] = raw[(4*i+j)%len(raw)]
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	if len(raw) > 0 {
		c.Scalars = [2]float32{word(0), word(1)}
		for i := range raw { // word(i) repeats every len(raw) words
			c.Floats = append(c.Floats, word(2+i))
		}
	}
	return c, true
}

// Fuzz seeds f with seeds and, on each input, decodes one case and holds
// every kernel in ks to its reference on it.
func Fuzz(f *testing.F, ks []Kernel, seeds ...[]byte) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := Decode(data)
		if !ok {
			return
		}
		for _, k := range ks {
			Check(t, k, c)
		}
	})
}
