package cache

import (
	"math"
	"testing"

	"hetkg/internal/kg"
	"hetkg/internal/opt"
	"hetkg/internal/ps"
)

// fuzzKey maps a byte onto a 16-key universe, 12 entities and 4 relations,
// small enough that keys enter, stay and leave the table often.
func fuzzKey(b byte) ps.Key {
	if i := b % 16; i < 12 {
		return ps.EntityKey(kg.EntityID(i))
	}
	return ps.RelationKey(kg.RelationID(b%16 - 12))
}

// shadowRow is the shadow's copy of one cached row.
type shadowRow struct {
	vals     []float32
	lastSync int
}

// FuzzHotCache is the hot table's operation-sequence fuzzer (Algorithms
// 3/4). The first byte picks the staleness bound P from {0, 1, 8}; the rest
// is a sequence of Build (a 16-bit mask of the keys in the new table, so
// keys enter, stay and leave), Offer, Update (AdaGrad, whose state must
// follow its key across rebuilds) and iteration steps. A map of shadow
// rows follows the same operations, and after every one each key's
// Get and ServeStale must agree with it: a Get hits exactly when the key is
// in the table and younger than P, and serves the shadow's bits. So no Get
// serves a row older than P, an Offer resets a row's clock and only for
// keys in the table, and an evicted key is never served.
func FuzzHotCache(f *testing.F) {
	f.Add([]byte{2, 0, 0xff, 0x0f, 3, 9, 3, 9, 1, 3, 40, 3, 3, 0, 0xf0, 0xf0})
	f.Add([]byte{1, 0, 0x03, 0, 3, 0, 1, 0, 7, 2, 1, 255, 0, 0x06, 0})
	f.Add([]byte{0, 0, 0xff, 0xff, 2, 5, 200, 3, 1, 1, 0, 0, 0})
	g := smallGraph(f)
	_, cl := fixture(f, g)
	server := make([][]float32, 16) // the shard's values, which nothing pushes to
	keys := make([]ps.Key, 16)
	for i := range server {
		keys[i], server[i] = fuzzKey(byte(i)), make([]float32, cl.Width(fuzzKey(byte(i))))
	}
	if err := cl.PullRows(keys, server); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := []int{0, 1, 8}[data[0]%3]
		hc, err := New(cl, opt.NewAdaGrad(0.1, 1e-10), p)
		if err != nil {
			t.Fatal(err)
		}
		// The shadow's optimizer state is by universe position; the
		// cache's is by dense index. Either way it outlives rebuilds.
		shadowOpt := opt.NewAdaGrad(0.1, 1e-10)
		shadow := map[ps.Key]*shadowRow{}
		it := 0
		arg := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		for i := 1; i < len(data); {
			op, a, b := data[i]%4, arg(i+1), arg(i+2)
			switch op {
			case 0: // Build the table the mask a|b<<8 names.
				var table []ps.Key
				clear(shadow)
				for j := range 16 {
					if (uint16(a)|uint16(b)<<8)&(1<<j) != 0 {
						k := fuzzKey(byte(j))
						table = append(table, k)
						shadow[k] = &shadowRow{vals: append([]float32(nil), server[j]...), lastSync: it}
					}
				}
				if err := hc.Build(table, it); err != nil {
					t.Fatal(err)
				}
				i += 3
			case 1: // Offer a pulled value.
				k, vals := fuzzKey(a), []float32{float32(b), -float32(b), 0.5, float32(i)}
				hc.Offer(k, vals, it)
				if r := shadow[k]; r != nil {
					r.vals, r.lastSync = vals, it
				}
				i += 3
			case 2: // Update with a gradient; 255 is a NaN the replica drops.
				k, grad := fuzzKey(a), []float32{float32(int8(b)) / 16, 1, -1, 0.25}
				if b == 255 {
					grad[1] = float32(math.NaN())
				}
				hc.Update(k, grad)
				if r := shadow[k]; r != nil {
					opt.ApplyFinite(shadowOpt, int(a%16), r.vals, grad)
				}
				i += 3
			case 3: // Advance the iteration.
				it += 1 + int(a%4)
				i += 2
			}
			for j := range 16 {
				k := fuzzKey(byte(j))
				r := shadow[k]
				fresh := r != nil && (p == 0 || it-r.lastSync < p)
				got, hit := hc.Get(k, it)
				if hit != fresh {
					t.Fatalf("op %d at iteration %d: Get(%v) hit %v, want %v (P %d, shadow %+v)", i, it, k, hit, fresh, p, r)
				}
				held, ok := hc.ServeStale(k, it, 0)
				if ok != (r != nil) {
					t.Fatalf("op %d: ServeStale(%v) = %v, want %v", i, k, ok, r != nil)
				}
				if hit && !sameBits(got, r.vals) || ok && !sameBits(held, r.vals) {
					t.Fatalf("op %d: %v serves %v, shadow holds %v", i, k, held, r.vals)
				}
			}
			if hc.Len() != len(shadow) {
				t.Fatalf("op %d: Len %d, shadow holds %d rows", i, hc.Len(), len(shadow))
			}
		}
	})
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
