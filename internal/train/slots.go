package train

import (
	"slices"

	"hetkg/internal/kg"
	"hetkg/internal/ps"
	"hetkg/internal/sampler"
	"hetkg/internal/vec"
)

// slotTable is one batch compiled to row slots, the currency of the
// training step from gather to push. The batch's distinct keys are sorted,
// and a key's slot is its index among them, so entities come first and a
// walk in slot order is one in key order. Each positive's head, relation
// and tail, and each chunk's negatives, become slots, and rows holds the
// row the step reads for each slot: the hot cache's copy on a hit, a slab
// row the pull fills otherwise.
//
// The dedup is a sort-based unique with inverse, as DGL-KE dedups a batch:
// each occurrence is packed with its position into one uint64, the packed
// list is sorted, and one walk assigns the slots and records every
// occurrence's. It needs no table sized by the entity universe. The table
// is the worker's and is rebuilt in place for every batch.
type slotTable struct {
	keys []ps.Key    // slot → key, ascending
	pos  [][3]int32  // positive → its head, relation and tail slots
	negs [][2]int32  // positive → its chunk's range of ents
	ents []int32     // entity occurrence → slot (see compile)
	rows [][]float32 // slot → the row the step reads
	slab []float32   // backing of the rows a pull fills

	occ  []uint64 // compile scratch: id<<32 | occurrence
	ids  []uint32 // compile scratch: distinct ids in order
	rels []int32  // compile scratch: positive → relation's index
}

// compile rebuilds t for b and points every slot's row at the slab; entW
// and relW are the entity and relation row widths.
//
// Entity occurrence 2i is positive i's head and 2i+1 its tail. The
// negatives follow, each chunk's once: consecutive positives that share a
// *NegativeSample share its range.
func (t *slotTable) compile(b *sampler.Batch, entW, relW int) {
	np := len(b.Pos)
	occ := t.occ[:0]
	for i, p := range b.Pos {
		occ = append(occ, pack(int32(p.Head), 2*i), pack(int32(p.Tail), 2*i+1))
	}
	t.negs = t.negs[:0]
	start, n := 0, 2*np
	for i, ns := range b.Neg {
		if i == 0 || ns != b.Neg[i-1] {
			start = n
			for _, e := range ns.Entities {
				occ = append(occ, pack(int32(e), n))
				n++
			}
		}
		t.negs = append(t.negs, [2]int32{int32(start), int32(n)})
	}
	t.ents = slices.Grow(t.ents[:0], n)[:n]
	t.ids = unique(occ, t.ids, t.ents)
	t.keys = t.keys[:0]
	for _, e := range t.ids {
		t.keys = append(t.keys, ps.EntityKey(kg.EntityID(e)))
	}
	numEnt := len(t.keys)

	occ = occ[:0]
	for i, p := range b.Pos {
		occ = append(occ, pack(int32(p.Relation), i))
	}
	t.rels = slices.Grow(t.rels[:0], np)[:np]
	t.ids = unique(occ, t.ids, t.rels)
	for _, r := range t.ids {
		t.keys = append(t.keys, ps.RelationKey(kg.RelationID(r)))
	}
	t.occ = occ
	t.pos = slices.Grow(t.pos[:0], np)[:np]
	for i := range t.pos {
		t.pos[i] = [3]int32{t.ents[2*i], int32(numEnt) + t.rels[i], t.ents[2*i+1]}
	}

	total := numEnt*entW + (len(t.keys)-numEnt)*relW
	if cap(t.slab) < total {
		t.slab = make([]float32, total)
	}
	slab := t.slab[:total]
	t.rows = slices.Grow(t.rows[:0], len(t.keys))[:len(t.keys)]
	for s := range t.rows {
		w := entW
		if s >= numEnt {
			w = relW
		}
		t.rows[s], slab = slab[:w:w], slab[w:]
	}
}

// slot returns k's slot; k must be one of the batch's keys.
func (t *slotTable) slot(k ps.Key) int {
	s, _ := slices.BinarySearch(t.keys, k)
	return s
}

// pack puts a non-negative id above an occurrence index.
func pack(id int32, occurrence int) uint64 { return uint64(id)<<32 | uint64(occurrence) }

// unique sorts occ and walks it: each distinct id, ascending, is appended
// to ids[:0], and inv[occurrence] gets its index among them.
func unique(occ []uint64, ids []uint32, inv []int32) []uint32 {
	slices.Sort(occ)
	ids = ids[:0]
	for j, x := range occ {
		if j == 0 || x>>32 != occ[j-1]>>32 {
			ids = append(ids, uint32(x>>32))
		}
		inv[uint32(x)] = int32(len(ids) - 1)
	}
	return ids
}

// gradBuf is a reusable gradient accumulator indexed by slot, backed by a
// grow-only pool of max-width rows so steady state allocates nothing per
// batch. Rows are zeroed on acquisition. A batch's 33 buffers (one per
// compute shard, one merged) each hold a slot index, so it is an int32.
type gradBuf struct {
	at      []int32     // slot → 1 + its index in touched, 0 until touched
	touched []int32     // slots touched since reset, in first-touch order
	rows    [][]float32 // touched[i]'s gradient row
	pool    [][]float32
	maxW    int
}

func newGradBuf(maxW int) *gradBuf { return &gradBuf{maxW: maxW} }

// reset empties the accumulator for a batch of n slots, returning every
// pooled row.
func (g *gradBuf) reset(n int) {
	for _, s := range g.touched {
		g.at[s] = 0
	}
	g.touched, g.rows = g.touched[:0], g.rows[:0]
	if cap(g.at) < n {
		g.at = make([]int32, n)
	}
	g.at = g.at[:n]
}

// row returns slot's gradient row of width w, acquiring and zeroing a
// pooled row on first touch.
func (g *gradBuf) row(slot int32, w int) []float32 {
	if i := g.at[slot]; i != 0 {
		return g.rows[i-1]
	}
	if len(g.rows) == len(g.pool) {
		g.pool = append(g.pool, make([]float32, g.maxW))
	}
	r := g.pool[len(g.rows)][:w]
	vec.Zero(r)
	g.rows = append(g.rows, r)
	g.touched = append(g.touched, slot)
	g.at[slot] = int32(len(g.rows))
	return r
}
