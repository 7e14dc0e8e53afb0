package partition

import (
	"math/rand"
	"sort"

	"hetkg/internal/kg"
)

// MetisLike is a from-scratch multilevel k-way partitioner in the style of
// METIS (Karypis & Kumar): the entity graph is repeatedly coarsened by
// heavy-edge matching, the coarsest graph is partitioned greedily under a
// balance constraint, and the partition is projected back up with boundary
// Kernighan–Lin refinement at every level.
type MetisLike struct {
	// Seed drives matching order and tie-breaking.
	Seed int64
	// Imbalance is the allowed load slack (default 0.05 = 5%).
	Imbalance float64
	// CoarsestSize stops coarsening once the graph is this small
	// (default max(4k, 64) nodes).
	CoarsestSize int
	// RefinePasses is the number of KL passes per level (default 3).
	RefinePasses int
}

// Name implements Partitioner.
func (*MetisLike) Name() string { return "metis" }

// level is one graph in the coarsening hierarchy, as a CSR: node u's
// neighbours are nbr[off[u]:off[u+1]], each listed once, with wt holding
// the edge's multiplicity (how many triples connect the two sides). Nodes
// carry weights (how many original entities they aggregate). No algorithm
// step depends on neighbour order: every read is an integer sum or an
// argmax with an explicit tie-break.
type level struct {
	nodeW []int64
	off   []int32
	nbr   []int32
	wt    []int64
	// coarseOf maps this level's nodes to the coarser level's nodes
	// (filled when the next level is built).
	coarseOf []int32
}

// Partition implements Partitioner.
func (m *MetisLike) Partition(g *kg.Graph, k int) (*Result, error) {
	if err := validate(g, k); err != nil {
		return nil, err
	}
	imbalance := m.Imbalance
	if imbalance <= 0 {
		imbalance = 0.05
	}
	coarsest := m.CoarsestSize
	if coarsest <= 0 {
		coarsest = 4 * k
		if coarsest < 64 {
			coarsest = 64
		}
	}
	passes := m.RefinePasses
	if passes <= 0 {
		passes = 3
	}
	rng := rand.New(rand.NewSource(m.Seed))

	// Level 0: the entity graph, contracted from the triples' edge list
	// (self-loops skipped) by the identity map, which merges duplicates.
	n := g.NumEntity
	raw, ident := &level{nodeW: make([]int64, n), off: make([]int32, n+1)}, make([]int32, n+1)
	for _, t := range g.Triples {
		if t.Head != t.Tail {
			raw.off[t.Head]++
			raw.off[t.Tail]++
		}
	}
	for u := 0; u < n; u++ {
		raw.off[u+1] += raw.off[u]
		raw.nodeW[u], ident[u+1] = 1, int32(u+1)
	}
	raw.nbr, raw.wt, raw.coarseOf = make([]int32, raw.off[n]), make([]int64, raw.off[n]), ident[:n]
	for _, t := range g.Triples {
		if h, tl := int32(t.Head), int32(t.Tail); h != tl {
			raw.off[h]--
			raw.off[tl]--
			raw.nbr[raw.off[h]], raw.wt[raw.off[h]] = tl, 1
			raw.nbr[raw.off[tl]], raw.wt[raw.off[tl]] = h, 1
		}
	}
	base := contract(raw, ident, ident[:n])

	// Coarsening phase.
	levels := []*level{base}
	for {
		cur := levels[len(levels)-1]
		if len(cur.nodeW) <= coarsest {
			break
		}
		next, shrunk := coarsen(cur, rng)
		if !shrunk {
			break
		}
		levels = append(levels, next)
	}

	// Initial partition on the coarsest level.
	top := levels[len(levels)-1]
	part := greedyInitial(top, k, imbalance, rng)
	refine(top, part, k, imbalance, passes)

	// Uncoarsening with refinement.
	for li := len(levels) - 2; li >= 0; li-- {
		cur := levels[li]
		finer := make([]int32, len(cur.nodeW))
		for v := range finer {
			finer[v] = part[cur.coarseOf[v]]
		}
		part = finer
		refine(cur, part, k, imbalance, passes)
	}

	r := &Result{K: k, EntityPart: part}
	assignTriples(g, r)
	return r, nil
}

// coarsen performs one round of heavy-edge matching and contraction. It
// returns the coarser level and whether meaningful shrinkage happened.
func coarsen(cur *level, rng *rand.Rand) (*level, bool) {
	n := len(cur.nodeW)
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		if match[u] != -1 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		for i := cur.off[u]; i < cur.off[u+1]; i++ {
			v, w := cur.nbr[i], cur.wt[i]
			if match[v] != -1 || v == u {
				continue
			}
			// Tie-break on vertex id: neighbour order must not leak into
			// the partition (training reproducibility depends on it).
			if w > bestW || (w == bestW && v < best) {
				best, bestW = v, w
			}
		}
		if best == -1 {
			match[u] = u // matched with itself
		} else {
			match[u] = best
			match[best] = u
		}
	}
	// Number coarse nodes; coarse node c's members are
	// members[first[c]:first[c+1]].
	cur.coarseOf = make([]int32, n)
	for i := range cur.coarseOf {
		cur.coarseOf[i] = -1
	}
	first, members := make([]int32, 1, n+1), make([]int32, 0, n)
	for u := int32(0); u < int32(n); u++ {
		if cur.coarseOf[u] != -1 {
			continue
		}
		cur.coarseOf[u] = int32(len(first) - 1)
		members = append(members, u)
		if v := match[u]; v != u && v >= 0 {
			cur.coarseOf[v] = cur.coarseOf[u]
			members = append(members, v)
		}
		first = append(first, int32(len(members)))
	}
	if len(first)-1 > n*9/10 { // shrinking too slowly: stop coarsening
		return nil, false
	}
	return contract(cur, first, members), true
}

// contract builds the level whose node c merges the nodes
// members[first[c]:first[c+1]] of l (l.coarseOf maps each to c): their
// weights add up, edges among them vanish, and their edges to one coarse
// neighbour merge into one. The coarse CSR is sized once from l's, since
// contraction never adds an edge.
func contract(l *level, first, members []int32) *level {
	nc := len(first) - 1
	next := &level{
		nodeW: make([]int64, nc),
		off:   make([]int32, nc+1),
		nbr:   make([]int32, 0, len(l.nbr)),
		wt:    make([]int64, 0, len(l.nbr)),
	}
	// mark[cv]-1 is cv's position in nbr; at or below the current node's
	// start, it is an earlier node's (or unset) and stale.
	mark := make([]int32, nc)
	for c := int32(0); c < int32(nc); c++ {
		start := int32(len(next.nbr))
		for _, u := range members[first[c]:first[c+1]] {
			next.nodeW[c] += l.nodeW[u]
			for i := l.off[u]; i < l.off[u+1]; i++ {
				cv := l.coarseOf[l.nbr[i]]
				if cv == c {
					continue
				}
				if m := mark[cv]; m > start {
					next.wt[m-1] += l.wt[i]
				} else {
					next.nbr = append(next.nbr, cv)
					next.wt = append(next.wt, l.wt[i])
					mark[cv] = int32(len(next.nbr))
				}
			}
		}
		next.off[c+1] = int32(len(next.nbr))
	}
	return next
}

// greedyInitial assigns coarse nodes to partitions in descending weight
// order, choosing for each node the partition that maximizes attachment
// (edge weight already placed there) subject to the load cap.
func greedyInitial(l *level, k int, imbalance float64, rng *rand.Rand) []int32 {
	n := len(l.nodeW)
	var totalW int64
	for _, w := range l.nodeW {
		totalW += w
	}
	cap64 := int64(float64(totalW)/float64(k)*(1+imbalance)) + 1
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	sort.SliceStable(order, func(i, j int) bool { return l.nodeW[order[i]] > l.nodeW[order[j]] })

	part := make([]int32, n)
	for i := range part {
		part[i] = -1
	}
	load, gain := make([]int64, k), make([]int64, k)
	for _, u := range order {
		clear(gain)
		for i := l.off[u]; i < l.off[u+1]; i++ {
			if p := part[l.nbr[i]]; p >= 0 {
				gain[p] += l.wt[i]
			}
		}
		best, bestScore := -1, int64(-1)
		for p := 0; p < k; p++ {
			if load[p]+l.nodeW[u] > cap64 {
				continue
			}
			// Prefer attachment, break ties by lighter load.
			score := gain[p]*1024 - load[p]
			if best == -1 || score > bestScore {
				best, bestScore = p, score
			}
		}
		if best == -1 { // everything full: least-loaded wins regardless of cap
			best = 0
			for p := 1; p < k; p++ {
				if load[p] < load[best] {
					best = p
				}
			}
		}
		part[u] = int32(best)
		load[best] += l.nodeW[u]
	}
	return part
}

// refine runs boundary Kernighan–Lin passes: move nodes to the partition
// with the highest cut-gain when the move keeps the balance constraint.
func refine(l *level, part []int32, k int, imbalance float64, passes int) {
	var totalW int64
	for _, w := range l.nodeW {
		totalW += w
	}
	cap64 := int64(float64(totalW)/float64(k)*(1+imbalance)) + 1
	load := make([]int64, k)
	for u, w := range l.nodeW {
		load[part[u]] += w
	}
	gain := make([]int64, k)
	for pass := 0; pass < passes; pass++ {
		moved := 0
		for u := range l.nodeW {
			pu := part[u]
			if l.off[u] == l.off[u+1] {
				continue
			}
			clear(gain)
			boundary := false
			for i := l.off[u]; i < l.off[u+1]; i++ {
				pv := part[l.nbr[i]]
				gain[pv] += l.wt[i]
				if pv != pu {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			best, bestGain := pu, int64(0)
			for p := 0; p < k; p++ {
				if int32(p) == pu {
					continue
				}
				g := gain[p] - gain[pu]
				if g > bestGain && load[p]+l.nodeW[u] <= cap64 {
					best, bestGain = int32(p), g
				}
			}
			if best != pu {
				load[pu] -= l.nodeW[u]
				load[best] += l.nodeW[u]
				part[u] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
