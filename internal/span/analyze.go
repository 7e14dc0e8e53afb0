package span

import (
	"sort"
	"time"
)

// IsRoot reports whether name is a root span name: a training batch or a
// serving request. The analyzer attributes every other span to the root it
// parents under.
func IsRoot(name string) bool { return name == NBatch || name == NServeRequest }

// Category buckets a span name for comm-vs-compute-vs-cache attribution —
// the per-batch version of the paper's Fig. 7 time breakdown. Serving spans
// bucket the same way: candidate sweeps and knn searches are compute.
func Category(name string) string {
	switch name {
	case NNegSample, NGradCompute, NServeSweep, NServeKNN:
		return "compute"
	case NCacheLookup, NCacheRefresh:
		return "cache"
	case NPSPull, NPSPush, NSerialize, NWireTCP, NWireSim, NShardPull, NShardApply:
		return "comm"
	case NBatch, NServeRequest:
		return "batch"
	default:
		return "other"
	}
}

// Categories lists the attribution buckets in display order. "other" is the
// uncovered remainder of each root span: batch time not under any direct
// child (scheduling, bookkeeping, merge overhead).
func Categories() []string { return []string{"compute", "comm", "cache", "other"} }

// BatchPath is one sampled batch's attribution: the root span plus its
// direct children's wall time summed per category. Grandchildren (wire and
// shard spans under an RPC span, RPC spans under a cache refresh) are
// already covered by their parent, so direct-child attribution never double
// counts an interval.
type BatchPath struct {
	Root       Span
	ByCategory map[string]time.Duration
	// Uncovered is root duration minus direct-child coverage ("other").
	Uncovered time.Duration
}

// MachineSummary aggregates the sampled batches of one machine — the
// straggler view: a machine whose Mean/Max batch durations run long is the
// one holding the round back.
type MachineSummary struct {
	Machine int
	Batches int
	Mean    time.Duration
	Max     time.Duration
}

// Analysis is the result of Analyze: per-batch attribution, run totals, the
// slowest individual spans, and the per-machine straggler table.
type Analysis struct {
	Batches []BatchPath
	// Total sums ByCategory (and Uncovered under "other") over all batches.
	Total map[string]time.Duration
	// TotalBatch is the summed duration of all root spans.
	TotalBatch time.Duration
	// Slowest holds the top-k non-root spans by duration, slowest first.
	Slowest []Span
	// Machines summarizes root spans per machine, ordered by machine.
	Machines []MachineSummary
}

// Analyze builds the critical-path attribution for a span dump. topK bounds
// the Slowest list (0 means 5).
func Analyze(spans []Span, topK int) *Analysis {
	if topK <= 0 {
		topK = 5
	}
	a := &Analysis{Total: map[string]time.Duration{}}

	children := make(map[uint64][]Span) // parent span ID → direct children
	var nonRoots []Span
	for _, s := range spans {
		if IsRoot(s.Name) {
			continue
		}
		nonRoots = append(nonRoots, s)
		children[s.Parent] = append(children[s.Parent], s)
	}

	perMachine := map[int]*MachineSummary{}
	for _, s := range spans {
		if !IsRoot(s.Name) {
			continue
		}
		bp := BatchPath{Root: s, ByCategory: map[string]time.Duration{}}
		var covered time.Duration
		for _, c := range children[s.ID] {
			if c.Trace != s.Trace {
				continue // span-ID reuse across drains; trace must match
			}
			bp.ByCategory[Category(c.Name)] += c.Duration()
			covered += c.Duration()
		}
		if bp.Uncovered = s.Duration() - covered; bp.Uncovered < 0 {
			bp.Uncovered = 0
		}
		a.Batches = append(a.Batches, bp)
		a.TotalBatch += s.Duration()
		for k, v := range bp.ByCategory {
			a.Total[k] += v
		}
		a.Total["other"] += bp.Uncovered

		m := perMachine[s.Machine]
		if m == nil {
			m = &MachineSummary{Machine: s.Machine}
			perMachine[s.Machine] = m
		}
		m.Batches++
		m.Mean += s.Duration() // running sum; divided below
		if s.Duration() > m.Max {
			m.Max = s.Duration()
		}
	}

	sort.Slice(a.Batches, func(i, j int) bool { return a.Batches[i].Root.StartNS < a.Batches[j].Root.StartNS })

	sort.Slice(nonRoots, func(i, j int) bool {
		if nonRoots[i].DurNS != nonRoots[j].DurNS {
			return nonRoots[i].DurNS > nonRoots[j].DurNS
		}
		return nonRoots[i].ID < nonRoots[j].ID
	})
	if len(nonRoots) > topK {
		nonRoots = nonRoots[:topK]
	}
	a.Slowest = nonRoots

	for _, m := range perMachine {
		if m.Batches > 0 {
			m.Mean /= time.Duration(m.Batches)
		}
		a.Machines = append(a.Machines, *m)
	}
	sort.Slice(a.Machines, func(i, j int) bool { return a.Machines[i].Machine < a.Machines[j].Machine })
	return a
}

// CriticalPath walks from root down the longest direct child at each level,
// returning the chain root-first — the "which operation made this batch
// slow" drill-down for one sampled batch. No span ID appears twice on the
// path, so a dump whose parent links form a cycle still ends.
func CriticalPath(spans []Span, root Span) []Span {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Trace == root.Trace && s.ID != root.ID {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	path := []Span{root}
	visited := map[uint64]bool{root.ID: true}
	cur := root
	for {
		var best Span
		found := false
		for _, c := range children[cur.ID] {
			if !visited[c.ID] && (!found || c.DurNS > best.DurNS || (c.DurNS == best.DurNS && c.ID < best.ID)) {
				best, found = c, true
			}
		}
		if !found {
			return path
		}
		path = append(path, best)
		visited[best.ID] = true
		cur = best
	}
}
