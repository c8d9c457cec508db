// Prefix-blocked combine, each kind's one combine kernel. Candidates
// sharing a prefix PX are contiguous both in the Apriori candidate trie
// and in Eclat's equivalence classes, so CombineManyInto combines one
// resident parent against an entire sibling run in a single kernel call
// (tidset.IntersectManyInto, tidset.DiffManyInto, bitvec.AndManyInto,
// tidset.TiledIntersectManyInto, nodeset.DiffManyInto), the
// cache-blocked batching of Amossen & Pagh applied to the paper's §V
// parent-traffic bottleneck: the shared parent streams once per block
// instead of once per sibling. The parent_words_saved counter records
// the words of parent payload not re-streamed. A single pair is a
// batch of one (Combine, arena.go).
//
// The minSup bound is the package doc's: the tidset and diffset
// kernels stop each dead child early, the other kinds ignore the bound.
// Results never share backing memory with px or any pys element, and
// node storage recycles through the arena when one is supplied. A nil
// arena allocates fresh nodes (and fresh scratch), so the kernels are
// usable without per-worker state.

package vertical

import (
	"repro/internal/bitvec"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// scratchSets returns two length-m Set slices for the set-backed batch
// kernels' source views and destination buffers. Arena-owned so the
// block loop never allocates; a nil arena gets fresh slices.
func (a *Arena) scratchSets(m int) (srcs, dsts []tidset.Set) {
	if a == nil {
		return make([]tidset.Set, m), make([]tidset.Set, m)
	}
	if cap(a.batchSrc) < m {
		a.batchSrc = make([]tidset.Set, m)
		a.batchDst = make([]tidset.Set, m)
	}
	return a.batchSrc[:m], a.batchDst[:m]
}

// NodeScratch returns two length-m node slices owned by the arena, for
// callers gathering a sibling run ahead of CombineManyInto: the pys
// argument and the out destination. Contents are unspecified; callers
// must overwrite [:m] before reading. A nil arena gets fresh slices.
func (a *Arena) NodeScratch(m int) (pys, out []Node) {
	if a == nil {
		return make([]Node, m), make([]Node, m)
	}
	if cap(a.nodePys) < m {
		a.nodePys = make([]Node, m)
		a.nodeOut = make([]Node, m)
	}
	return a.nodePys[:m], a.nodeOut[:m]
}

// scratchVecs is scratchSets' bitvector analogue, plus the per-child
// support accumulator AndManyInto fills.
func (a *Arena) scratchVecs(m int) (pys, outs []*bitvec.Vector, sups []int) {
	if a == nil {
		return make([]*bitvec.Vector, m), make([]*bitvec.Vector, m), make([]int, m)
	}
	if cap(a.batchVec) < m {
		a.batchVec = make([]*bitvec.Vector, m)
		a.batchOut = make([]*bitvec.Vector, m)
		a.batchSup = make([]int, m)
	}
	return a.batchVec[:m], a.batchOut[:m], a.batchSup[:m]
}

func (tidsetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena, minSup int) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*TidsetNode)
	srcs, dsts := a.scratchSets(m)
	for i, py := range pys {
		y := py.(*TidsetNode)
		srcs[i] = y.TIDs
		nd := a.getTidset()
		// Presize to the intersection's upper bound: an undersized
		// recycled buffer would re-grow inside the merge loop, paying a
		// copy per doubling — dearer than one right-sized allocation.
		if bound := min(len(x.TIDs), len(y.TIDs)); cap(nd.TIDs) < bound {
			nd.TIDs = make(tidset.Set, 0, bound)
		}
		dsts[i] = nd.TIDs
		out[i] = nd
	}
	tidset.IntersectManyInto(x.TIDs, srcs, dsts, minSup)
	bytes, dead := 0, 0
	for i := range dsts {
		nd := out[i].(*TidsetNode)
		nd.TIDs = dsts[i]
		bytes += nd.Bytes()
		if len(nd.TIDs) < minSup {
			dead++
		}
	}
	a.countDead(dead)
	kcount.AddNodes(kcount.Tidset, m, bytes)
}

// diffCap is the capacity a bounded d(PY) − d(PX) can need: at most
// |d(PY)| elements, and the kernel stops at limit+1. The limit is
// support(PX) − minSup, the longest diffset a child can carry and still
// reach minSup, since support(PXY) = support(PX) − |d(PXY)|; minSup 0
// gives support(PX), which no exact child exceeds.
func diffCap(dy tidset.Set, limit int) int {
	if limit < len(dy) {
		return max(limit+1, 0)
	}
	return len(dy)
}

func (diffsetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena, minSup int) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*DiffsetNode)
	limit := x.sup - minSup // shared by the whole block
	srcs, dsts := a.scratchSets(m)
	for i, py := range pys {
		y := py.(*DiffsetNode)
		srcs[i] = y.Diff
		nd := a.getDiffset()
		if c := diffCap(y.Diff, limit); cap(nd.Diff) < c {
			nd.Diff = make(tidset.Set, 0, c)
		}
		dsts[i] = nd.Diff
		out[i] = nd
	}
	tidset.DiffManyInto(x.Diff, srcs, dsts, limit) // d(PXY) = d(PY) − d(PX)
	bytes, dead := 0, 0
	for i := range dsts {
		nd := out[i].(*DiffsetNode)
		nd.Diff = dsts[i]
		nd.sup = x.sup - len(nd.Diff)
		bytes += nd.Bytes()
		if nd.sup < minSup {
			dead++
		}
	}
	a.countDead(dead)
	kcount.AddNodes(kcount.Diffset, m, bytes)
}

// CombineManyInto ignores minSup: bitvector children are always exact.
func (bitvectorRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena, _ int) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*BitvectorNode)
	vys, vouts, sups := a.scratchVecs(m)
	for i, py := range pys {
		vys[i] = py.(*BitvectorNode).Bits
		nd := a.getBitvec(x.Bits.Len())
		vouts[i] = nd.Bits
		out[i] = nd
	}
	bitvec.AndManyInto(x.Bits, vys, vouts, sups)
	bytes := 0
	for i := range sups {
		nd := out[i].(*BitvectorNode)
		nd.sup = sups[i]
		bytes += nd.Bytes()
	}
	kcount.AddNodes(kcount.Bitvector, m, bytes)
}
