// The tiled representation: the tidset semantics (t(PXY) = t(PX) ∩
// t(PY), support = cardinality) over the tile-partitioned layout of
// tidset.Tiled — 128-TID tiles with exact occupancy summaries and a
// per-tile sparse/dense payload switch. It is a full Representation
// peer: its CombineManyInto and CombineSupport give it the recycling
// arena, the prefix-blocked kernels and lazy materialization, and it
// is Degradable like the other unbounded layouts. Everything above
// vertical (Eclat, Apriori, the degrade machinery, runctl budgets) is
// layout-oblivious.

package vertical

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// WithLayout resolves a layout selector against a representation: the
// cmd-layer "-layout tiled|flat" flag maps onto Kinds rather than a
// separate Options field, because the tiled layout IS the tidset
// representation under a different memory layout. "" keeps k; "flat"
// maps Tiled back to Tidset; "tiled" maps Tidset (or Tiled) to Tiled
// and rejects representations that have no tiled form.
func WithLayout(k Kind, layout string) (Kind, error) {
	switch layout {
	case "":
		return k, nil
	case "flat":
		if k == Tiled {
			return Tidset, nil
		}
		return k, nil
	case "tiled":
		switch k {
		case Tidset, Tiled:
			return Tiled, nil
		}
		return 0, fmt.Errorf("vertical: layout %q applies to the tidset representation, not %v", layout, k)
	}
	return 0, fmt.Errorf("vertical: unknown layout %q (want tiled or flat)", layout)
}

// TiledNode carries t(X) in tiled form for one itemset.
type TiledNode struct {
	T *tidset.Tiled
}

func (n *TiledNode) Support() int { return n.T.Len() }
func (n *TiledNode) Bytes() int   { return n.T.Bytes() }

type tiledRep struct{}

func (tiledRep) Kind() Kind { return Tiled }

func (tiledRep) Roots(rec *dataset.Recoded) []Node {
	sets := rec.TidsetOf()
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &TiledNode{T: tidset.FromSet(s)}
		kcount.AddNode(kcount.Tiled, nodes[i].Bytes())
	}
	return nodes
}

func (tiledRep) CombineSupport(px, py Node) int {
	return px.(*TiledNode).T.IntersectSize(py.(*TiledNode).T)
}

// getTiled pops a recycled tiled node (backing arrays truncated,
// capacity kept) or allocates one. Nil-safe like its siblings.
func (a *Arena) getTiled() *TiledNode {
	if a == nil {
		return &TiledNode{T: &tidset.Tiled{}}
	}
	if n := len(a.tileds); n > 0 {
		nd := a.tileds[n-1]
		a.tileds[n-1] = nil
		a.tileds = a.tileds[:n-1]
		a.hits++
		return nd
	}
	a.misses++
	return &TiledNode{T: &tidset.Tiled{}}
}

// scratchTileds returns two length-m *Tiled slices for the batched
// kernel's sibling views and destinations, arena-owned like
// scratchSets.
func (a *Arena) scratchTileds(m int) (srcs, dsts []*tidset.Tiled) {
	if a == nil {
		return make([]*tidset.Tiled, m), make([]*tidset.Tiled, m)
	}
	if cap(a.batchTiledSrc) < m {
		a.batchTiledSrc = make([]*tidset.Tiled, m)
		a.batchTiledDst = make([]*tidset.Tiled, m)
	}
	return a.batchTiledSrc[:m], a.batchTiledDst[:m]
}

// CombineManyInto ignores minSup: tiled children are always exact.
func (tiledRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena, _ int) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*TiledNode)
	srcs, dsts := a.scratchTileds(m)
	for i, py := range pys {
		srcs[i] = py.(*TiledNode).T
		nd := a.getTiled()
		dsts[i] = nd.T
		out[i] = nd
	}
	tidset.TiledIntersectManyInto(x.T, srcs, dsts)
	bytes := 0
	for i := range dsts {
		bytes += out[i].Bytes()
	}
	kcount.AddNodes(kcount.Tiled, m, bytes)
}
