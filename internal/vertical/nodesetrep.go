// The nodeset representation: Deng's DiffNodesets (PAPERS.md,
// arXiv:1507.01345) as a full Representation peer. Roots build the
// PPC-encoded prefix tree once and hand each item its N-list; level-2
// combines run the ancestor merge over two N-lists; deeper combines
// are plain sorted differences of DiffNodesets — the diffset
// recurrence d(PXY) = d(PY) − d(PX) with tree nodes in place of
// transactions, which is why the miners' combine order, the arena free
// lists, the prefix-blocked kernels and lazy materialization all apply
// unchanged. The co-occurrence compression of the tree makes the
// lists (and every merge over them) shorter than the equivalent
// tidset/diffset work on dense databases.
//
// Mid-run degrade is exact, not approximate: the PPC pass assigns
// every tree node a contiguous interval of relabeled TIDs, so a
// DiffNodeset materializes to precisely d(X) = t(PX) − t(X) in the
// relabeled space, and a whole level converts to DiffsetNodes whose
// subsequent combines are exact (the relabeling is a bijection on
// transactions, so supports — the only observable — are unchanged).

package vertical

import (
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// NodesetNode carries one itemset's node list: level-1 roots hold the
// item's N-list (pre/post/count triples), deeper nodes hold the
// DiffNodeset DN(X) = NL(parent) − NL(X). Both reference nodes of the
// per-run Encoding that Roots built.
//
// A 2-itemset child born while the encoding carries the pair-support
// matrix is deferred: its support comes from the O(1) matrix lookup
// and lx/ly hold the parents' N-lists in place of a materialized DN.
// The ancestor merge runs only if the child is later used as a parent
// (or degraded) — candidates that die against minsup, and the last
// members of exhausted classes, never pay for a list at all. Deferral
// is single-owner: in class-recursive miners a level-2 node belongs to
// exactly one equivalence class whose combines run within one task;
// level-synchronous miners restore the discipline with a Prepare
// prepass at each level boundary.
type NodesetNode struct {
	Enc    *nodeset.Encoding
	L1     []nodeset.L1Entry // level-1 N-list; nil below the roots
	DN     nodeset.List      // DiffNodeset; nil at the roots
	lx, ly []nodeset.L1Entry // deferred 2-itemset parents; nil once materialized
	code   int               // dense item code; meaningful at roots only
	sup    int
	root   bool
	// unbilled marks a node born deferred: the miners charged it to the
	// memory budget at zero bytes (no list existed), so Bytes must keep
	// reporting zero after a later materialize — the miners' retirement
	// pass re-reads Bytes, and an asymmetric answer would drive the
	// live-bytes books negative. The materialized list is class-
	// transient arena scratch; kcount's bytes_materialized_nodeset
	// carries its true size.
	unbilled bool
}

func (n *NodesetNode) Support() int { return n.sup }

// materialize runs the deferred ancestor merge, reusing whatever DN
// capacity the node carries from the arena. No-op on eager nodes. The
// node and its bytes hit the kcount tallies here, not at deferral —
// nodes_built and bytes_materialized report lists that exist.
func (n *NodesetNode) materialize() {
	if n.lx == nil {
		return
	}
	n.DN, _ = nodeset.DiffL1Into(n.lx, n.ly, n.DN)
	n.lx, n.ly = nil, nil
	kcount.AddNodes(kcount.Nodeset, 0, nodeset.EntryBytes*len(n.DN))
}

// Prepare implements Preparer: miners call it on every shared parent
// before a parallel stage, because one node serves as x in its own
// block or task and as y in its elder siblings' — concurrent tasks
// that would otherwise both run the deferred merge.
func (n *NodesetNode) Prepare() { n.materialize() }

// Bytes is the node's own list footprint. The per-run Encoding (the
// N-list arena and the degrade interval table) is shared by every node
// of the run and accounted by the roots' N-lists, which alias it.
func (n *NodesetNode) Bytes() int {
	if n.root {
		return nodeset.L1EntryBytes * len(n.L1)
	}
	if n.unbilled {
		return 0
	}
	return nodeset.EntryBytes * len(n.DN)
}

type nodesetRep struct{}

func (nodesetRep) Kind() Kind { return Nodeset }

func (nodesetRep) Roots(rec *dataset.Recoded) []Node {
	enc := nodeset.Build(rec)
	nodes := make([]Node, len(rec.Items))
	for i := range rec.Items {
		n := &NodesetNode{Enc: enc, L1: enc.NLists[i], code: i, sup: rec.Items[i].Support, root: true}
		nodes[i] = n
		kcount.AddNode(kcount.Nodeset, n.Bytes())
	}
	return nodes
}

// levels panics when a combine crosses levels. The miners only combine
// equivalence-class siblings, so both parents are roots (N-list form)
// or both are deeper (DiffNodeset form); a mixed pair would silently
// read a nil list, so it is rejected loudly instead.
func levels(a, b *NodesetNode) bool {
	if a.root != b.root {
		panic("vertical: nodeset combine across tree levels (parents must be class siblings)")
	}
	return a.root
}

func (nodesetRep) CombineSupport(px, py Node) int {
	a, b := px.(*NodesetNode), py.(*NodesetNode)
	if levels(a, b) {
		if sup, ok := a.Enc.PairSupport(a.code, b.code); ok {
			return sup
		}
		return a.sup - nodeset.DiffL1Size(a.L1, b.L1)
	}
	a.materialize()
	b.materialize()
	return a.sup - nodeset.DiffSize(b.DN, a.DN)
}

// getNodeset pops a recycled nodeset node (list truncated, capacity
// kept) or allocates one. Nil-safe like its siblings. Recycled nodes
// may have been roots; the root form is reset so the node can carry a
// DiffNodeset.
func (a *Arena) getNodeset() *NodesetNode {
	if a == nil {
		return &NodesetNode{}
	}
	if n := len(a.nodesets); n > 0 {
		nd := a.nodesets[n-1]
		a.nodesets[n-1] = nil
		a.nodesets = a.nodesets[:n-1]
		nd.L1, nd.root = nil, false
		nd.lx, nd.ly = nil, nil
		nd.unbilled = false
		a.hits++
		return nd
	}
	a.misses++
	return &NodesetNode{}
}

// scratchNodesets returns the batched kernel's per-call slices: sibling
// N-list views, sibling DiffNodeset views, destination lists and count
// sums, arena-owned like scratchSets.
func (a *Arena) scratchNodesets(m int) (l1s [][]nodeset.L1Entry, srcs, dsts []nodeset.List, sums []int) {
	if a == nil {
		return make([][]nodeset.L1Entry, m), make([]nodeset.List, m), make([]nodeset.List, m), make([]int, m)
	}
	if cap(a.batchNLL1) < m {
		a.batchNLL1 = make([][]nodeset.L1Entry, m)
		a.batchNLSrc = make([]nodeset.List, m)
		a.batchNLDst = make([]nodeset.List, m)
		a.batchNLSum = make([]int, m)
	}
	return a.batchNLL1[:m], a.batchNLSrc[:m], a.batchNLDst[:m], a.batchNLSum[:m]
}

// CombineManyInto ignores minSup: the nodeset child is always exact (a
// DiffNodeset count bound is an open item).
func (nodesetRep) CombineManyInto(px Node, pys []Node, out []Node, a *Arena, _ int) {
	m := len(pys)
	if m == 0 {
		return
	}
	x := px.(*NodesetNode)
	atRoots := levels(x, pys[0].(*NodesetNode))
	if atRoots && x.Enc.HasPairs() {
		// Deferred level-2 block: supports come from the pair matrix,
		// lists only if a child is later extended.
		for i, py := range pys {
			y := py.(*NodesetNode)
			nd := a.getNodeset()
			nd.Enc = x.Enc
			nd.sup, _ = x.Enc.PairSupport(x.code, y.code)
			nd.lx, nd.ly = x.L1, y.L1
			nd.DN = nd.DN[:0]
			nd.unbilled = true
			out[i] = nd
		}
		kcount.AddNodes(kcount.Nodeset, m, 0)
		return
	}
	l1s, srcs, dsts, sums := a.scratchNodesets(m)
	if !atRoots {
		x.materialize()
	}
	for i, py := range pys {
		y := py.(*NodesetNode)
		nd := a.getNodeset()
		nd.Enc = x.Enc
		if atRoots {
			l1s[i] = y.L1
			if cap(nd.DN) < len(x.L1) {
				nd.DN = make(nodeset.List, 0, len(x.L1))
			}
		} else {
			y.materialize()
			srcs[i] = y.DN
			if cap(nd.DN) < len(y.DN) {
				nd.DN = make(nodeset.List, 0, len(y.DN))
			}
		}
		dsts[i] = nd.DN
		out[i] = nd
	}
	if atRoots {
		nodeset.DiffL1ManyInto(x.L1, l1s, dsts, sums)
	} else {
		nodeset.DiffManyInto(x.DN, srcs, dsts, sums)
	}
	bytes := 0
	for i := range dsts {
		nd := out[i].(*NodesetNode)
		nd.DN = dsts[i]
		nd.sup = x.sup - sums[i]
		bytes += nd.Bytes()
	}
	kcount.AddNodes(kcount.Nodeset, m, bytes)
}

// diffTIDs materializes a DiffNodeset to its relabeled TID set via the
// encoding's interval table: entries are sorted by pre-order rank and
// an antichain's intervals are disjoint and ascending, so the
// expansion is already a sorted set. This is the exact bridge from the
// nodeset representation to the diffset one: trans(DN(X)) = t(PX) −
// t(X) in the relabeled transaction space.
func (n *NodesetNode) diffTIDs() tidset.Set {
	n.materialize()
	out := make(tidset.Set, 0, n.DN.CountSum())
	for _, e := range n.DN {
		lo := n.Enc.Lo[e.Pre]
		for k := uint32(0); k < e.Count; k++ {
			out = append(out, tidset.TID(lo+k))
		}
	}
	return out
}

// rootTIDs materializes a root's N-list to the item's relabeled
// tidset.
func (n *NodesetNode) rootTIDs() tidset.Set {
	sup := 0
	for _, e := range n.L1 {
		sup += int(e.Count)
	}
	out := make(tidset.Set, 0, sup)
	for _, e := range n.L1 {
		lo := n.Enc.Lo[e.Pre]
		for k := uint32(0); k < e.Count; k++ {
			out = append(out, tidset.TID(lo+k))
		}
	}
	return out
}
