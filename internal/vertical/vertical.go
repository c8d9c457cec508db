// Package vertical implements the vertical transaction representations
// the miners program against: the paper's three of §II-B — tidset,
// bitvector and diffset — plus two extensions, the tile-partitioned
// tidset layout (tiled.go) and Deng's DiffNodesets (nodesetrep.go),
// all behind one Representation interface shared by Apriori and Eclat.
//
// A Node is the per-itemset payload: whatever the representation needs to
// compute the support of children. The only structural operation the
// miners perform is combine(PX, PY) → PXY, where PX and PY are k-itemsets
// sharing a (k−1)-prefix P and PX's last item precedes PY's:
//
//	tidset:    t(PXY) = t(PX) ∩ t(PY),        support = |t(PXY)|
//	bitvector: b(PXY) = b(PX) AND b(PY),      support = popcount
//	diffset:   d(PXY) = d(PY) − d(PX),        support = support(PX) − |d(PXY)|
//
// The diffset rule is Equation 1 of the paper (after Zaki & Gouda); the
// operand order therefore matters for diffsets and the miners are
// careful to pass the smaller-last-item parent first.
//
// Each kind implements that operation once, as CombineManyInto: one
// parent PX against a run of siblings PY sharing its prefix, the
// prefix-blocked batch of Amossen & Pagh (batch.go). A single pair is
// a batch of one (Combine, arena.go). The only other kernel is the
// count-only CombineSupport of Apriori's lazy materialization.
//
// Combines take the run's minimum support and stop building a child as
// soon as it cannot reach it. The contract, for every kind:
//
//   - a child whose support is at least minSup is exact;
//   - a child below minSup reports some Support() < minSup, not
//     necessarily its true support, and its payload is unspecified. The
//     miners release it to the arena unused.
//
// The diffset kernel stops once |d(PXY)| > support(PX) − minSup, the
// tidset kernel once the matches so far plus the shorter operand's
// remainder fall below minSup (tidset.DiffInto, tidset.IntersectInto).
// The bitvector, tiled and nodeset kinds accept the bound and ignore
// it: their children are always exact. minSup ≤ 0 asks every kind for
// the exact child.
package vertical

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/kcount"
	"repro/internal/tidset"
)

// Kind selects a vertical representation: the paper's three plus the
// Tiled layout (tiled.go) and the Nodeset representation
// (nodesetrep.go). The values mirror kcount's kind indices.
type Kind int

const (
	Tidset Kind = iota
	Bitvector
	Diffset
	Tiled
	Nodeset
)

// String returns the paper's name for the representation.
func (k Kind) String() string {
	switch k {
	case Tidset:
		return "tidset"
	case Bitvector:
		return "bitvector"
	case Diffset:
		return "diffset"
	case Tiled:
		return "tiled"
	case Nodeset:
		return "nodeset"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists the paper's three representations, in the paper's order.
func Kinds() []Kind { return []Kind{Tidset, Bitvector, Diffset} }

// AllKinds is the canonical list of every representation the package
// implements: the paper's three plus the Tiled layout (tiled.go) and
// the Nodeset representation (nodesetrep.go). Adding a Kind means
// adding it here; kinds_test.go walks this slice and fails any kind
// missing from New, ParseKind, String, the arena Release switch or the
// degrade tables, so the non-exhaustive switches below cannot silently
// skip a new entry.
func AllKinds() []Kind { return []Kind{Tidset, Bitvector, Diffset, Tiled, Nodeset} }

// ParseKind maps a name ("tidset", "bitvector", "diffset", "tiled",
// "nodeset") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "tidset":
		return Tidset, nil
	case "bitvector":
		return Bitvector, nil
	case "diffset":
		return Diffset, nil
	case "tiled":
		return Tiled, nil
	case "nodeset":
		return Nodeset, nil
	}
	return 0, fmt.Errorf("vertical: unknown representation %q", s)
}

// Node is the per-itemset payload of one representation.
type Node interface {
	// Support returns the number of transactions containing the itemset.
	Support() int
	// Bytes returns the payload's memory footprint, the quantity the
	// perf instrumentation uses as its NUMA-traffic proxy. Reading a
	// parent during a combine moves this many bytes.
	Bytes() int
}

// Preparer is implemented by nodes that defer part of their payload
// past construction (the nodeset representation's lazy 2-itemset
// lists); Prepare forces the deferred work and is a no-op otherwise.
// Deferral is single-owner: a miner whose parallel tasks share parents
// — Apriori's level-parallel blocks, Eclat's (class, pos) stages —
// must Prepare every such parent exactly once before fanning out.
type Preparer interface{ Prepare() }

// Representation builds and combines Nodes of one Kind.
type Representation interface {
	Kind() Kind
	// Roots builds the level-1 node for every frequent item of rec,
	// indexed by dense item code.
	Roots(rec *dataset.Recoded) []Node
	// CombineManyInto is the kind's one combine: it combines parent px
	// against every sibling of a prefix block, storing child PXY_i in
	// out[i] (len(out) must be at least len(pys)). Every child reaching
	// minSup is exact; a child below it reports some Support() < minSup
	// and is left partly built (see the package doc). The kernels
	// stream the shared parent once per block (batch.go). Node storage
	// recycles through arena when one is supplied — nil is allowed and
	// falls back to fresh allocation. Results never share backing
	// memory with px or any pys element.
	CombineManyInto(px Node, pys []Node, out []Node, arena *Arena, minSup int)
	// CombineSupport returns the exact support of the child of px and
	// py without materializing its payload — the kernel of Apriori's
	// lazy-materialization optimization (core.Options LazyMaterialize,
	// ablation A10): infrequent candidates are pruned before their sets
	// are ever allocated.
	CombineSupport(px, py Node) int
}

// New returns the Representation for kind.
func New(kind Kind) Representation {
	switch kind {
	case Tidset:
		return tidsetRep{}
	case Bitvector:
		return bitvectorRep{}
	case Diffset:
		return diffsetRep{}
	case Tiled:
		return tiledRep{}
	case Nodeset:
		return nodesetRep{}
	}
	panic(fmt.Sprintf("vertical: unknown kind %d", int(kind)))
}

// --- tidset -----------------------------------------------------------

// TidsetNode carries t(X) for one itemset.
type TidsetNode struct {
	TIDs tidset.Set
}

func (n *TidsetNode) Support() int { return len(n.TIDs) }
func (n *TidsetNode) Bytes() int   { return 4 * len(n.TIDs) }

type tidsetRep struct{}

func (tidsetRep) Kind() Kind { return Tidset }

func (tidsetRep) Roots(rec *dataset.Recoded) []Node {
	sets := rec.TidsetOf()
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &TidsetNode{TIDs: s}
		kcount.AddNode(kcount.Tidset, 4*len(s))
	}
	return nodes
}

// --- bitvector --------------------------------------------------------

// BitvectorNode carries the transaction bitmask and a cached popcount.
type BitvectorNode struct {
	Bits *bitvec.Vector
	sup  int
}

func (n *BitvectorNode) Support() int { return n.sup }
func (n *BitvectorNode) Bytes() int   { return 8 * n.Bits.Words() }

type bitvectorRep struct{}

func (bitvectorRep) Kind() Kind { return Bitvector }

func (bitvectorRep) Roots(rec *dataset.Recoded) []Node {
	n := rec.DB.NumTransactions()
	sets := rec.TidsetOf()
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &BitvectorNode{Bits: bitvec.FromTIDs(n, s), sup: len(s)}
		kcount.AddNode(kcount.Bitvector, nodes[i].Bytes())
	}
	return nodes
}

// --- diffset ----------------------------------------------------------

// DiffsetNode carries d(X) and the itemset's support, which the diffset
// alone cannot reproduce (support(PXY) = support(PX) − |d(PXY)|).
type DiffsetNode struct {
	Diff tidset.Set
	sup  int
}

// NewDiffsetNode builds a node from an explicit diffset and support.
// Exposed for tests and for the closed-itemset extension.
func NewDiffsetNode(d tidset.Set, support int) *DiffsetNode {
	return &DiffsetNode{Diff: d, sup: support}
}

func (n *DiffsetNode) Support() int { return n.sup }
func (n *DiffsetNode) Bytes() int   { return 4 * len(n.Diff) }

type diffsetRep struct{}

func (diffsetRep) Kind() Kind { return Diffset }

// Roots seeds level-1 diffsets as the complement of each item's tidset
// within the transaction universe (paper Figure 2(a)): d(x) = D − t(x),
// support(x) = |D| − |d(x)|.
func (diffsetRep) Roots(rec *dataset.Recoded) []Node {
	n := rec.DB.NumTransactions()
	sets := rec.TidsetOf()
	nodes := make([]Node, len(sets))
	for i, s := range sets {
		nodes[i] = &DiffsetNode{Diff: s.Complement(n), sup: len(s)}
		kcount.AddNode(kcount.Diffset, nodes[i].Bytes())
	}
	return nodes
}

func (tidsetRep) CombineSupport(px, py Node) int {
	return px.(*TidsetNode).TIDs.IntersectSize(py.(*TidsetNode).TIDs)
}

func (bitvectorRep) CombineSupport(px, py Node) int {
	return px.(*BitvectorNode).Bits.AndCount(py.(*BitvectorNode).Bits)
}

func (diffsetRep) CombineSupport(px, py Node) int {
	a, b := px.(*DiffsetNode), py.(*DiffsetNode)
	return a.sup - b.Diff.DiffSize(a.Diff)
}

// Degradable reports whether a run over kind can degrade to diffsets
// mid-run when its memory budget is crossed. Diffset needs no cure, so
// the representations that can blow past one blade (§V-A) qualify: the
// paper's tidset and
// bitvector, the tiled layout (footprint tracks the tidset's), and
// the nodeset representation, whose interval table materializes exact
// relabeled diffsets.
func Degradable(kind Kind) bool {
	return kind == Tidset || kind == Bitvector || kind == Tiled || kind == Nodeset
}

// DegradeChild converts a tidset or bitvector node into the equivalent
// DiffsetNode relative to its generation parent: d(X) = t(parent) −
// t(X), the standard diffset layout, so subsequent sibling combines
// under diffsetRep are exact. Returns nil for kinds Degradable rejects.
//
// This is the engine's adaptive application of the paper's own remedy:
// when the breadth-first payload footprint crosses the run's memory
// budget, a level of tidsets/bitvectors is rewritten in place as
// diffsets and the run continues under the bounded representation.
func DegradeChild(parent, child Node) Node {
	switch c := child.(type) {
	case *TidsetNode:
		p := parent.(*TidsetNode)
		return &DiffsetNode{Diff: p.TIDs.Diff(c.TIDs), sup: len(c.TIDs)}
	case *BitvectorNode:
		p := parent.(*BitvectorNode)
		return &DiffsetNode{Diff: p.Bits.AndNot(c.Bits).TIDs(), sup: c.sup}
	case *TiledNode:
		p := parent.(*TiledNode)
		d := p.T.DiffInto(c.T, &tidset.Tiled{})
		return &DiffsetNode{Diff: d.AppendTo(nil), sup: c.T.Len()}
	case *NodesetNode:
		// The DiffNodeset already IS d(X) = t(PX) − t(X), with tree
		// nodes standing for runs of relabeled transactions; expanding
		// the intervals yields the exact diffset (parent unused). Every
		// live node of a level degrades together, so the relabeled TID
		// space is globally consistent for all later diffset combines.
		return &DiffsetNode{Diff: c.diffTIDs(), sup: c.sup}
	}
	return nil
}

// DegradeRoot converts a level-1 tidset or bitvector node into diffset
// form relative to the transaction universe, d(x) = D − t(x), matching
// diffsetRep.Roots. Returns nil for kinds Degradable rejects.
func DegradeRoot(n Node, universe int) Node {
	switch c := n.(type) {
	case *TidsetNode:
		return &DiffsetNode{Diff: c.TIDs.Complement(universe), sup: len(c.TIDs)}
	case *BitvectorNode:
		return &DiffsetNode{Diff: c.Bits.Not().TIDs(), sup: c.sup}
	case *TiledNode:
		return &DiffsetNode{Diff: c.T.ToSet().Complement(universe), sup: c.T.Len()}
	case *NodesetNode:
		// d(x) = D − t(x) over the relabeled universe: transactions the
		// frequent-item filter emptied never entered the tree, so they
		// occupy the label range above Encoding.Total and fall into the
		// complement of every item, exactly as in the original space.
		return &DiffsetNode{Diff: c.rootTIDs().Complement(universe), sup: c.sup}
	}
	return nil
}

// NodesBytes sums the payload footprint of a node slice (nil entries
// allowed), the quantity the run-control memory budget accounts.
func NodesBytes(nodes []Node) int64 {
	var b int64
	for _, n := range nodes {
		if n != nil {
			b += int64(n.Bytes())
		}
	}
	return b
}

// CombineCost returns the number of bytes a combine reads from its parents:
// the quantity charged as communication when a parent lives on a remote
// NUMA node. It is simply the sum of the parents' footprints.
func CombineCost(px, py Node) int { return px.Bytes() + py.Bytes() }
