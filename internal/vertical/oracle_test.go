package vertical

// The independent oracle the kernel tests check every kind against: a
// naive sorted-set intersection over the database's per-item tidsets,
// written here without the tidset package, so a combine kernel can
// never be checked against itself.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/tidset"
)

// oracle holds the per-item tidsets of one kind's roots and answers
// what a node for any itemset must hold.
type oracle struct {
	kind     Kind
	base     [][]tidset.TID
	universe int
}

// newOracle builds the oracle for kind over rec. The nodeset kind's
// payloads live in the relabeled transaction space of its PPC
// encoding; there the roots' expanded N-lists serve as the per-item
// tidsets (relabeling is a bijection, so supports are unchanged), after
// a check that each has the item's support.
func newOracle(t testing.TB, kind Kind, rec *dataset.Recoded, roots []Node) *oracle {
	t.Helper()
	o := &oracle{kind: kind, universe: rec.DB.NumTransactions()}
	for i, s := range rec.TidsetOf() {
		b := []tidset.TID(s)
		if kind == Nodeset {
			b = roots[i].(*NodesetNode).rootTIDs()
			if len(b) != len(s) {
				t.Fatalf("nodeset root %d expands to %d tids, support %d", i, len(b), len(s))
			}
		}
		o.base = append(o.base, b)
	}
	return o
}

// intersect is the naive sorted-set intersection.
func intersect(a, b []tidset.TID) []tidset.TID {
	var out []tidset.TID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// minus is the naive sorted-set difference a − b.
func minus(a, b []tidset.TID) []tidset.TID {
	var out []tidset.TID
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			out = append(out, x)
		}
	}
	return out
}

// tids returns t(X) for the itemset of dense codes items; the empty
// itemset is in every transaction.
func (o *oracle) tids(items []int) []tidset.TID {
	if len(items) == 0 {
		all := make([]tidset.TID, o.universe)
		for i := range all {
			all[i] = tidset.TID(i)
		}
		return all
	}
	t := o.base[items[0]]
	for _, it := range items[1:] {
		t = intersect(t, o.base[it])
	}
	return t
}

// want returns the support and logical payload (what payload returns)
// of a node for items under the oracle's kind: t(X) for the tidset,
// bitvector and tiled kinds and for nodeset roots; t(P) − t(X) for the
// diffset kind and deeper nodeset nodes, P being items without its
// last element.
func (o *oracle) want(items []int) (int, []tidset.TID) {
	t := o.tids(items)
	switch {
	case o.kind == Diffset, o.kind == Nodeset && len(items) > 1:
		return len(t), minus(o.tids(items[:len(items)-1]), t)
	}
	return len(t), t
}

// check holds node n, built for items under minSup, to the package
// contract: exact when the itemset reaches minSup, otherwise reporting
// some support below minSup.
func (o *oracle) check(t testing.TB, n Node, minSup int, items ...int) {
	t.Helper()
	sup, pay := o.want(items)
	if sup < minSup {
		if n.Support() >= minSup {
			t.Fatalf("%v %v minSup %d: dead child reports support %d (true %d)",
				o.kind, items, minSup, n.Support(), sup)
		}
		return
	}
	if n.Support() != sup {
		t.Fatalf("%v %v minSup %d: support %d, want %d", o.kind, items, minSup, n.Support(), sup)
	}
	if got := payload(n); !samePayload(got, pay) {
		t.Fatalf("%v %v minSup %d: payload %v, want %v", o.kind, items, minSup, got, pay)
	}
}

// pairs builds the exact level-2 nodes {0, j} for j ≥ 1, the parents of
// the tests' second-level combines.
func pairs(rep Representation, roots []Node) []Node {
	out := make([]Node, len(roots)-1)
	rep.CombineManyInto(roots[0], roots[1:], out, nil, 0)
	return out
}
