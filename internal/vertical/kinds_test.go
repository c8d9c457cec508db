package vertical

// The exhaustive-kind coverage gate (satellite of the nodeset PR):
// several switches in this package and its callers are written over
// Kind or over node types without a default that fails, so a newly
// added kind could silently fall through — combining without arena
// recycling, never degrading, or dropping its kernel counters. This
// test walks AllKinds(), the single canonical slice every new kind
// must join, and fails loudly for any kind missing from New, ParseKind
// and String, the Roots/CombineManyInto contract, the arena Release
// switch, the degrade tables, or kcount's kind mirror.

import (
	"strings"
	"testing"

	"repro/internal/kcount"
)

func TestAllKindsCoverage(t *testing.T) {
	rec := exampleRecoded(t, 1)
	seen := map[Kind]bool{}
	for _, kind := range AllKinds() {
		if seen[kind] {
			t.Fatalf("%v appears twice in AllKinds", kind)
		}
		seen[kind] = true

		// Identity plumbing: String, ParseKind, New.
		name := kind.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no String name", int(kind))
		}
		parsed, err := ParseKind(name)
		if err != nil || parsed != kind {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, parsed, err, kind)
		}
		rep := New(kind)
		if rep.Kind() != kind {
			t.Fatalf("New(%v).Kind() = %v", kind, rep.Kind())
		}

		// Mining contract: Roots, single pairs and a block agree with
		// the oracle, two levels deep.
		roots := rep.Roots(rec)
		if len(roots) != len(rec.Items) {
			t.Fatalf("%v: %d roots, want %d", kind, len(roots), len(rec.Items))
		}
		o := newOracle(t, kind, rec, roots)
		pair := Combine(rep, nil, roots[0], roots[1], 0)
		o.check(t, pair, 0, 0, 1)
		sib := Combine(rep, nil, roots[0], roots[2], 0)
		triple := Combine(rep, nil, pair, sib, 0)
		o.check(t, triple, 0, 0, 1, 2)
		pys := []Node{roots[1], roots[2], roots[3]}
		out := make([]Node, len(pys))
		rep.CombineManyInto(roots[0], pys, out, nil, 0)
		for i := range pys {
			o.check(t, out[i], 0, 0, i+1)
		}

		// Arena coverage: every kind must be accepted by the Release
		// switch, or recycling silently never happens for it.
		a := NewArena()
		a.Release(Combine(rep, a, roots[0], roots[1], 0))
		c := Combine(rep, a, roots[0], roots[2], 0)
		if a.hits != 1 {
			t.Fatalf("%v: Release/Combine recycled nothing (hits=%d) — kind missing from the Release switch?", kind, a.hits)
		}
		o.check(t, c, 0, 0, 2)

		// Degrade coverage: Degradable(kind) must agree with the
		// DegradeChild/DegradeRoot type switches, and the degraded
		// diffsets must preserve supports and continue combining
		// exactly (the degraded pair and sibling recombine to the
		// triple's support).
		dc := DegradeChild(roots[0], pair)
		dr := DegradeRoot(roots[0], rec.Universe)
		if Degradable(kind) != (dc != nil) || Degradable(kind) != (dr != nil) {
			t.Fatalf("%v: Degradable=%v but DegradeChild=%v DegradeRoot=%v — kind missing from a degrade switch?",
				kind, Degradable(kind), dc != nil, dr != nil)
		}
		if dc != nil {
			if dc.Support() != pair.Support() {
				t.Fatalf("%v: degraded child support %d, want %d", kind, dc.Support(), pair.Support())
			}
			if dr.Support() != roots[0].Support() {
				t.Fatalf("%v: degraded root support %d, want %d", kind, dr.Support(), roots[0].Support())
			}
			ds := DegradeChild(roots[0], sib).(*DiffsetNode)
			dTriple := Combine(New(Diffset), nil, dc, ds, 0)
			if want, _ := o.want([]int{0, 1, 2}); dTriple.Support() != want {
				t.Fatalf("%v: post-degrade combine support %d, want %d", kind, dTriple.Support(), want)
			}
		}

		// kcount mirror: a combine must charge the kind's own counter
		// under the matching wire name (vertical.Kind and kcount's kind
		// indices are maintained in parallel).
		tok := kcount.BeginRun()
		Combine(rep, nil, roots[0], roots[1], 0)
		delta, _ := tok.End()
		if delta.Map()["nodes_built_"+name] == 0 {
			t.Fatalf("%v: Combine charged no nodes_built_%s — kcount kind mirror out of sync?", kind, name)
		}
	}
}
