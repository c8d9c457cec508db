package vertical

import (
	"math/rand"
	"testing"

	"repro/internal/kcount"
)

// TestBoundedCombineEveryKind walks AllKinds at random minSup values,
// two levels deep — roots against roots, then pairs against pairs,
// where the diffset and nodeset kinds switch kernels — with batches of
// size > 1 (CombineManyInto) and of size 1 (Combine), each through an
// arena and without one. Every child is held to the oracle under the
// bound. The kinds that honor the bound must also have tallied
// combines_aborted, and a dead diffset child built without an arena
// must fit the limit+1 presize.
func TestBoundedCombineEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rec := randomRecoded(t, rng, 9, 80)
	for _, kind := range AllKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		o := newOracle(t, kind, rec, roots)
		// Two blocks: root 0 against roots 1.., and pair {0,1} against
		// pairs {0,2}, {0,3}, ...; items[k] is the itemset of child k.
		type block struct {
			px    Node
			pys   []Node
			items [][]int
		}
		ps := pairs(rep, roots)
		var blocks [2]block
		blocks[0] = block{px: roots[0], pys: roots[1:]}
		blocks[1] = block{px: ps[0], pys: ps[1:]}
		for k := range blocks[0].pys {
			blocks[0].items = append(blocks[0].items, []int{0, k + 1})
		}
		for k := range blocks[1].pys {
			blocks[1].items = append(blocks[1].items, []int{0, 1, k + 2})
		}

		a := NewArena()
		tok := kcount.BeginRun()
		for trial := 0; trial < 30; trial++ {
			for _, b := range blocks {
				minSup := 1 + rng.Intn(b.px.Support()+2)
				for _, arena := range []*Arena{a, nil} {
					out := make([]Node, len(b.pys))
					rep.CombineManyInto(b.px, b.pys, out, arena, minSup)
					for k := range b.pys {
						o.check(t, out[k], minSup, b.items[k]...)
						sup, _ := o.want(b.items[k])
						if d, ok := out[k].(*DiffsetNode); ok && arena == nil && sup < minSup {
							if limit := b.px.Support() - minSup; cap(d.Diff) > max(limit+1, 0) {
								t.Fatalf("dead diffset child: cap %d, want ≤ limit+1 = %d", cap(d.Diff), limit+1)
							}
						}
						a.Release(out[k])
					}
					for k, py := range b.pys {
						got := Combine(rep, arena, b.px, py, minSup)
						o.check(t, got, minSup, b.items[k]...)
						a.Release(got)
					}
				}
			}
		}
		bounded := kind == Tidset || kind == Diffset
		if (a.aborted > 0) != bounded {
			t.Fatalf("%v: arena tallied %d aborted combines; bounded kind: %v", kind, a.aborted, bounded)
		}
		a.Flush()
		delta, exclusive := tok.End()
		if got := delta.Map()["combines_aborted"]; exclusive && (got > 0) != bounded {
			t.Fatalf("%v: kcount combines_aborted = %d; bounded kind: %v", kind, got, bounded)
		}
	}
}
