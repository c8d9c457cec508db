package vertical

import (
	"math/rand"
	"testing"

	"repro/internal/kcount"
)

// checkBoundedChild holds one bounded combine result to the package
// contract against the unbounded child want: identical when want
// reaches minSup, otherwise reporting some support below minSup.
func checkBoundedChild(t *testing.T, kind Kind, got, want Node, minSup int) {
	t.Helper()
	if want.Support() < minSup {
		if got.Support() >= minSup {
			t.Fatalf("%v minSup %d: dead child reports support %d (true %d)",
				kind, minSup, got.Support(), want.Support())
		}
		return
	}
	if got.Support() != want.Support() {
		t.Fatalf("%v minSup %d: support %d, want %d", kind, minSup, got.Support(), want.Support())
	}
	if kind != Hybrid && !samePayload(payload(got), payload(want)) {
		t.Fatalf("%v minSup %d: payload %v, want %v", kind, minSup, payload(got), payload(want))
	}
}

// TestBoundedCombineEveryKind walks AllKinds and runs CombineManyInto
// (through an arena and without one) and CombineWith at random minSup
// values, two levels deep: roots against roots, then pairs against
// pairs, where the diffset and nodeset kinds switch kernels. Every
// child is checked against the unbounded Combine. The kinds that honor
// the bound must also have tallied combines_aborted, and a dead diffset
// child built without an arena must fit the limit+1 presize.
func TestBoundedCombineEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rec := randomRecoded(t, rng, 9, 80)
	for _, kind := range AllKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		pairs := make([]Node, len(roots)-1)
		for j := range pairs {
			pairs[j] = rep.Combine(roots[0], roots[j+1])
		}
		blocks := []struct {
			px  Node
			pys []Node
		}{{roots[0], roots[1:]}, {pairs[0], pairs[1:]}}

		a := NewArena()
		tok := kcount.BeginRun()
		for trial := 0; trial < 30; trial++ {
			for _, b := range blocks {
				minSup := 1 + rng.Intn(b.px.Support()+2)
				for _, arena := range []*Arena{a, nil} {
					out := make([]Node, len(b.pys))
					rep.CombineManyInto(b.px, b.pys, out, arena, minSup)
					for k, py := range b.pys {
						want := rep.Combine(b.px, py)
						checkBoundedChild(t, kind, out[k], want, minSup)
						if d, ok := out[k].(*DiffsetNode); ok && arena == nil && want.Support() < minSup {
							if limit := b.px.Support() - minSup; cap(d.Diff) > max(limit+1, 0) {
								t.Fatalf("dead diffset child: cap %d, want ≤ limit+1 = %d", cap(d.Diff), limit+1)
							}
						}
						a.Release(out[k])
					}
				}
				for _, py := range b.pys {
					got := CombineWith(rep, a, b.px, py, minSup)
					checkBoundedChild(t, kind, got, rep.Combine(b.px, py), minSup)
					a.Release(got)
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
