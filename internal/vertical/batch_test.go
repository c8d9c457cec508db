package vertical

import (
	"math/rand"
	"testing"

	"repro/internal/tidset"
)

// TestCombineManyIntoMatchesCombine: a block of m siblings is
// semantically m batches of one — every child of a block holds the
// support and set of the same pair run through Combine, and both hold
// the oracle's — for every kind, over root blocks and again over pair
// blocks one level down, with both a nil arena and a recycling arena
// whose buffers go through Release between blocks.
func TestCombineManyIntoMatchesCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rec := randomRecoded(t, rng, 8, 60)
	for _, kind := range AllKinds() {
		for _, arena := range []*Arena{nil, NewArena()} {
			rep := New(kind)
			roots := rep.Roots(rec)
			o := newOracle(t, kind, rec, roots)
			ps := pairs(rep, roots)
			type block struct {
				px     Node
				pys    []Node
				prefix []int
				first  int // item of pys[0]
			}
			var blocks []block
			for i := 0; i < len(roots)-1; i++ {
				blocks = append(blocks, block{roots[i], roots[i+1:], []int{i}, i + 1})
			}
			for j := 0; j < len(ps)-1; j++ {
				blocks = append(blocks, block{ps[j], ps[j+1:], []int{0, j + 1}, j + 2})
			}
			for _, b := range blocks {
				out := make([]Node, len(b.pys))
				rep.CombineManyInto(b.px, b.pys, out, arena, 0)
				for k, py := range b.pys {
					items := append(append([]int(nil), b.prefix...), b.first+k)
					o.check(t, out[k], 0, items...)
					one := Combine(rep, nil, b.px, py, 0)
					if out[k].Support() != one.Support() || !samePayload(payload(out[k]), payload(one)) {
						t.Fatalf("%v %v: block child differs from the batch of one", kind, items)
					}
				}
				for _, n := range out {
					arena.Release(n) // nil-safe; recycles buffers for the next block
				}
			}
		}
	}
}

// TestCombineManyIntoNeverAliases extends the arena aliasing property
// to batched outputs: scribbling over any batched child's full buffer
// capacity must leave the shared parent, every sibling parent, and
// every sibling output untouched — and scribbling the parents must
// leave the children untouched. Three rounds, so rounds past the first
// run on buffers recycled through the free list.
func TestCombineManyIntoNeverAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rec := randomRecoded(t, rng, 7, 50)
	for _, kind := range AllKinds() {
		rep := New(kind)
		a := NewArena()
		for round := 0; round < 3; round++ {
			// Direction 1: scribbling child j leaves parents and sibling
			// outputs intact.
			roots := New(kind).Roots(rec)
			px, pys := roots[0], roots[1:]
			parentsBefore := make([][]tidset.TID, len(roots))
			for i, r := range roots {
				parentsBefore[i] = payload(r)
			}
			out := make([]Node, len(pys))
			rep.CombineManyInto(px, pys, out, a, 0)
			sibsBefore := make([][]tidset.TID, len(out))
			for j, n := range out {
				sibsBefore[j] = payload(n)
			}
			scribble(out[0])
			for i, r := range roots {
				if !samePayload(payload(r), parentsBefore[i]) {
					t.Fatalf("%v round %d: scribbling a child corrupted parent %d", kind, round, i)
				}
			}
			for j := 1; j < len(out); j++ {
				if !samePayload(payload(out[j]), sibsBefore[j]) {
					t.Fatalf("%v round %d: scribbling child 0 corrupted sibling %d", kind, round, j)
				}
			}
			for _, n := range out {
				a.Release(n)
			}

			// Direction 2: scribbling every parent leaves the children
			// intact.
			roots = New(kind).Roots(rec)
			px, pys = roots[0], roots[1:]
			out = make([]Node, len(pys))
			rep.CombineManyInto(px, pys, out, a, 0)
			childBefore := make([][]tidset.TID, len(out))
			for j, n := range out {
				childBefore[j] = payload(n)
			}
			for _, r := range roots {
				scribble(r)
			}
			for j, n := range out {
				if !samePayload(payload(n), childBefore[j]) {
					t.Fatalf("%v round %d: scribbling parents corrupted child %d", kind, round, j)
				}
			}
			for _, n := range out {
				a.Release(n)
			}
		}
	}
}

// TestTiledLayoutMatchesFlat: the tiled layout is semantically the
// tidset representation — every block and single-pair combine over
// tiled nodes yields exactly the flat kernels' sets and supports, at
// depth 1 and again one level down, with arena recycling in between.
// This is the vertical-level leg of the tiled×flat equivalence
// harness (the miner-level legs cross workers/depths/schedules).
func TestTiledLayoutMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 3; round++ {
		rec := randomRecoded(t, rng, 8, 80)
		flat, tiled := New(Tidset), New(Tiled)
		fRoots, tRoots := flat.Roots(rec), tiled.Roots(rec)
		if len(fRoots) != len(tRoots) {
			t.Fatal("root count disagrees across layouts")
		}
		a := NewArena()
		for i := range fRoots {
			if !samePayload(payload(fRoots[i]), payload(tRoots[i])) {
				t.Fatalf("root %d decodes differently across layouts", i)
			}
		}
		// Level 2 as one block under both layouts, then level 3 pair
		// by pair from the block's children.
		px, pys := fRoots[0], fRoots[1:]
		tx, tys := tRoots[0], tRoots[1:]
		fOut := make([]Node, len(pys))
		tOut := make([]Node, len(tys))
		flat.CombineManyInto(px, pys, fOut, a, 0)
		tiled.CombineManyInto(tx, tys, tOut, a, 0)
		for j := range fOut {
			if fOut[j].Support() != tOut[j].Support() {
				t.Fatalf("round %d child %d: support %d (flat) vs %d (tiled)",
					round, j, fOut[j].Support(), tOut[j].Support())
			}
			if !samePayload(payload(fOut[j]), payload(tOut[j])) {
				t.Fatalf("round %d child %d: layouts decode different sets", round, j)
			}
		}
		for j := 1; j < len(fOut); j++ {
			f3 := Combine(flat, a, fOut[0], fOut[j], 0)
			t3 := Combine(tiled, a, tOut[0], tOut[j], 0)
			if f3.Support() != t3.Support() || !samePayload(payload(f3), payload(t3)) {
				t.Fatalf("round %d depth-3 pair %d: layouts disagree", round, j)
			}
			a.Release(f3)
			a.Release(t3)
		}
		for j := range fOut {
			a.Release(fOut[j])
			a.Release(tOut[j])
		}
	}
}

// BenchmarkCombineManyInto times one parent against its whole sibling
// run at arena steady state: the per-block inner loop of the miners.

func BenchmarkCombineManyInto(b *testing.B) {
	for _, kind := range AllKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rep, roots := benchCombineRoots(b, kind)
			px, pys := roots[0], roots[1:]
			out := make([]Node, len(pys))
			a := NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep.CombineManyInto(px, pys, out, a, 0)
				for _, n := range out {
					a.Release(n)
				}
			}
		})
	}
}
