package vertical

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// payload returns a defensive copy of a node's logical content, for
// comparing before/after mutation.
func payload(n Node) []tidset.TID {
	switch c := n.(type) {
	case *TidsetNode:
		return append([]tidset.TID(nil), c.TIDs...)
	case *DiffsetNode:
		return append([]tidset.TID(nil), c.Diff...)
	case *BitvectorNode:
		return c.Bits.TIDs()
	case *TiledNode:
		return c.T.ToSet()
	case *NodesetNode:
		// The logical content is the relabeled TID set the lists stand
		// for — what the degrade shim materializes.
		if c.root {
			return c.rootTIDs()
		}
		return c.diffTIDs()
	}
	panic(fmt.Sprintf("unknown node %T", n))
}

func samePayload(a, b []tidset.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scribble overwrites a node's backing memory — the full capacity of a
// set-backed node, not just its length, so an empty child whose buffer
// secretly aliases a parent's array is caught too.
func scribble(n Node) {
	switch c := n.(type) {
	case *TidsetNode:
		s := c.TIDs[:cap(c.TIDs)]
		for i := range s {
			s[i] = ^tidset.TID(0)
		}
	case *DiffsetNode:
		s := c.Diff[:cap(c.Diff)]
		for i := range s {
			s[i] = ^tidset.TID(0)
		}
	case *BitvectorNode:
		for i := 0; i < c.Bits.Len(); i++ {
			if i%2 == 0 {
				c.Bits.Set(tidset.TID(i))
			} else {
				c.Bits.Clear(tidset.TID(i))
			}
		}
	case *TiledNode:
		c.T.Poison()
	case *NodesetNode:
		s := c.DN[:cap(c.DN)]
		for i := range s {
			s[i] = nodeset.Entry{Pre: ^uint32(0), Count: ^uint32(0)}
		}
	}
}

func randomRecoded(t testing.TB, rng *rand.Rand, items, txns int) *dataset.Recoded {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < txns; i++ {
		wrote := false
		for it := 1; it <= items; it++ {
			if rng.Intn(2) == 0 {
				if wrote {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", it)
				wrote = true
			}
		}
		if !wrote {
			fmt.Fprintf(&sb, "%d", 1+rng.Intn(items))
		}
		sb.WriteByte('\n')
	}
	db, err := dataset.ReadFIMI("random", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return db.Recode(1)
}

// TestCombineMatchesOracle: a pair combined as a batch of one, through
// an arena and without one, holds exactly the oracle's support and set
// for every kind, over every root pair and again one level down, with
// released nodes recycled in between.
func TestCombineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rec := randomRecoded(t, rng, 8, 60)
	for _, kind := range AllKinds() {
		for _, a := range []*Arena{NewArena(), nil} {
			rep := New(kind)
			roots := rep.Roots(rec)
			o := newOracle(t, kind, rec, roots)
			for i := 0; i < len(roots); i++ {
				for j := i + 1; j < len(roots); j++ {
					got := Combine(rep, a, roots[i], roots[j], 0)
					o.check(t, got, 0, i, j)
					// Recycle the child so later combines exercise arena hits.
					a.Release(got)
				}
			}
			ps := pairs(rep, roots)
			for j := range ps {
				for k := j + 1; k < len(ps); k++ {
					got := Combine(rep, a, ps[j], ps[k], 0)
					o.check(t, got, 0, 0, j+1, k+1)
					a.Release(got)
				}
			}
		}
	}
}

// TestCombineNeverAliasesParents is the aliasing property of the arena
// doc comment: a combined child must not share backing memory with its
// live parents. Scribbling over the child's full buffer capacity must
// leave both parents' payloads untouched, and vice versa — including
// children recycled through Release, whose buffers migrated through
// the free list. Even rounds combine under a random minSup, so dead
// children whose capacity was trimmed to the diffset limit+1 are
// released and then recycled by the exact odd rounds, which need more
// room.
func TestCombineNeverAliasesParents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rec := randomRecoded(t, rng, 7, 50)
	for _, kind := range AllKinds() {
		rep := New(kind)
		a := NewArena()
		for round := 0; round < 4; round++ { // round > 0 uses recycled buffers
			var released []Node
			for i := 0; i < 6; i++ {
				for j := i + 1; j < 6; j++ {
					// Direction 1: scribbling the child leaves the parents
					// intact. Fresh roots per pair, since scribble destroys.
					roots := rep.Roots(rec)
					px, py := roots[i], roots[j]
					minSup := 0
					if round%2 == 0 {
						minSup = 1 + rng.Intn(px.Support()+1)
					}
					pxBefore, pyBefore := payload(px), payload(py)
					child := Combine(rep, a, px, py, minSup)
					scribble(child)
					if !samePayload(payload(px), pxBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating child corrupted px", kind, round, i, j)
					}
					if !samePayload(payload(py), pyBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating child corrupted py", kind, round, i, j)
					}
					released = append(released, child)

					// Direction 2: scribbling the parents leaves the child
					// intact.
					roots = rep.Roots(rec)
					px, py = roots[i], roots[j]
					child = Combine(rep, a, px, py, minSup)
					childBefore := payload(child)
					scribble(px)
					scribble(py)
					if !samePayload(payload(child), childBefore) {
						t.Fatalf("%v round %d {%d,%d}: mutating parents corrupted child", kind, round, i, j)
					}
					released = append(released, child)
				}
			}
			for _, n := range released {
				a.Release(n)
			}
		}
	}
}

// TestArenaHitMissAccounting: first combine misses (empty free list),
// a released node turns the next combine into a hit, and Flush resets
// the local tallies.
func TestArenaHitMissAccounting(t *testing.T) {
	rec := exampleRecoded(t, 1)
	for _, kind := range AllKinds() {
		rep := New(kind)
		roots := rep.Roots(rec)
		o := newOracle(t, kind, rec, roots)
		a := NewArena()
		c1 := Combine(rep, a, roots[0], roots[1], 0)
		if a.hits != 0 || a.misses != 1 {
			t.Fatalf("%v: after first combine hits=%d misses=%d, want 0/1", kind, a.hits, a.misses)
		}
		a.Release(c1)
		c2 := Combine(rep, a, roots[0], roots[2], 0)
		if a.hits != 1 || a.misses != 1 {
			t.Fatalf("%v: after recycled combine hits=%d misses=%d, want 1/1", kind, a.hits, a.misses)
		}
		o.check(t, c2, 0, 0, 2)
		a.Flush()
		if a.hits != 0 || a.misses != 0 {
			t.Errorf("%v: Flush left hits=%d misses=%d", kind, a.hits, a.misses)
		}
	}
}

// TestArenaBitvecLengthMismatch: a recycled bitvector of the wrong
// universe length is dropped (a miss), never handed out.
func TestArenaBitvecLengthMismatch(t *testing.T) {
	rec := exampleRecoded(t, 1)
	rep := New(Bitvector)
	roots := rep.Roots(rec)
	a := NewArena()
	a.Release(&BitvectorNode{Bits: bitvec.New(3)})
	c := Combine(rep, a, roots[0], roots[1], 0)
	if a.hits != 0 || a.misses != 1 {
		t.Fatalf("hits=%d misses=%d, want the mismatched node dropped as a miss", a.hits, a.misses)
	}
	newOracle(t, Bitvector, rec, roots).check(t, c, 0, 0, 1)
}

// TestArenaNilSafe: nil arenas and nil nodes are ignored everywhere,
// and Combine without an arena builds the same child as with one.
func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	a.Release(nil)
	a.Flush()
	NewArena().Release(nil)
	rec := exampleRecoded(t, 1)
	rep := New(Diffset)
	roots := rep.Roots(rec)
	got := Combine(rep, nil, roots[0], roots[1], 0)
	want := Combine(rep, NewArena(), roots[0], roots[1], 0)
	if got.Support() != want.Support() || !samePayload(payload(got), payload(want)) {
		t.Fatal("Combine(nil arena) diverges from Combine through an arena")
	}
	newOracle(t, Diffset, rec, roots).check(t, got, 0, 0, 1)
}

// TestArenaFreeListCapped: releasing more nodes than arenaMaxFree
// drops the excess instead of growing without bound.
func TestArenaFreeListCapped(t *testing.T) {
	a := NewArena()
	for i := 0; i < arenaMaxFree+10; i++ {
		a.Release(&DiffsetNode{})
	}
	if len(a.diffsets) != arenaMaxFree {
		t.Fatalf("free list length %d, want the %d cap", len(a.diffsets), arenaMaxFree)
	}
}

// BenchmarkCombineOne times one pair combined through an arena at
// steady state (child released every iteration, so after the first
// miss every node is a hit). allocs/op is the headline column: 0 for
// every kind once the arena is warm.

func benchCombineRoots(b *testing.B, kind Kind) (Representation, []Node) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	rec := randomRecoded(b, rng, 12, 4000)
	rep := New(kind)
	return rep, rep.Roots(rec)
}

func BenchmarkCombineOne(b *testing.B) {
	for _, kind := range AllKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			rep, roots := benchCombineRoots(b, kind)
			a := NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Release(Combine(rep, a, roots[i%4], roots[4+i%4], 0))
			}
		})
	}
}
