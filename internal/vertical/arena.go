// Scratch arenas and allocation-free combine. Eclat's depth-first hot
// loop creates and discards one payload node per candidate; with the
// plain Combine every one of them is a fresh allocation, and at high
// thread counts the allocator (and the garbage it leaves behind)
// becomes the bottleneck — the effect Zymbler's many-core Apriori
// study pins on non-vectorized, allocation-heavy kernels. An Arena is
// a per-worker free list of nodes: CombineInto takes the child's node
// and backing storage from the arena when it can (a hit) and falls
// through to the allocator when it cannot (a miss), and Release
// returns a node whose subtree is fully mined. Hits, misses and
// support-bounded combines that returned a dead child are tallied
// locally and flushed to kcount in batches.
//
// Ownership discipline: a node released to an arena must have no live
// children in flight — the miners release a class's atoms only after
// the recursion over that class returns. CombineInto never aliases its
// parents' storage (the Into kernels write a disjoint destination
// buffer), which arena_test.go checks as a property.

package vertical

import (
	"repro/internal/bitvec"
	"repro/internal/kcount"
	"repro/internal/nodeset"
	"repro/internal/tidset"
)

// arenaMaxFree caps each per-type free list so a briefly-deep
// recursion cannot pin an unbounded node pool for the rest of the run.
const arenaMaxFree = 1 << 14

// Arena is a single-worker recycling store of payload nodes. It is NOT
// safe for concurrent use: each worker owns one. Nodes released into
// an arena may have been allocated by another worker's arena (a stolen
// subtree releases its class wherever it ran); buffers simply migrate.
type Arena struct {
	tidsets  []*TidsetNode
	diffsets []*DiffsetNode
	bitvecs  []*BitvectorNode
	tileds   []*TiledNode
	nodesets []*NodesetNode
	hits     int64
	misses   int64
	aborted  int64

	// Batched-combine scratch (batch.go), reused across CombineManyInto
	// calls so the block loop never allocates slice headers. Safe
	// because an arena is single-worker and every call fully overwrites
	// the first m entries before reading them.
	batchSrc      []tidset.Set
	batchDst      []tidset.Set
	batchVec      []*bitvec.Vector
	batchOut      []*bitvec.Vector
	batchSup      []int
	batchTiledSrc []*tidset.Tiled
	batchTiledDst []*tidset.Tiled
	batchNLL1     [][]nodeset.L1Entry
	batchNLSrc    []nodeset.List
	batchNLDst    []nodeset.List
	batchNLSum    []int
	nodePys       []Node
	nodeOut       []Node
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Release returns a node to the arena for reuse. The caller must hold
// the only live reference to the node's payload (its subtree is fully
// mined). Unknown node kinds and nil are ignored. Nil-safe.
func (a *Arena) Release(n Node) {
	if a == nil || n == nil {
		return
	}
	switch c := n.(type) {
	case *TidsetNode:
		if len(a.tidsets) < arenaMaxFree {
			a.tidsets = append(a.tidsets, c)
		}
	case *DiffsetNode:
		if len(a.diffsets) < arenaMaxFree {
			a.diffsets = append(a.diffsets, c)
		}
	case *BitvectorNode:
		if len(a.bitvecs) < arenaMaxFree {
			a.bitvecs = append(a.bitvecs, c)
		}
	case *TiledNode:
		if len(a.tileds) < arenaMaxFree {
			a.tileds = append(a.tileds, c)
		}
	case *NodesetNode:
		if len(a.nodesets) < arenaMaxFree {
			a.nodesets = append(a.nodesets, c)
		}
	}
}

// Flush folds the arena's local hit/miss/aborted tallies into the
// process-wide kernel counters. The miners call it at task boundaries
// so the hot loop never touches an atomic. Nil-safe.
func (a *Arena) Flush() {
	if a == nil {
		return
	}
	kcount.AddArena(a.hits, a.misses, a.aborted)
	a.hits, a.misses, a.aborted = 0, 0, 0
}

// countDead tallies the children of one bounded combine call that came
// back below minSup: the combines_aborted counter. A nil arena (tests,
// callers without per-worker state) charges kcount directly.
func (a *Arena) countDead(n int) {
	if n == 0 {
		return
	}
	if a == nil {
		kcount.AddArena(0, 0, int64(n))
		return
	}
	a.aborted += int64(n)
}

// getTidset pops a recycled tidset node (buffer truncated, capacity
// kept) or allocates one. Nil-safe: the batched combines accept a nil
// arena (tests, callers without per-worker state) and simply allocate.
func (a *Arena) getTidset() *TidsetNode {
	if a == nil {
		return &TidsetNode{}
	}
	if n := len(a.tidsets); n > 0 {
		nd := a.tidsets[n-1]
		a.tidsets[n-1] = nil
		a.tidsets = a.tidsets[:n-1]
		a.hits++
		return nd
	}
	a.misses++
	return &TidsetNode{}
}

func (a *Arena) getDiffset() *DiffsetNode {
	if a == nil {
		return &DiffsetNode{}
	}
	if n := len(a.diffsets); n > 0 {
		nd := a.diffsets[n-1]
		a.diffsets[n-1] = nil
		a.diffsets = a.diffsets[:n-1]
		a.hits++
		return nd
	}
	a.misses++
	return &DiffsetNode{}
}

// getBitvec pops a recycled bitvector node over a universe of n bits.
// Recycled vectors keep their length for the whole run (one mining run
// has one transaction universe), so a length mismatch — possible only
// if one arena serves runs over different databases — is treated as a
// miss and the mismatched node is dropped.
func (a *Arena) getBitvec(nbits int) *BitvectorNode {
	if a == nil {
		return &BitvectorNode{Bits: bitvec.New(nbits)}
	}
	for len(a.bitvecs) > 0 {
		i := len(a.bitvecs) - 1
		nd := a.bitvecs[i]
		a.bitvecs[i] = nil
		a.bitvecs = a.bitvecs[:i]
		if nd.Bits.Len() == nbits {
			a.hits++
			return nd
		}
	}
	a.misses++
	return &BitvectorNode{Bits: bitvec.New(nbits)}
}

// IntoCombiner is implemented by representations whose Combine can
// recycle arena storage. CombineInto(a, px, py, minSup) returns a child
// that reaches minSup identical to Combine(px, py) — same support, same
// logical set — and a child below minSup that reports some Support() <
// minSup (the package doc's bound). The child's node and backing buffer
// come from a when possible. The result never shares backing memory
// with px or py.
type IntoCombiner interface {
	CombineInto(a *Arena, px, py Node, minSup int) Node
}

// CombineWith dispatches to rep's CombineInto when it has one and an
// arena is supplied, else to the allocating, unbounded Combine. This is
// the single combine entry point of the miners' recursion hot loops.
func CombineWith(rep Representation, a *Arena, px, py Node, minSup int) Node {
	if a != nil {
		if ic, ok := rep.(IntoCombiner); ok {
			return ic.CombineInto(a, px, py, minSup)
		}
	}
	return rep.Combine(px, py)
}

func (tidsetRep) CombineInto(a *Arena, px, py Node, minSup int) Node {
	x, y := px.(*TidsetNode), py.(*TidsetNode)
	n := a.getTidset()
	// Presize to the intersection's upper bound so an undersized recycled
	// buffer doesn't re-grow (copying per doubling) inside the merge loop.
	if bound := min(len(x.TIDs), len(y.TIDs)); cap(n.TIDs) < bound {
		n.TIDs = make(tidset.Set, 0, bound)
	}
	n.TIDs = x.TIDs.IntersectInto(y.TIDs, n.TIDs, minSup)
	if len(n.TIDs) < minSup {
		a.countDead(1)
	}
	kcount.AddNode(kcount.Tidset, n.Bytes())
	return n
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

func (diffsetRep) CombineInto(a *Arena, px, py Node, minSup int) Node {
	x, y := px.(*DiffsetNode), py.(*DiffsetNode)
	n := a.getDiffset()
	limit := x.sup - minSup
	if c := diffCap(y.Diff, limit); cap(n.Diff) < c {
		n.Diff = make(tidset.Set, 0, c)
	}
	n.Diff = y.Diff.DiffInto(x.Diff, n.Diff, limit) // d(PXY) = d(PY) − d(PX)
	n.sup = x.sup - len(n.Diff)
	if n.sup < minSup {
		a.countDead(1)
	}
	kcount.AddNode(kcount.Diffset, n.Bytes())
	return n
}

// CombineInto ignores minSup: the bitvector child is always exact.
func (bitvectorRep) CombineInto(a *Arena, px, py Node, _ int) Node {
	x, y := px.(*BitvectorNode), py.(*BitvectorNode)
	n := a.getBitvec(x.Bits.Len())
	n.Bits.AndInto(x.Bits, y.Bits)
	n.sup = n.Bits.Count()
	kcount.AddNode(kcount.Bitvector, n.Bytes())
	return n
}

// hybridRep deliberately has no CombineInto: a hybrid node flips
// between tidset and diffset form per combine, so recycled storage
// would have to be re-typed per call; the flip bookkeeping costs more
// than the allocation it saves. CombineWith falls back to Combine.
