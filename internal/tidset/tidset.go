// Package tidset implements sorted transaction-id sets, the "vertical
// tidset" representation of §II-B of the paper. A tidset t(X) lists, in
// ascending order, the ids of every transaction containing itemset X.
// Support counting is intersection: t(PXY) = t(PX) ∩ t(PY), and
// support(PXY) = |t(PXY)|.
//
// The same machinery provides set difference, which is the kernel of the
// diffset representation: d(PXY) = d(PY) − d(PX) (Zaki & Gouda).
//
// All operations come in two forms: an allocating form and an "Into" form
// that appends into a caller-owned buffer, so the miners' hot loops can
// recycle per-worker scratch space without touching the allocator.
//
// The Into kernels are support-bounded. A miner only keeps a child whose
// support reaches minsup, so each merge stops as soon as its result can
// no longer be used:
//
//   - IntersectInto(t, dst, minSup) stops once len(dst) +
//     min(remaining(s), remaining(t)) < minSup. A result that stops
//     early holds fewer than minSup elements; one that reaches minSup is
//     exact.
//   - DiffInto(t, dst, limit) stops once the result exceeds limit
//     elements, so a result that stops early holds exactly limit+1. For
//     a diffset child the limit is support(PX) − minsup: any diffset
//     longer than that leaves support(PXY) = support(PX) − |d(PXY)|
//     below minsup. A negative limit returns an empty result at once.
//
// Callers that need the exact set pass minSup 0 to IntersectInto and
// limit len(s) to DiffInto; neither bound can then fire.
package tidset

import (
	"slices"
	"sort"

	"repro/internal/kcount"
)

// TID is a transaction identifier: the 0-based position of a transaction
// in its database.
type TID = uint32

// Set is a sorted, duplicate-free list of transaction ids.
type Set []TID

// New returns a sorted, deduplicated set built from tids.
func New(tids ...TID) Set {
	if len(tids) == 0 {
		return Set{}
	}
	s := make(Set, len(tids))
	copy(s, tids)
	slices.Sort(s)
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Support returns the cardinality |s|. Named for its role in mining:
// the support of an itemset is the size of its tidset.
func (s Set) Support() int { return len(s) }

// Contains reports whether tid is a member of s.
func (s Set) Contains(tid TID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= tid })
	return i < len(s) && s[i] == tid
}

// IsSorted reports whether s is strictly ascending (the package invariant).
func (s Set) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports whether s and t are identical.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersect returns s ∩ t as a new set.
func (s Set) Intersect(t Set) Set {
	return s.IntersectInto(t, make(Set, 0, min(len(s), len(t))), 0)
}

// IntersectInto appends s ∩ t to dst[:0] and returns it. dst may be nil.
// When one operand is much shorter than the other it switches to a
// galloping (exponential search) strategy, which matters for skewed dense
// data where one parent's tidset is tiny.
//
// The merge stops as soon as the result cannot reach minSup elements
// (see the package doc): a returned set shorter than minSup may be a
// truncated prefix of s ∩ t, one of at least minSup elements is exact.
// minSup ≤ 0 never stops early.
func (s Set) IntersectInto(t Set, dst Set, minSup int) Set {
	dst = dst[:0]
	// Ensure s is the shorter operand.
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 || len(s) < minSup {
		return dst
	}
	if len(t)/len(s) >= gallopRatio() {
		return gallopIntersect(s, t, dst, minSup)
	}
	return mergeIntersect(s, t, dst, minSup)
}

// mergeIntersect is the linear two-pointer intersection; s must be the
// shorter operand and non-empty. Each operand may leave at most
// len(operand) − minSup elements unmatched: one more and the result can
// no longer reach minSup, so the loop stops there.
func mergeIntersect(s, t Set, dst Set, minSup int) Set {
	sMiss, tMiss := len(s)-minSup, len(t)-minSup
	i, j := 0, 0
loop:
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			i++
			if i-len(dst) > sMiss {
				break loop
			}
		case a > b:
			j++
			if j-len(dst) > tMiss {
				break loop
			}
		default:
			dst = append(dst, a)
			i++
			j++
		}
	}
	kcount.AddMergeSteps(i + j)
	return dst
}

// MergeIntersectInto and GallopIntersectInto run one intersection
// strategy unconditionally, bypassing IntersectInto's gallopRatio
// switch. They exist for cmd/calibrate -gallop, which re-times the
// merge-vs-gallop crossover on a new host to validate gallopRatio;
// every other caller should use IntersectInto, which picks for itself.
func MergeIntersectInto(s, t Set, dst Set) Set {
	dst = dst[:0]
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 {
		return dst
	}
	return mergeIntersect(s, t, dst, 0)
}

// GallopIntersectInto is MergeIntersectInto's exponential-search twin.
func GallopIntersectInto(s, t Set, dst Set) Set {
	dst = dst[:0]
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 {
		return dst
	}
	return gallopIntersect(s, t, dst, 0)
}

// gallopIntersect intersects short s against long t by exponential +
// binary search. The kernel counter charges one gallop pick per call
// and one probe sequence per short-side element actually processed;
// the counts come from the loop index, so the disabled path pays
// nothing inside the loop. It stops under the same bound as
// mergeIntersect, checked once per short-side element.
func gallopIntersect(s, t Set, dst Set, minSup int) Set {
	sMiss := len(s) - minSup
	lo := 0
	si := 0
	for ; si < len(s); si++ {
		x := s[si]
		// Exponential probe from lo.
		hi, step := lo, 1
		for hi < len(t) && t[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(t) {
			hi = len(t)
		}
		// Binary search in (lo-1, hi].
		k := lo + sort.Search(hi-lo, func(i int) bool { return t[lo+i] >= x })
		if k < len(t) && t[k] == x {
			dst = append(dst, x)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(t) || si+1-len(dst) > sMiss || len(dst)+len(t)-lo < minSup {
			si++
			break
		}
	}
	kcount.AddGallop(si, si)
	return dst
}

// IntersectManyInto intersects one parent set px against every sibling
// in pys, appending each result into dsts[i][:0] (entries may be nil)
// and storing the grown buffer back into dsts[i]. It is semantically
// identical to len(pys) IntersectInto calls with the same minSup bound
// (a result shorter than minSup may be truncated), but the parent is
// amortized across the block: px's bounds are computed once and each
// sibling is first trimmed to the window [px[0], px[last]] — the only
// region that can intersect — so sibling tails outside the parent's
// range are skipped without entering the merge loop. Charges one
// batch_calls tick and (m−1)×len(px) parent_words_saved.
func IntersectManyInto(px Set, pys []Set, dsts []Set, minSup int) {
	m := len(pys)
	if m == 0 {
		return
	}
	if len(px) == 0 {
		for i := range dsts[:m] {
			dsts[i] = dsts[i][:0]
		}
		kcount.AddBatch(m, 0)
		return
	}
	lo, hi := px[0], px[len(px)-1]
	for i, py := range pys {
		dsts[i] = px.IntersectInto(trim(py, lo, hi), dsts[i], minSup)
	}
	kcount.AddBatch(m, len(px))
}

// DiffManyInto appends srcs[i] \ sub to dsts[i][:0] for every sibling.
// This is the diffset combine d(PXY) = d(PY) − d(PX) batched over a
// prefix block: the shared subtrahend sub = d(PX) is trimmed per
// sibling to the window that can actually cancel elements, and its
// re-streaming is charged to the kernel counters once per block
// instead of once per sibling. Every sibling shares DiffInto's limit:
// for a diffset block it is support(PX) − minsup, one number for the
// whole block, and a result holding limit+1 elements marks a dead
// child.
func DiffManyInto(sub Set, srcs []Set, dsts []Set, limit int) {
	m := len(srcs)
	if m == 0 {
		return
	}
	for i, src := range srcs {
		t := sub
		if len(src) > 0 && len(t) > 0 {
			t = trim(t, src[0], src[len(src)-1])
		}
		dsts[i] = src.DiffInto(t, dsts[i], limit)
	}
	kcount.AddBatch(m, len(sub))
}

// trim returns the sub-slice of s inside the closed window [lo, hi],
// located by binary search. Elements outside the window cannot survive
// an intersection with — or cancel an element of — a set bounded by
// [lo, hi].
func trim(s Set, lo, hi TID) Set {
	a, _ := slices.BinarySearch(s, lo)
	b, _ := slices.BinarySearchFunc(s[a:], hi, func(e, limit TID) int {
		if e <= limit {
			return -1
		}
		return 1
	})
	return s[a : a+b]
}

// Diff returns s \ t as a new set.
func (s Set) Diff(t Set) Set {
	return s.DiffInto(t, make(Set, 0, len(s)), len(s))
}

// DiffInto appends s \ t to dst[:0] and returns it, stopping as soon
// as the result exceeds limit elements (see the package doc). A
// stopped result holds exactly limit+1 elements, the first of s \ t,
// so a destination of capacity limit+1 never grows; a result of at
// most limit elements is exact. limit < 0 returns dst[:0] untouched;
// limit ≥ len(s) never stops early.
func (s Set) DiffInto(t Set, dst Set, limit int) Set {
	dst = dst[:0]
	if limit < 0 {
		return dst
	}
	i, j := 0, 0
loop:
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			dst = append(dst, a)
			i++
			if len(dst) > limit {
				break loop
			}
		case a > b:
			j++
		default:
			i++
			j++
		}
	}
	kcount.AddMergeSteps(i + j)
	// The uncancelled tail, cut so the result holds at most limit+1.
	return append(dst, s[i:min(len(s), i+limit+1-len(dst))]...)
}

// DiffSize returns |s \ t| without materializing the difference.
func (s Set) DiffSize(t Set) int {
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			n++
			i++
		case a > b:
			j++
		default:
			i++
			j++
		}
	}
	kcount.AddMergeSteps(i + j)
	return n + len(s) - i
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	dst := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			dst = append(dst, a)
			i++
		case a > b:
			dst = append(dst, b)
			j++
		default:
			dst = append(dst, a)
			i++
			j++
		}
	}
	kcount.AddMergeSteps(i + j)
	dst = append(dst, s[i:]...)
	return append(dst, t[j:]...)
}

// IntersectSize returns |s ∩ t| without materializing the intersection.
func (s Set) IntersectSize(t Set) int {
	if len(s) > len(t) {
		s, t = t, s
	}
	n, i, j := 0, 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			n++
			i++
			j++
		}
	}
	kcount.AddMergeSteps(i + j)
	return n
}

// Complement returns {0..n-1} \ s: the tids absent from s in a universe of
// n transactions. This is how 1-itemset diffsets are seeded: d(x) is the
// complement of t(x) (paper Figure 2(a)).
func (s Set) Complement(n int) Set {
	dst := make(Set, 0, n-len(s))
	j := 0
	for tid := TID(0); tid < TID(n); tid++ {
		if j < len(s) && s[j] == tid {
			j++
			continue
		}
		dst = append(dst, tid)
	}
	return dst
}

// Words returns the memory footprint of s in 4-byte words. Used by the
// perf instrumentation to account NUMA traffic.
func (s Set) Words() int { return len(s) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
