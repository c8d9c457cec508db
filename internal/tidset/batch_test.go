package tidset

import (
	"math/rand"
	"testing"
)

// sparseSet draws a set with elements spread over a wide range, so the
// batched kernels' bounds-trimming actually cuts tails off.
func sparseSet(r *rand.Rand, n, span int) Set {
	tids := make([]TID, 0, n)
	for i := 0; i < n; i++ {
		tids = append(tids, TID(r.Intn(span)))
	}
	return New(tids...)
}

// checkBoundedIntersect holds a bounded intersection to its contract
// against the exact result want: identical when want reaches minSup,
// otherwise shorter than minSup. Either way it is a prefix of want,
// since the merge emits matches in order.
func checkBoundedIntersect(t *testing.T, got, want Set, minSup int) {
	t.Helper()
	if len(want) >= minSup {
		if !got.Equal(want) {
			t.Fatalf("minSup %d: got %v, want exact %v", minSup, got, want)
		}
		return
	}
	if len(got) >= minSup || !got.Equal(want[:len(got)]) {
		t.Fatalf("minSup %d: got %v, want a prefix of %v shorter than minSup", minSup, got, want)
	}
}

// checkBoundedDiff holds a bounded difference to its contract against
// the exact result want: identical when want fits the limit, otherwise
// exactly want's first limit+1 elements (none when limit < 0).
func checkBoundedDiff(t *testing.T, got, want Set, limit int) {
	t.Helper()
	if len(want) <= limit {
		if !got.Equal(want) {
			t.Fatalf("limit %d: got %v, want exact %v", limit, got, want)
		}
		return
	}
	if len(got) <= limit || !got.Equal(want[:max(limit+1, 0)]) {
		t.Fatalf("limit %d: got %v, want the first limit+1 of %v", limit, got, want)
	}
}

// TestIntersectManyIntoMatchesPairwise: the batched kernel is m
// pairwise IntersectInto calls, on random blocks of varied density and
// overlap, including empty parents, empty siblings, nil dst buffers
// and a random minSup bound (0 half the time, the exact form).
func TestIntersectManyIntoMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 600; trial++ {
		px := sparseSet(r, r.Intn(80), 1+r.Intn(400))
		m := r.Intn(7)
		pys := make([]Set, m)
		dsts := make([]Set, m)
		for i := range pys {
			pys[i] = sparseSet(r, r.Intn(80), 1+r.Intn(400))
			if r.Intn(3) == 0 {
				dsts[i] = make(Set, 0, 8) // pre-owned buffer, like an arena node
			}
		}
		minSup := 0
		if trial%2 == 1 {
			minSup = r.Intn(40)
		}
		IntersectManyInto(px, pys, dsts, minSup)
		for i := range pys {
			checkBoundedIntersect(t, dsts[i], px.Intersect(pys[i]), minSup)
		}
	}
}

// TestDiffManyIntoMatchesPairwise: batched subtraction of a shared
// subtrahend equals per-sibling DiffInto, under a random limit that
// ranges from negative to past every result's length.
func TestDiffManyIntoMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 600; trial++ {
		sub := sparseSet(r, r.Intn(80), 1+r.Intn(400))
		m := r.Intn(7)
		srcs := make([]Set, m)
		dsts := make([]Set, m)
		for i := range srcs {
			srcs[i] = sparseSet(r, r.Intn(80), 1+r.Intn(400))
		}
		limit := r.Intn(90) - 3
		DiffManyInto(sub, srcs, dsts, limit)
		for i := range srcs {
			checkBoundedDiff(t, dsts[i], srcs[i].Diff(sub), limit)
		}
	}
}

// TestBoundedIntersectGallop drives the galloping path (one operand at
// least gallopRatio times the other) under the bound.
func TestBoundedIntersectGallop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		short := sparseSet(r, 1+r.Intn(20), 2000)
		long := sparseSet(r, 20*gallopRatio()+r.Intn(400), 2000)
		want := short.Intersect(long)
		minSup := len(want) - 2 + r.Intn(5)
		checkBoundedIntersect(t, short.IntersectInto(long, nil, minSup), want, minSup)
		checkBoundedIntersect(t, long.IntersectInto(short, nil, minSup), want, minSup)
	}
}

// TestBoundEdges pins the off-by-one edges of both bounds: a diff of
// exactly limit elements survives and one of limit+1 dies; an
// intersection of exactly minSup elements survives and one of minSup−1
// dies; a negative limit returns at once.
func TestBoundEdges(t *testing.T) {
	s, sub := New(1, 2, 3, 4, 5), New(2, 4) // s \ sub = {1, 3, 5}
	want := New(1, 3, 5)
	if got := s.DiffInto(sub, nil, 3); !got.Equal(want) {
		t.Fatalf("|d| == limit: got %v, want %v", got, want)
	}
	if got := s.DiffInto(sub, nil, 2); len(got) != 3 {
		t.Fatalf("|d| == limit+1: got %v, want 3 elements", got)
	}
	if got := s.DiffInto(sub, nil, 1); !got.Equal(New(1, 3)) {
		t.Fatalf("|d| > limit+1: got %v, want the first limit+1", got)
	}
	if got := s.DiffInto(sub, make(Set, 4, 8), -1); len(got) != 0 {
		t.Fatalf("limit < 0: got %v, want empty", got)
	}
	if got := s.DiffInto(New(), nil, 3); !got.Equal(New(1, 2, 3, 4)) {
		t.Fatalf("tail copy past the limit: got %v", got)
	}
	dsts := make([]Set, 2)
	DiffManyInto(sub, []Set{s, New(2, 4, 9)}, dsts, 1)
	if len(dsts[0]) != 2 || !dsts[1].Equal(New(9)) {
		t.Fatalf("DiffManyInto limit 1: got %v", dsts)
	}

	a, b := New(1, 2, 3, 4, 5, 6), New(2, 3, 5, 7) // a ∩ b = {2, 3, 5}
	if got := a.IntersectInto(b, nil, 3); !got.Equal(New(2, 3, 5)) {
		t.Fatalf("|t| == minSup: got %v", got)
	}
	if got := a.IntersectInto(b, nil, 4); len(got) >= 4 {
		t.Fatalf("|t| == minSup−1: got %v, want fewer than 4", got)
	}
	if got := a.IntersectInto(b, make(Set, 3, 8), 5); len(got) != 0 {
		t.Fatalf("minSup > shorter operand: got %v, want empty", got)
	}
	// Galloping: after 98 the long side has one element left and the
	// result needs exactly one more, so the merge must not stop there.
	long := make(Set, 100)
	for i := range long {
		long[i] = TID(i)
	}
	if got := New(50, 98, 99).IntersectInto(long, nil, 3); !got.Equal(New(50, 98, 99)) {
		t.Fatalf("gallop |t| == minSup: got %v", got)
	}
	if got := New(50, 98, 200).IntersectInto(long, nil, 3); len(got) >= 3 {
		t.Fatalf("gallop |t| == minSup−1: got %v", got)
	}
	IntersectManyInto(a, []Set{b, New(5, 6)}, dsts, 3)
	if !dsts[0].Equal(New(2, 3, 5)) || len(dsts[1]) >= 3 {
		t.Fatalf("IntersectManyInto minSup 3: got %v", dsts)
	}
}

// byteSets decodes fuzz input into a set: each byte is one candidate
// tid, New dedups and sorts.
func byteSet(b []byte) Set {
	tids := make([]TID, len(b))
	for i, x := range b {
		tids[i] = TID(x)
	}
	return New(tids...)
}

// FuzzIntersectManyInto checks the batched, bounded kernel against the
// unbounded pairwise intersection; the bound byte is the minSup.
func FuzzIntersectManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9}, byte(0))
	f.Add([]byte{}, []byte{0, 255}, []byte{7, 7, 7}, byte(1))
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 3, 5}, []byte{4}, byte(3))
	f.Fuzz(func(t *testing.T, a, b, c []byte, bound byte) {
		px := byteSet(a)
		pys := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(pys))
		minSup := int(bound)
		IntersectManyInto(px, pys, dsts, minSup)
		for i, py := range pys {
			checkBoundedIntersect(t, dsts[i], px.Intersect(py), minSup)
		}
	})
}

// FuzzDiffManyInto checks the batched, bounded kernel against the
// unbounded pairwise difference; the bound byte, less 2, is the limit,
// so negative limits are covered.
func FuzzDiffManyInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{9}, byte(255))
	f.Add([]byte{200, 1}, []byte{}, []byte{1, 2, 200}, byte(0))
	f.Add([]byte{2}, []byte{1, 2, 3}, []byte{1, 3, 5}, byte(3))
	f.Fuzz(func(t *testing.T, a, b, c []byte, bound byte) {
		sub := byteSet(a)
		srcs := []Set{byteSet(b), byteSet(c), nil}
		dsts := make([]Set, len(srcs))
		limit := int(bound) - 2
		DiffManyInto(sub, srcs, dsts, limit)
		for i, src := range srcs {
			checkBoundedDiff(t, dsts[i], src.Diff(sub), limit)
		}
	})
}

// The batched-vs-pairwise intersection micro-benchmark pair: one
// parent against a block of 16 siblings. The Many form reads the
// parent's bounds once and trims each sibling before merging.

func benchBlock(b *testing.B) (Set, []Set, []Set) {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	px := sparseSet(r, 4000, 1<<16)
	pys := make([]Set, 16)
	dsts := make([]Set, 16)
	for i := range pys {
		pys[i] = sparseSet(r, 4000, 1<<16)
		dsts[i] = make(Set, 0, 4000)
	}
	return px, pys, dsts
}

func BenchmarkIntersectManyInto(b *testing.B) {
	px, pys, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectManyInto(px, pys, dsts, 0)
	}
}

func BenchmarkIntersectPairwiseBlock(b *testing.B) {
	px, pys, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range pys {
			dsts[j] = px.IntersectInto(pys[j], dsts[j], 0)
		}
	}
}

func BenchmarkDiffManyInto(b *testing.B) {
	sub, srcs, dsts := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffManyInto(sub, srcs, dsts, 4000)
	}
}
