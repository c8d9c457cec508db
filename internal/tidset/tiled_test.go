package tidset

import (
	"math/rand"
	"testing"
)

// randSetDensity draws a sorted set over [0, universe) where each TID
// is present independently with probability p — p near 1 exercises the
// dense tile form, small p the sparse form, and mid p the mix.
func randSetDensity(rng *rand.Rand, universe int, p float64) Set {
	s := make(Set, 0, int(float64(universe)*p)+1)
	for tid := 0; tid < universe; tid++ {
		if rng.Float64() < p {
			s = append(s, TID(tid))
		}
	}
	return s
}

// clusteredSet draws TIDs in bursts so some tiles are packed and whole
// key ranges are empty — the regime the summary prefilter exists for.
func clusteredSet(rng *rand.Rand, universe int) Set {
	s := Set{}
	tid := 0
	for tid < universe {
		if rng.Intn(4) == 0 { // burst
			run := 32 + rng.Intn(256)
			for i := 0; i < run && tid < universe; i++ {
				if rng.Intn(10) != 0 {
					s = append(s, TID(tid))
				}
				tid++
			}
		} else { // gap
			tid += 64 + rng.Intn(1024)
		}
	}
	return s
}

// TestTiledRoundTrip: FromSet → AppendTo is the identity on sorted
// sets, across densities and under extreme sparse/dense crossovers.
func TestTiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sm := range []int{1, 16, TileBits} {
		prev, err := ApplyCalibration(Calibration{TileSparseMax: sm})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []float64{0.002, 0.05, 0.3, 0.9} {
			s := randSetDensity(rng, 4096, p)
			tt := FromSet(s)
			if got := tt.ToSet(); !got.Equal(s) {
				t.Errorf("sm=%d p=%g: round trip %d TIDs → %d", sm, p, len(s), len(got))
			}
			if tt.Len() != len(s) {
				t.Errorf("sm=%d p=%g: Len %d want %d", sm, p, tt.Len(), len(s))
			}
		}
		if _, err := ApplyCalibration(prev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTiledKernelsMatchFlat: every tiled kernel agrees with its flat
// counterpart on random operands, across densities, clustering, and
// sparse/dense crossover settings — including cross-form pairs where
// one operand was built under a different crossover than the other.
func TestTiledKernelsMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	densities := []float64{0.001, 0.01, 0.08, 0.4, 0.95}
	check := func(name string, a, b Set, ta, tb *Tiled) {
		t.Helper()
		dst := &Tiled{}
		if got, want := ta.IntersectInto(tb, dst).ToSet(), a.Intersect(b); !got.Equal(want) {
			t.Errorf("%s: intersect %d TIDs, want %d", name, len(got), len(want))
		}
		if got, want := ta.DiffInto(tb, dst).ToSet(), a.Diff(b); !got.Equal(want) {
			t.Errorf("%s: diff %d TIDs, want %d", name, len(got), len(want))
		}
		if got, want := ta.IntersectSize(tb), a.IntersectSize(b); got != want {
			t.Errorf("%s: IntersectSize %d want %d", name, got, want)
		}
		if got, want := ta.DiffSize(tb), a.DiffSize(b); got != want {
			t.Errorf("%s: DiffSize %d want %d", name, got, want)
		}
	}
	for round := 0; round < 3; round++ {
		for _, pa := range densities {
			for _, pb := range densities {
				a := randSetDensity(rng, 3000, pa)
				b := randSetDensity(rng, 3000, pb)
				check("uniform", a, b, FromSet(a), FromSet(b))
			}
		}
		a := clusteredSet(rng, 1<<16)
		b := clusteredSet(rng, 1<<16)
		check("clustered", a, b, FromSet(a), FromSet(b))

		// Cross-form: a built all-sparse, b built all-dense. The
		// kernels must handle every (sparse, dense) tile pairing.
		prev, err := ApplyCalibration(Calibration{TileSparseMax: TileBits})
		if err != nil {
			t.Fatal(err)
		}
		ta := FromSet(a)
		if _, err := ApplyCalibration(Calibration{TileSparseMax: 1}); err != nil {
			t.Fatal(err)
		}
		tb := FromSet(b)
		if _, err := ApplyCalibration(prev); err != nil {
			t.Fatal(err)
		}
		check("cross-form", a, b, ta, tb)
		check("cross-form-swapped", b, a, tb, ta)
	}
}

// TestTiledManyMatchesPairwise: the batched kernels are element-wise
// identical to their pairwise forms, and destinations recycle cleanly
// across rebuilds (stale content from a previous, larger result must
// not leak).
func TestTiledManyMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	px := FromSet(randSetDensity(rng, 8192, 0.3))
	var pys []*Tiled
	for i := 0; i < 7; i++ {
		pys = append(pys, FromSet(randSetDensity(rng, 8192, []float64{0.005, 0.1, 0.7}[i%3])))
	}
	dsts := make([]*Tiled, len(pys))
	for i := range dsts {
		dsts[i] = FromSet(randSetDensity(rng, 8192, 0.5)) // stale content
	}
	TiledIntersectManyInto(px, pys, dsts)
	for i, py := range pys {
		want := px.IntersectInto(py, &Tiled{})
		if !dsts[i].Equal(want) {
			t.Errorf("intersect many: sibling %d disagrees with pairwise", i)
		}
	}
	TiledDiffManyInto(px, pys, dsts)
	for i, py := range pys {
		want := py.DiffInto(px, &Tiled{})
		if !dsts[i].Equal(want) {
			t.Errorf("diff many: sibling %d disagrees with pairwise", i)
		}
	}
}

// TestTiledSummarySkips: on operands with disjoint clustered support
// the prefilter actually fires — tiles_skipped is the win the layout
// exists for, so prove it happens.
func TestTiledSummarySkips(t *testing.T) {
	// a occupies even 128-TID tiles, b odd tiles, with one shared tile.
	var a, b Set
	for tile := 0; tile < 64; tile++ {
		base := TID(tile * TileBits)
		for off := TID(0); off < TileBits; off += 2 {
			if tile%2 == 0 || tile == 33 {
				a = append(a, base+off)
			}
			if tile%2 == 1 {
				b = append(b, base+off)
			}
		}
	}
	ta, tb := FromSet(a), FromSet(b)
	got := ta.IntersectInto(tb, &Tiled{}).ToSet()
	if want := a.Intersect(b); !got.Equal(want) {
		t.Fatalf("intersect %d TIDs, want %d", len(got), len(want))
	}
	if len(got) == 0 {
		t.Fatal("test sets should share tile 33")
	}
	// Key directories disjoint except tile 33: no key match → no
	// summary AND at all for the disjoint tiles; the shared tile has
	// overlapping summaries, so zero skips here...
	// ...but offset-disjoint tiles with the same key DO skip:
	c := Set{}
	for tile := 0; tile < 64; tile += 2 {
		base := TID(tile * TileBits)
		for off := TID(1); off < TileBits; off += 4 { // odd offsets only
			c = append(c, base+off)
		}
	}
	tc := FromSet(c)
	if got := ta.IntersectInto(tc, &Tiled{}).ToSet(); !got.Equal(a.Intersect(c)) {
		t.Fatal("offset-disjoint intersect wrong")
	}
}

// TestTiledCalibrationValidation: bad knob files are rejected, good
// ones install and restore.
func TestTiledCalibrationValidation(t *testing.T) {
	for _, bad := range []Calibration{
		{GallopRatio: 1},
		{TileSparseMax: -1},
		{TileSparseMax: TileBits + 1},
		{TileBits: 64},
	} {
		if _, err := ApplyCalibration(bad); err == nil {
			t.Errorf("ApplyCalibration(%+v) accepted", bad)
		}
	}
	prev, err := ApplyCalibration(Calibration{GallopRatio: 12, TileSparseMax: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := CurrentCalibration(); got.GallopRatio != 12 || got.TileSparseMax != 24 {
		t.Errorf("knobs not installed: %+v", got)
	}
	if _, err := ApplyCalibration(prev); err != nil {
		t.Fatal(err)
	}
	if got := CurrentCalibration(); got != prev {
		t.Errorf("knobs not restored: %+v want %+v", got, prev)
	}
}

// tiledBenchPair builds one operand pair for a regime and a reusable
// destination, pre-grown so the timed loop measures steady state.
func tiledBenchPair(b *testing.B, pa, pb float64, universe int) (x, y, dst *Tiled) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	x = FromSet(randSetDensity(rng, universe, pa))
	y = FromSet(randSetDensity(rng, universe, pb))
	dst = &Tiled{}
	x.IntersectInto(y, dst) // grow dst to steady state
	return
}

// The three tiled-kernel regimes of the micro suite
// (results/MICRO_tiles.txt): dense×dense hits the branch-free bitmap
// path, sparse×sparse the u8 merge, and the skewed pair the probe path
// plus the summary skips. Each reports allocs — the acceptance bar is
// 0 allocs/op at steady state, matching the flat kernels.
func BenchmarkTiledIntersectInto(b *testing.B) {
	regimes := []struct {
		name     string
		pa, pb   float64
		universe int
	}{
		{"dense-dense", 0.6, 0.6, 1 << 15},
		{"sparse-sparse", 0.02, 0.02, 1 << 15},
		{"sparse-dense", 0.02, 0.6, 1 << 15},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			x, y, dst := tiledBenchPair(b, r.pa, r.pb, r.universe)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.IntersectInto(y, dst)
			}
		})
	}
}

// BenchmarkFlatIntersectIntoRegimes times the flat kernel on the same
// operands as BenchmarkTiledIntersectInto for side-by-side ns/op in
// MICRO_tiles.txt.
func BenchmarkFlatIntersectIntoRegimes(b *testing.B) {
	regimes := []struct {
		name   string
		pa, pb float64
	}{
		{"dense-dense", 0.6, 0.6},
		{"sparse-sparse", 0.02, 0.02},
		{"sparse-dense", 0.02, 0.6},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			x := randSetDensity(rng, 1<<15, r.pa)
			y := randSetDensity(rng, 1<<15, r.pb)
			dst := make(Set, 0, min(len(x), len(y)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = x.IntersectInto(y, dst, 0)
			}
		})
	}
}

// BenchmarkTiledDiffInto covers the diffset-side kernel in the same
// three regimes.
func BenchmarkTiledDiffInto(b *testing.B) {
	regimes := []struct {
		name   string
		pa, pb float64
	}{
		{"dense-dense", 0.6, 0.6},
		{"sparse-sparse", 0.02, 0.02},
		{"sparse-dense", 0.02, 0.6},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			x, y, dst := tiledBenchPair(b, r.pa, r.pb, 1<<15)
			x.DiffInto(y, dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.DiffInto(y, dst)
			}
		})
	}
}

// BenchmarkTiledIntersectManyInto measures the batched kernel at arena
// steady state: one parent against an 8-sibling run, recycled dsts.
func BenchmarkTiledIntersectManyInto(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	px := FromSet(randSetDensity(rng, 1<<15, 0.4))
	var pys []*Tiled
	dsts := make([]*Tiled, 8)
	for i := range dsts {
		pys = append(pys, FromSet(randSetDensity(rng, 1<<15, 0.3)))
		dsts[i] = &Tiled{}
	}
	TiledIntersectManyInto(px, pys, dsts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TiledIntersectManyInto(px, pys, dsts)
	}
}
