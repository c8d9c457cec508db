package fim

// Layout equivalence and ApplyLayout plumbing. The tiled layout changes
// only how tidsets are stored, not which itemsets are found or in which
// dense codes, so every full mine must equal the flat one exactly; the
// payload equality per combine is checked in internal/vertical.

import (
	"testing"
)

func TestApplyLayout(t *testing.T) {
	cases := []struct {
		rep    Representation
		layout string
		want   Representation
		ok     bool
	}{
		{Tidset, "", Tidset, true},
		{Tidset, "tiled", Tiled, true},
		{Tiled, "tiled", Tiled, true},
		{Tiled, "flat", Tidset, true},
		{Diffset, "flat", Diffset, true},
		{Diffset, "", Diffset, true},
		{Diffset, "tiled", 0, false},
		{Bitvector, "tiled", 0, false},
		{Tidset, "mosaic", 0, false},
	}
	for _, c := range cases {
		got, err := ApplyLayout(c.rep, c.layout)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ApplyLayout(%v, %q) = %v, %v; want %v", c.rep, c.layout, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ApplyLayout(%v, %q) succeeded, want error", c.rep, c.layout)
		}
	}
}

// TestTiledMatchesFlatMining: every (algorithm, workers, depth,
// schedule) cell mines the identical result under the tiled and flat
// layouts.
func TestTiledMatchesFlatMining(t *testing.T) {
	db := runctlDB(t)
	for _, c := range flatCells() {
		optFlat, optTiled := c, c
		optFlat.Representation = Tidset
		optTiled.Representation = Tiled
		flat, err := Mine(db, 0.5, optFlat)
		if err != nil {
			t.Fatalf("%+v flat: %v", c, err)
		}
		tiled, err := Mine(db, 0.5, optTiled)
		if err != nil {
			t.Fatalf("%+v tiled: %v", c, err)
		}
		if !tiled.Equal(flat) {
			t.Errorf("%+v: tiled layout mined a different result than flat", c)
		}
	}
}

// flatCells lists the (algorithm, workers, depth, schedule) cells the
// layout and nodeset tests compare against the flat tidset kind.
func flatCells() []Options {
	var cells []Options
	for _, w := range []int{1, 4} {
		cells = append(cells, Options{Algorithm: Apriori, Workers: w})
		for _, depth := range []int{0, 2} {
			cells = append(cells, Options{Algorithm: Eclat, Workers: w, EclatDepth: depth})
		}
		cells = append(cells, Options{Algorithm: Eclat, Workers: w, SchedulePolicy: Steal, SetSchedule: true})
	}
	return cells
}
