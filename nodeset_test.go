package fim

// Miner-level equivalence for the nodeset (DiffNodeset) representation:
// full mines over the real dataset comparing nodeset against the flat
// tidset representation across algorithms, worker counts, flattening
// depths and loop schedules. The kernel-level legs (support/list
// correctness per merge) live in internal/nodeset; here the property is
// end-to-end, identical decoded results, because nodeset mines under
// frequency order with deferred 2-itemset lists, and none of that may
// be observable in the output.

import (
	"testing"
)

// TestNodesetMatchesFlatMining: every (algorithm, workers, depth,
// schedule) cell mines the identical result under the nodeset and flat
// tidset representations. Run under -race this also exercises the
// single-owner discipline of deferred 2-itemset materialization across
// stealing workers.
func TestNodesetMatchesFlatMining(t *testing.T) {
	db := runctlDB(t)
	for _, c := range flatCells() {
		optFlat, optNode := c, c
		optFlat.Representation = Tidset
		optNode.Representation = Nodeset
		flat, err := Mine(db, 0.5, optFlat)
		if err != nil {
			t.Fatalf("%+v flat: %v", c, err)
		}
		node, err := Mine(db, 0.5, optNode)
		if err != nil {
			t.Fatalf("%+v nodeset: %v", c, err)
		}
		// Nodeset mines under frequency order, so the runs disagree on
		// dense codes (Result.Equal would compare coded forms); the
		// decoded views must be identical.
		a, b := flat.Decoded(), node.Decoded()
		if len(a) != len(b) {
			t.Fatalf("%+v: itemset counts differ: flat %d vs nodeset %d", c, len(a), len(b))
		}
		for i := range a {
			if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
				t.Errorf("%+v: mismatch at %d: flat %v/%d vs nodeset %v/%d",
					c, i, a[i].Items, a[i].Support, b[i].Items, b[i].Support)
				break
			}
		}
	}
}
