package kcount

import (
	"sync"
	"testing"
)

// TestDisabledNoOp: with no enabler, the Add helpers record nothing.
func TestDisabledNoOp(t *testing.T) {
	if Enabled() {
		t.Fatal("counters enabled at package init")
	}
	before := Snapshot()
	AddMergeSteps(10)
	AddGallop(3, 7)
	AddWordsANDed(5)
	AddWordsPopcounted(5)
	AddNode(Tidset, 64)
	AddHybridFlip()
	AddArena(1, 2, 3)
	if d := Snapshot().Sub(before); len(d.Map()) != 0 {
		t.Fatalf("disabled counters recorded %v", d.Map())
	}
}

// TestEnableRecordsAndSub: enabled counters accumulate, Sub isolates a
// window, and Map emits only the non-zero wire fields.
func TestEnableRecordsAndSub(t *testing.T) {
	Enable()
	defer Disable()
	base := Snapshot()
	AddMergeSteps(10)
	AddMergeSteps(5)
	AddGallop(3, 7)
	AddWordsANDed(4)
	AddWordsPopcounted(6)
	AddNode(Diffset, 128)
	AddNode(Diffset, 32)
	AddNode(Hybrid, 8)
	AddHybridFlip()
	AddArena(5, 1, 0)
	AddArena(0, 0, 4)
	d := Snapshot().Sub(base)
	m := d.Map()
	want := map[string]int64{
		"tids_compared":              15 + 7, // merge steps + gallop steps
		"merge_picks":                2,      // two merge dispatches
		"gallop_picks":               1,      // one gallop dispatch
		"gallop_probes":              3,
		"words_anded":                4,
		"words_popcounted":           6,
		"nodes_built_diffset":        2,
		"bytes_materialized_diffset": 160,
		"nodes_built_hybrid":         1,
		"bytes_materialized_hybrid":  8,
		"hybrid_flips":               1,
		"arena_hits":                 5,
		"arena_misses":               1,
		"combines_aborted":           4,
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("Map()[%q] = %d, want %d", k, m[k], v)
		}
	}
	for k := range m {
		if _, ok := want[k]; !ok {
			t.Errorf("Map() has unexpected key %q = %d", k, m[k])
		}
	}
}

// TestRefcount: nested enablers keep counting until the last Disable.
func TestRefcount(t *testing.T) {
	Enable()
	Enable()
	Disable()
	if !Enabled() {
		t.Fatal("inner Disable turned counters off under an outer enabler")
	}
	Disable()
	if Enabled() {
		t.Fatal("counters still on after matching Disables")
	}
}

// TestUnpairedDisablePanics: a Disable without an Enable is a bug.
func TestUnpairedDisablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Disable did not panic")
		}
	}()
	Disable()
}

// TestRunTokenExclusive: a lone instrumented run gets an exclusive
// delta attributing exactly its own operations.
func TestRunTokenExclusive(t *testing.T) {
	tok := BeginRun()
	AddMergeSteps(7)
	AddWordsANDed(3)
	d, excl := tok.End()
	if !excl {
		t.Fatal("lone run's delta not exclusive")
	}
	if d.TidsCompared != 7 || d.WordsANDed != 3 {
		t.Fatalf("delta = %+v, want 7 tids / 3 words", d)
	}
	if Enabled() {
		t.Fatal("counters still enabled after End")
	}
}

// TestRunTokenOverlapPoisonsBoth: two overlapping instrumented runs
// both report non-exclusive deltas, whichever started first.
func TestRunTokenOverlapPoisonsBoth(t *testing.T) {
	a := BeginRun()
	AddMergeSteps(1)
	b := BeginRun() // overlaps a
	AddMergeSteps(1)
	if _, excl := b.End(); excl {
		t.Error("second (overlapping) run claims exclusivity")
	}
	if _, excl := a.End(); excl {
		t.Error("first run claims exclusivity despite overlap")
	}
	// A fresh run after both ended is exclusive again.
	c := BeginRun()
	AddMergeSteps(1)
	if _, excl := c.End(); !excl {
		t.Error("fresh run after overlap not exclusive")
	}
}

// TestRunTokenOverlapEnded: exclusivity is poisoned even when the
// overlapping run ends before the first run does.
func TestRunTokenOverlapEnded(t *testing.T) {
	a := BeginRun()
	b := BeginRun()
	b.End()
	if _, excl := a.End(); excl {
		t.Error("run overlapped by a shorter run claims exclusivity")
	}
}

// TestConcurrentAdds: parallel kernels may add while another goroutine
// snapshots; run with -race this verifies the atomics.
func TestConcurrentAdds(t *testing.T) {
	Enable()
	defer Disable()
	base := Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				AddMergeSteps(1)
				AddWordsANDed(2)
				_ = Snapshot()
			}
		}()
	}
	wg.Wait()
	d := Snapshot().Sub(base)
	if d.MergePicks != 8000 || d.WordsANDed != 16000 {
		t.Fatalf("concurrent adds lost updates: merge=%d anded=%d", d.MergePicks, d.WordsANDed)
	}
}
