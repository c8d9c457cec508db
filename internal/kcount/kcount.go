// Package kcount provides process-wide kernel operation counters for
// the vertical-representation hot paths: tidset merge/gallop
// intersection steps, bitvector word ANDs and popcounts, and per-
// representation node materialization. These are the operation-level
// quantities the paper's analysis attributes cost to (§II-B's kernel
// comparison; Zymbler's many-core Apriori study argues scaling cliffs
// from exactly such per-kernel counts), observable on a live run
// instead of inferred from wall time.
//
// Counting is off by default and costs the kernels one atomic load and
// a predictable branch per *kernel call* (never per element): the
// kernels derive their step counts from loop indices they already
// maintain, so the disabled path adds no work inside the merge loops.
// Enable/Disable nest by reference count; counters are process-global,
// so concurrent instrumented runs see each other's operations. Per-run
// reporting goes through BeginRun/RunToken.End, which detects any
// overlap with another instrumented run: the engine reports the
// delta only when it is exclusively attributable to the run (always the
// case for one-shot fimmine/fimbench; under the concurrent server,
// overlapping runs drop the kernel_counters event rather than report
// interleaved numbers).
package kcount

import "sync/atomic"

// Kind indexes the per-representation counters. The values mirror
// vertical.Kind's order; kcount redeclares them (as plain ints) so the
// kernels below vertical in the import graph can use the package too.
const (
	Tidset = iota
	Bitvector
	Diffset
	Tiled
	Nodeset
	numKinds
)

// kindNames are the wire names used by Stats.Map, matching
// vertical.Kind.String().
var kindNames = [numKinds]string{"tidset", "bitvector", "diffset", "tiled", "nodeset"}

// Stats is a snapshot of the counters. The zero value is empty;
// Sub produces the delta between two snapshots.
type Stats struct {
	// TidsCompared counts merge-loop steps across tidset intersection,
	// difference, union and their count-only forms — the element
	// comparisons of the sorted-set kernels.
	TidsCompared int64
	// MergePicks and GallopPicks count tidset intersections dispatched
	// to the linear merge vs the exponential-search (galloping) path.
	MergePicks  int64
	GallopPicks int64
	// GallopProbes counts elements probed by binary search on the
	// galloping path (one probe sequence per short-side element).
	GallopProbes int64
	// WordsANDed and WordsPopcounted count 64-bit word operations in
	// the bitvector AND and popcount kernels.
	WordsANDed      int64
	WordsPopcounted int64
	// NodesBuilt and BytesMaterialized count, per representation kind,
	// the payload nodes constructed by the combines and Roots and their
	// byte footprint at construction.
	NodesBuilt        [numKinds]int64
	BytesMaterialized [numKinds]int64
	// ArenaHits and ArenaMisses count scratch-arena node requests that
	// were served from a worker's free list vs. fell through to the Go
	// allocator — the zero-allocation combine path's figure of merit.
	ArenaHits   int64
	ArenaMisses int64
	// CombinesAborted counts support-bounded combines that returned a
	// dead child: the tidset or diffset kernel stopped (or never
	// started) because the child could no longer reach minsup. Tallied
	// per arena and flushed with the hit/miss tallies.
	CombinesAborted int64
	// BatchCalls counts invocations of the batched (prefix-blocked)
	// combine kernels: one call intersects/subtracts/ANDs a resident
	// parent against an entire sibling run.
	BatchCalls int64
	// ParentWordsSaved counts the parent payload words the batched
	// kernels did NOT re-stream: a batch of m children reads the shared
	// parent once instead of m times, saving (m−1) × parent words. This
	// is the measurable proxy for the paper's §V parent-traffic
	// argument. Units are payload words (4-byte for tidset/diffset,
	// 8-byte for bitvector).
	ParentWordsSaved int64
	// TilesProcessed counts word tiles the strip-mined bitvector batch
	// kernel streamed (one tile ANDed+popcounted against every child of
	// the run before eviction).
	TilesProcessed int64
	// SummaryWordsANDed counts the 64-bit occupancy-summary ANDs of the
	// tiled layout's prefilter phase: one per key-aligned tile pair.
	// Comparing it against TidsCompared/WordsANDed for the same mine
	// shows how much traffic the prefilter stands in front of.
	SummaryWordsANDed int64
	// TilesSkipped counts key-aligned tile pairs whose summary AND came
	// back zero, so the in-tile kernel never ran — the tiled layout's
	// analogue of parent_words_saved. TilesSparse and TilesDense count
	// the pairs that did run, split by which in-tile kernel fired
	// (sparse u8 merge/probe vs. branch-free bitmap AND); the same
	// split is charged by bitvec.AndManyInto's strip classifier.
	TilesSkipped int64
	TilesSparse  int64
	TilesDense   int64
	// NListNodesMerged counts entries touched by the DiffNodeset merge
	// kernels (2-itemset ancestor merges and k-itemset differences) —
	// the nodeset analogue of TidsCompared, except the unit is a PPC
	// tree node, which stands for every transaction sharing its path.
	NListNodesMerged int64
	// PPCNodesBuilt counts prefix-tree nodes assigned pre/post ranks by
	// the PPC encoding pass. Comparing it against the database's
	// transaction-item count shows the tree's co-occurrence compression.
	PPCNodesBuilt int64
}

// Sub returns s − prev, field-wise.
func (s Stats) Sub(prev Stats) Stats {
	d := Stats{
		TidsCompared:     s.TidsCompared - prev.TidsCompared,
		MergePicks:       s.MergePicks - prev.MergePicks,
		GallopPicks:      s.GallopPicks - prev.GallopPicks,
		GallopProbes:     s.GallopProbes - prev.GallopProbes,
		WordsANDed:       s.WordsANDed - prev.WordsANDed,
		WordsPopcounted:  s.WordsPopcounted - prev.WordsPopcounted,
		ArenaHits:        s.ArenaHits - prev.ArenaHits,
		ArenaMisses:      s.ArenaMisses - prev.ArenaMisses,
		CombinesAborted:  s.CombinesAborted - prev.CombinesAborted,
		BatchCalls:       s.BatchCalls - prev.BatchCalls,
		ParentWordsSaved: s.ParentWordsSaved - prev.ParentWordsSaved,
		TilesProcessed:   s.TilesProcessed - prev.TilesProcessed,

		SummaryWordsANDed: s.SummaryWordsANDed - prev.SummaryWordsANDed,
		TilesSkipped:      s.TilesSkipped - prev.TilesSkipped,
		TilesSparse:       s.TilesSparse - prev.TilesSparse,
		TilesDense:        s.TilesDense - prev.TilesDense,
		NListNodesMerged:  s.NListNodesMerged - prev.NListNodesMerged,
		PPCNodesBuilt:     s.PPCNodesBuilt - prev.PPCNodesBuilt,
	}
	for k := 0; k < numKinds; k++ {
		d.NodesBuilt[k] = s.NodesBuilt[k] - prev.NodesBuilt[k]
		d.BytesMaterialized[k] = s.BytesMaterialized[k] - prev.BytesMaterialized[k]
	}
	return d
}

// Map renders the non-zero counters under stable wire names — the
// key set of the kernel_counters event and the run report's
// kernel_counters object.
func (s Stats) Map() map[string]int64 {
	m := map[string]int64{}
	put := func(k string, v int64) {
		if v != 0 {
			m[k] = v
		}
	}
	put("tids_compared", s.TidsCompared)
	put("merge_picks", s.MergePicks)
	put("gallop_picks", s.GallopPicks)
	put("gallop_probes", s.GallopProbes)
	put("words_anded", s.WordsANDed)
	put("words_popcounted", s.WordsPopcounted)
	put("arena_hits", s.ArenaHits)
	put("arena_misses", s.ArenaMisses)
	put("combines_aborted", s.CombinesAborted)
	put("batch_calls", s.BatchCalls)
	put("parent_words_saved", s.ParentWordsSaved)
	put("tiles_processed", s.TilesProcessed)
	put("summary_words_anded", s.SummaryWordsANDed)
	put("tiles_skipped", s.TilesSkipped)
	put("tiles_sparse", s.TilesSparse)
	put("tiles_dense", s.TilesDense)
	put("nlist_nodes_merged", s.NListNodesMerged)
	put("ppc_nodes_built", s.PPCNodesBuilt)
	for k := 0; k < numKinds; k++ {
		put("nodes_built_"+kindNames[k], s.NodesBuilt[k])
		put("bytes_materialized_"+kindNames[k], s.BytesMaterialized[k])
	}
	return m
}

// counters is the process-global accumulator. Fields are atomics so
// worker goroutines add without coordination.
type counters struct {
	tidsCompared    atomic.Int64
	mergePicks      atomic.Int64
	gallopPicks     atomic.Int64
	gallopProbes    atomic.Int64
	wordsANDed      atomic.Int64
	wordsPopcounted atomic.Int64
	arenaHits       atomic.Int64
	arenaMisses     atomic.Int64
	combinesAborted atomic.Int64
	batchCalls      atomic.Int64
	parentSaved     atomic.Int64
	tilesProcessed  atomic.Int64
	summaryANDed    atomic.Int64
	tilesSkipped    atomic.Int64
	tilesSparse     atomic.Int64
	tilesDense      atomic.Int64
	nlistMerged     atomic.Int64
	ppcNodesBuilt   atomic.Int64
	nodesBuilt      [numKinds]atomic.Int64
	bytesMat        [numKinds]atomic.Int64
}

var (
	global counters
	// refs gates the whole package: the kernels check Enabled() (one
	// atomic load) before touching any counter.
	refs atomic.Int32
	// overlapGen increments every time an instrumented run begins while
	// another is already active. A RunToken compares the generation at
	// its begin and end: if it moved (or the run itself began second),
	// the token's delta mixes operations from several runs.
	overlapGen atomic.Int64
)

// Enable turns counting on. Calls nest; each must be paired with
// Disable.
func Enable() { refs.Add(1) }

// RunToken scopes the counters to one instrumented run: BeginRun
// snapshots the totals and enables counting, End returns the delta and
// whether it is exclusively attributable to this run. Because the
// counters are process-global, two overlapping instrumented runs
// interleave their operations; the token detects any overlap during its
// lifetime instead of silently reporting corrupt per-run numbers.
type RunToken struct {
	base Stats
	gen  int64
	solo bool
}

// BeginRun enables counting for one run and returns its token. Must be
// paired with End.
func BeginRun() RunToken {
	n := refs.Add(1)
	if n > 1 {
		// This run overlaps an already-active one: poison both sides'
		// exclusivity (the earlier run sees the generation move).
		overlapGen.Add(1)
	}
	return RunToken{base: Snapshot(), gen: overlapGen.Load(), solo: n == 1}
}

// End disables this run's counting and returns the counter delta since
// BeginRun. exclusive is true only when no other instrumented run was
// active at any point in between — the delta then attributes exactly
// this run's kernel operations. Callers reporting per-run counters
// should drop (or mark shared) a non-exclusive delta.
func (t RunToken) End() (delta Stats, exclusive bool) {
	s := Snapshot()
	exclusive = t.solo && overlapGen.Load() == t.gen
	Disable()
	return s.Sub(t.base), exclusive
}

// Disable undoes one Enable. An unpaired Disable panics, with the
// count restored first so one caller's bug cannot wedge counting off
// for the rest of the process.
func Disable() {
	if refs.Add(-1) < 0 {
		refs.Add(1)
		panic("kcount: Disable without Enable")
	}
}

// Enabled reports whether any Enable is outstanding — the kernels'
// single-load fast path.
func Enabled() bool { return refs.Load() != 0 }

// Snapshot returns the current totals. Cheap enough to call around
// every instrumented run.
func Snapshot() Stats {
	var s Stats
	s.TidsCompared = global.tidsCompared.Load()
	s.MergePicks = global.mergePicks.Load()
	s.GallopPicks = global.gallopPicks.Load()
	s.GallopProbes = global.gallopProbes.Load()
	s.WordsANDed = global.wordsANDed.Load()
	s.WordsPopcounted = global.wordsPopcounted.Load()
	s.ArenaHits = global.arenaHits.Load()
	s.ArenaMisses = global.arenaMisses.Load()
	s.CombinesAborted = global.combinesAborted.Load()
	s.BatchCalls = global.batchCalls.Load()
	s.ParentWordsSaved = global.parentSaved.Load()
	s.TilesProcessed = global.tilesProcessed.Load()
	s.SummaryWordsANDed = global.summaryANDed.Load()
	s.TilesSkipped = global.tilesSkipped.Load()
	s.TilesSparse = global.tilesSparse.Load()
	s.TilesDense = global.tilesDense.Load()
	s.NListNodesMerged = global.nlistMerged.Load()
	s.PPCNodesBuilt = global.ppcNodesBuilt.Load()
	for k := 0; k < numKinds; k++ {
		s.NodesBuilt[k] = global.nodesBuilt[k].Load()
		s.BytesMaterialized[k] = global.bytesMat[k].Load()
	}
	return s
}

// The Add* helpers are the kernels' emit sites. Each is a no-op unless
// counting is enabled; callers pass counts they already computed (loop
// exit indices, slice lengths), never per-element increments.

// AddMergeSteps accounts steps of a sorted-set merge loop (intersect,
// diff, union, and their count-only forms).
func AddMergeSteps(steps int) {
	if Enabled() {
		global.tidsCompared.Add(int64(steps))
		global.mergePicks.Add(1)
	}
}

// AddGallop accounts one galloping intersection: probes binary-search
// sequences (one per short-side element) and steps elements compared.
func AddGallop(probes, steps int) {
	if Enabled() {
		global.gallopPicks.Add(1)
		global.gallopProbes.Add(int64(probes))
		global.tidsCompared.Add(int64(steps))
	}
}

// AddWordsANDed accounts n 64-bit AND operations.
func AddWordsANDed(n int) {
	if Enabled() {
		global.wordsANDed.Add(int64(n))
	}
}

// AddWordsPopcounted accounts n 64-bit popcounts.
func AddWordsPopcounted(n int) {
	if Enabled() {
		global.wordsPopcounted.Add(int64(n))
	}
}

// AddNode accounts one materialized payload node of the given kind and
// byte footprint.
func AddNode(kind, bytes int) {
	if Enabled() && kind >= 0 && kind < numKinds {
		global.nodesBuilt[kind].Add(1)
		global.bytesMat[kind].Add(int64(bytes))
	}
}

// AddArena accounts a batch of scratch-arena tallies: requests served
// from a free list (hits) or the allocator (misses), and bounded
// combines that returned a dead child (aborted). Arenas flush their
// local tallies in batches (per released scope), not per request.
func AddArena(hits, misses, aborted int64) {
	if Enabled() && (hits != 0 || misses != 0 || aborted != 0) {
		global.arenaHits.Add(hits)
		global.arenaMisses.Add(misses)
		global.combinesAborted.Add(aborted)
	}
}

// AddBatch accounts one batched combine kernel call over m children of
// a parent of parentWords payload words: the pairwise path would have
// streamed the parent m times, so (m−1) × parentWords words of parent
// traffic were saved.
func AddBatch(m, parentWords int) {
	if Enabled() {
		global.batchCalls.Add(1)
		if m > 1 {
			global.parentSaved.Add(int64(m-1) * int64(parentWords))
		}
	}
}

// AddTiles accounts n word tiles streamed by the strip-mined bitvector
// batch kernel.
func AddTiles(n int) {
	if Enabled() {
		global.tilesProcessed.Add(int64(n))
	}
}

// AddTileKernel accounts one tiled kernel call from loop-local tallies:
// summary prefilter word ANDs, tile pairs the prefilter skipped, and
// tile pairs that ran the sparse vs. dense in-tile kernel. One atomic
// round per kernel call, never per tile.
func AddTileKernel(summaryANDs, skipped, sparse, dense int) {
	if Enabled() {
		if summaryANDs != 0 {
			global.summaryANDed.Add(int64(summaryANDs))
		}
		if skipped != 0 {
			global.tilesSkipped.Add(int64(skipped))
		}
		if sparse != 0 {
			global.tilesSparse.Add(int64(sparse))
		}
		if dense != 0 {
			global.tilesDense.Add(int64(dense))
		}
	}
}

// AddStripKinds accounts the strip-mined bitvector batch kernel's
// sparse/dense classification: strips of the resident parent that were
// entirely zero (children cleared without streaming), handled on the
// sparse nonzero-word path, or streamed densely. Charged once per
// AndManyInto call on the tiles_* counters so the bitvector rep shares
// the tiled layout's evidence trail.
func AddStripKinds(skipped, sparse, dense int) {
	if Enabled() {
		if skipped != 0 {
			global.tilesSkipped.Add(int64(skipped))
		}
		if sparse != 0 {
			global.tilesSparse.Add(int64(sparse))
		}
		if dense != 0 {
			global.tilesDense.Add(int64(dense))
		}
	}
}

// AddNListMerge accounts the entries one DiffNodeset merge kernel call
// touched (loop exit indices, never per-element increments).
func AddNListMerge(steps int) {
	if Enabled() {
		global.nlistMerged.Add(int64(steps))
	}
}

// AddPPCNodes accounts the prefix-tree nodes one PPC encoding pass
// assigned pre/post ranks to.
func AddPPCNodes(n int) {
	if Enabled() {
		global.ppcNodesBuilt.Add(int64(n))
	}
}

// AddNodes accounts n materialized payload nodes of one kind totalling
// bytes — the batched form of AddNode, one atomic round per kernel
// call instead of one per child.
func AddNodes(kind, n, bytes int) {
	if Enabled() && kind >= 0 && kind < numKinds && n > 0 {
		global.nodesBuilt[kind].Add(int64(n))
		global.bytesMat[kind].Add(int64(bytes))
	}
}
