// Package apriori implements Algorithm 1 of the paper: generational
// (breadth-first) frequent itemset mining over any vertical
// representation, with the support-counting loop parallelized by an
// OpenMP-style worker team under static scheduling (§III).
//
// Per generation the miner:
//
//  1. joins sibling pairs of the candidate trie's top level
//     (candidate_generation),
//  2. optionally prunes candidates with an infrequent subset,
//  3. counts every candidate's support in parallel — each iteration
//     combines the candidate's two parent payloads into its own payload,
//     with no shared mutable state ("each thread calculates an
//     independent support and does not have data dependency"),
//  4. commits the frequent survivors as the next trie level
//     (candidate_pruning).
//
// The loop terminates when a generation yields no frequent candidates.
//
// Because every generation retains the payload of every frequent
// candidate, Apriori's working set is the full breadth of a level — the
// memory-footprint property behind its poor tidset/bitvector scalability
// in the paper's evaluation (§V-A).
package apriori

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trie"
	"repro/internal/vertical"
)

// DefaultSchedule is the paper's choice for Apriori's support-counting
// loop: static scheduling ("the static scheduling can partition the
// workload as there [are] enough iterations").
var DefaultSchedule = sched.Schedule{Policy: sched.Static}

// Mine runs Apriori over the recoded database with the given absolute
// minimum support.
//
// When opt.Control is set, the run is cancellable and budgeted: the
// team's counting loops drain at chunk boundaries, the live payload
// footprint of each generation is charged against the memory budget, and
// a breach either stops the run (*runctl.BudgetError) or — under
// DegradeToDiffset on a tidset/bitvector run — rewrites the newest level
// as diffsets relative to each node's generation parent and continues
// under the bounded representation. A stopped run returns the partial
// Result (Incomplete set, supports of everything committed exact)
// together with the stop cause.
func Mine(rec *dataset.Recoded, minSup int, opt core.Options) (*core.Result, error) {
	if minSup < 1 {
		minSup = 1
	}
	rep := vertical.New(opt.Representation)
	schedule := DefaultSchedule
	if opt.HasSchedule {
		schedule = opt.Schedule
	}
	team := sched.NewTeam(opt.Workers)
	col := opt.Collector
	rc := opt.Control
	o := opt.Observer
	met := opt.Metrics
	team.SetMetrics(met)

	res := &core.Result{
		Algorithm:      core.Apriori,
		Representation: opt.Representation,
		MinSup:         minSup,
		Rec:            rec,
	}

	// Generation 1: the recode pass already counted item supports.
	tr := trie.NewRoot(itemSupports(rec))
	nodes := rep.Roots(rec) // payload of each level-1 node, index-aligned with the trie level
	if root := col.NewPhase("apriori/roots", schedule, true, len(nodes)); root != nil {
		for i, n := range nodes {
			root.Add(i, int64(n.Bytes()), 0, int64(n.Bytes()))
		}
	}

	// collect gathers every committed level into res; valid at any stop
	// point because Commit only ever appends whole frequent levels.
	collect := func(err error) (*core.Result, error) {
		sets, sups := tr.FrequentItemsets()
		res.Counts = make([]core.ItemsetCount, len(sets))
		for i := range sets {
			res.Counts[i] = core.ItemsetCount{Items: sets[i], Support: sups[i]}
			if len(sets[i]) > res.MaxK {
				res.MaxK = len(sets[i])
			}
		}
		if err != nil {
			res.Incomplete = true
			res.StopCause = err
		}
		return res, err
	}

	// degrade rewrites the newest level as diffsets (relative to each
	// node's generation parent, so sibling joins stay exact) and switches
	// the representation for the remaining generations.
	degrade := func(gen int, level []vertical.Node, parentOf func(w int) vertical.Node) bool {
		if res.Degraded || !vertical.Degradable(rep.Kind()) {
			return false
		}
		before := vertical.NodesBytes(level)
		for w, n := range level {
			level[w] = vertical.DegradeChild(parentOf(w), n)
		}
		rc.ChargeMem(vertical.NodesBytes(level) - before)
		rep = vertical.New(vertical.Diffset)
		res.Degraded = true
		obs.Emit(o, obs.Event{Type: obs.Degraded, Level: gen,
			Representation: vertical.Diffset.String(), LiveBytes: rc.MemUsed()})
		return true
	}

	// Per-worker arenas for the counting loops: candidate payloads
	// recycle generation over generation, so once the free lists warm up
	// the counting loop stops touching the allocator.
	arenas := make([]*vertical.Arena, team.Workers())
	for w := range arenas {
		arenas[w] = vertical.NewArena()
	}
	// Roots are seeded from the recoded database and may share backing
	// storage with it, so they are never recycled; every later level is
	// miner-owned and safe to release once retired.
	parentsReleasable := false

	obs.Emit(o, obs.Event{Type: obs.LevelStart, Level: 1, Phase: "apriori/roots",
		Candidates: len(nodes)})
	rc.ChargeMem(MemoryFootprint(nodes))
	if err := rc.AddItemsets(len(nodes)); err != nil {
		return collect(err)
	}
	if rc.OverMemory() {
		if rc.Budget().DegradeToDiffset && !res.Degraded && vertical.Degradable(rep.Kind()) {
			before := MemoryFootprint(nodes)
			for i, n := range nodes {
				nodes[i] = vertical.DegradeRoot(n, rec.Universe)
			}
			rc.ChargeMem(MemoryFootprint(nodes) - before)
			rep = vertical.New(vertical.Diffset)
			res.Degraded = true
			obs.Emit(o, obs.Event{Type: obs.Degraded, Level: 1,
				Representation: vertical.Diffset.String(), LiveBytes: rc.MemUsed()})
		} else if err := rc.CheckMemory(); err != nil {
			return collect(err)
		}
	}
	obs.Emit(o, obs.Event{Type: obs.LevelEnd, Level: 1, Phase: "apriori/roots",
		Frequent: len(nodes), LiveBytes: rc.MemUsed()})

	for gen := 1; tr.Levels[len(tr.Levels)-1].Len() != 0; gen++ {
		if err := rc.Err(); err != nil {
			return collect(err)
		}
		levelStart := time.Now()
		cands := tr.Generate()
		generated := cands.Len()
		pruned := 0
		if opt.Prune {
			// Subset pruning runs on the team: the k-level hash index is
			// built once, the per-candidate checks fan out.
			var err error
			if pruned, err = tr.PruneParallel(cands, team, schedule, rc); err != nil {
				return collect(err)
			}
		}
		n := cands.Len()
		if n == 0 {
			break
		}
		// Deferred payloads (nodeset's lazy 2-itemset lists) materialize
		// once per parent up front: the counting loop shares parents
		// across concurrently counted blocks — a node is x in its own
		// block and y in its elder siblings' — so the in-combine
		// materialization that class-recursive miners rely on would race
		// here. The prepass is itself parallel; each node is touched by
		// exactly one iteration.
		if len(nodes) > 0 {
			if _, ok := nodes[0].(vertical.Preparer); ok {
				used := make([]bool, len(nodes))
				for i := 0; i < n; i++ {
					used[cands.Px[i]] = true
					used[cands.Py[i]] = true
				}
				if err := team.ForCtx(rc, len(nodes), schedule, func(_, i int) {
					if used[i] {
						nodes[i].(vertical.Preparer).Prepare()
					}
				}); err != nil {
					return collect(err)
				}
			}
		}
		phaseName := fmt.Sprintf("apriori/gen%d", gen+1)
		obs.Emit(o, obs.Event{Type: obs.LevelStart, Level: gen + 1, Phase: phaseName,
			Candidates: generated, Pruned: pruned})
		met.Label(phaseName)
		phase := col.NewPhase(phaseName, schedule, true, n)
		// Serial overhead of generation + pruning: proportional to the
		// candidate rows touched.
		phase.AddSerial(int64(n) * 16)
		if phase != nil {
			// The parent pool is the previous level's payloads, shared
			// machine-wide.
			phase.UniqueParent = MemoryFootprint(nodes)
		}

		lazy := opt.LazyMaterialize

		// Parallel support counting (Algorithm 1 line 8). The loop
		// iterates prefix blocks — each iteration keeps one parent px
		// resident and combines it against its entire sibling run in a
		// single kernel call — with the static schedule's contiguous
		// cuts weighted by estimated combine cost so block granularity
		// keeps the paper's balance properties. The combine gets minSup,
		// so the tidset and diffset kernels stop building a candidate
		// once it cannot be frequent. Lazy materialization instead
		// computes exact supports per candidate with the count-only
		// kernel and allocates the frequent survivors afterwards.
		childNodes := make([]vertical.Node, n)
		var err error
		if lazy {
			err = team.ForCtx(rc, n, schedule, func(_, i int) {
				px := nodes[cands.Px[i]]
				py := nodes[cands.Py[i]]
				cands.Level.Supports[i] = rep.CombineSupport(px, py)
				cost := int64(vertical.CombineCost(px, py))
				phase.Add(i, cost, cost, 0)
			})
		} else {
			nBlocks := len(cands.Blocks) - 1
			weights := make([]int64, nBlocks)
			for b := 0; b < nBlocks; b++ {
				lo, hi := cands.Blocks[b], cands.Blocks[b+1]
				w := int64(hi-lo) * int64(nodes[cands.Px[lo]].Bytes())
				for i := lo; i < hi; i++ {
					w += int64(nodes[cands.Py[i]].Bytes())
				}
				weights[b] = w
			}
			err = team.ForWeightedCtx(rc, nBlocks, weights, schedule, func(worker, b int) {
				lo, hi := int(cands.Blocks[b]), int(cands.Blocks[b+1])
				m := hi - lo
				px := nodes[cands.Px[lo]]
				a := arenas[worker]
				pys, out := a.NodeScratch(m)
				for k := 0; k < m; k++ {
					pys[k] = nodes[cands.Py[lo+k]]
				}
				rep.CombineManyInto(px, pys, out, a, minSup)
				pxBytes := int64(px.Bytes())
				remoteParent := pxBytes // px streamed once per block
				var mem int64
				for k := 0; k < m; k++ {
					i := lo + k
					child := out[k]
					childNodes[i] = child
					cands.Level.Supports[i] = child.Support()
					cb := int64(child.Bytes())
					mem += cb
					cost := pxBytes + int64(pys[k].Bytes())
					phase.Add(i, cost+cb, remoteParent+int64(pys[k].Bytes()), cb)
					remoteParent = 0
				}
				rc.ChargeMem(mem)
			})
		}
		for _, a := range arenas {
			a.Flush()
		}
		core.EmitPhases(o, met)
		if err != nil {
			return collect(err)
		}

		// Commit compares every candidate's support against minSup and
		// keeps only the frequent ones. A child the bounded combine cut
		// short reports some support below minSup, not its true one;
		// nothing reads that value after this point.
		level, kept := tr.Commit(cands, minSup)
		phase.AddSerial(int64(n) * 8)
		// Carry forward only the frequent payloads, aligned with the new
		// level; lazy runs materialize the survivors here, paying the
		// parent reads a second time but allocating nothing for the
		// pruned candidates.
		next := make([]vertical.Node, level.Len())
		if lazy {
			parents := nodes
			pxs := make([]int32, len(kept))
			pys := make([]int32, len(kept))
			for w, i := range kept {
				pxs[w], pys[w] = cands.Px[i], cands.Py[i]
			}
			matName := fmt.Sprintf("apriori/gen%d-materialize", gen+1)
			met.Label(matName)
			mat := col.NewPhase(matName, schedule, true, len(kept))
			if mat != nil {
				mat.UniqueParent = MemoryFootprint(parents)
			}
			err := team.ForCtx(rc, len(kept), schedule, func(worker, w int) {
				px := parents[pxs[w]]
				py := parents[pys[w]]
				child := vertical.Combine(rep, arenas[worker], px, py, minSup)
				next[w] = child
				cost := int64(vertical.CombineCost(px, py))
				rc.ChargeMem(int64(child.Bytes()))
				mat.Add(w, cost+int64(child.Bytes()), cost, int64(child.Bytes()))
			})
			for _, a := range arenas {
				a.Flush()
			}
			core.EmitPhases(o, met)
			if err != nil {
				return collect(err)
			}
		} else {
			for w, i := range kept {
				next[w] = childNodes[i]
			}
			// Release the infrequent candidates' payloads, and recycle
			// their buffers: nil out the survivors, then release the
			// rest round-robin so every worker's free list warms up, not
			// just worker 0's. Children never alias parents or each
			// other, so the kept payloads are safe.
			rc.ChargeMem(vertical.NodesBytes(next) - vertical.NodesBytes(childNodes))
			for _, i := range kept {
				childNodes[i] = nil
			}
			for j, c := range childNodes {
				arenas[j%len(arenas)].Release(c)
			}
		}
		if err := rc.AddItemsets(level.Len()); err != nil {
			return collect(err)
		}

		// Memory-budget decision point: the new level is materialized
		// and its parents are still live — the generation's peak.
		if rc.OverMemory() {
			parents := nodes
			ok := rc.Budget().DegradeToDiffset && degrade(gen+1, next, func(w int) vertical.Node {
				return parents[cands.Px[kept[w]]]
			})
			if !ok {
				if err := rc.CheckMemory(); err != nil {
					nodes = next
					return collect(err)
				}
			}
		}
		rc.ChargeMem(-MemoryFootprint(nodes)) // retire the parent level
		if parentsReleasable {
			for j, p := range nodes {
				arenas[j%len(arenas)].Release(p)
			}
		}
		parentsReleasable = true // committed levels are miner-owned
		nodes = next
		obs.Emit(o, obs.Event{Type: obs.LevelEnd, Level: gen + 1, Phase: phaseName,
			Candidates: n, Pruned: pruned, Frequent: level.Len(),
			LiveBytes: rc.MemUsed(), ElapsedNS: int64(time.Since(levelStart))})
	}

	return collect(nil)
}

// itemSupports extracts the per-item supports recorded by the recode pass.
func itemSupports(rec *dataset.Recoded) []int {
	sups := make([]int, len(rec.Items))
	for i, fi := range rec.Items {
		sups[i] = fi.Support
	}
	return sups
}

// MemoryFootprint reports the total payload bytes a representation holds
// for one generation's frequent nodes — the quantity §V-A argues makes
// tidset/bitvector Apriori non-scalable. Exposed for the
// memory-footprint ablation (experiment A2).
func MemoryFootprint(nodes []vertical.Node) int64 {
	var b int64
	for _, n := range nodes {
		b += int64(n.Bytes())
	}
	return b
}
