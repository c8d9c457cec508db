package main

import (
	"runtime"
	"strings"
	"time"

	fim "repro"
)

// tracer runs ops with spans and an observer attached and accumulates
// the per-layer readings of a traced run.
type tracer struct {
	rec  *spanRecorder
	heap *heapSampler

	parseMS, recodeMS, decodeMS []float64
	opMS, plainMS               []float64
	parseBytes                  float64
	liveToHeap                  []float64
	runs                        []runStats
}

func newTracer() *tracer {
	return &tracer{rec: newSpanRecorder(), heap: startHeapSampler(time.Millisecond)}
}

// close stops the tracer's heap sampler.
func (t *tracer) close() { t.heap.Stop() }

// op runs one library op twice: plain, as the untraced baseline of the
// tracing overhead, then traced. The traced run records spans around
// parse, mine and decode (the op), then around a recode probe and the
// verification, which the op's time excludes. It returns the traced
// op's time and its verdict.
func (t *tracer) op(name string, text []byte, abs int, ref *reference, opt fim.Options) (time.Duration, string) {
	runtime.GC()
	t0 := time.Now()
	_, _ = libraryOp(name, text, abs, opt) // the traced run below is the one checked
	t.plainMS = append(t.plainMS, ms(time.Since(t0)))

	runtime.GC()
	t.heap.Reset()
	base := heapObjectsBytes()
	op := t.rec.newOp()
	root := t.rec.begin(op, 0, "op")
	var (
		db   *fim.DB
		res  *fim.Result
		sets []fim.ItemsetCount
		err  error
	)
	ro := &runObserver{}
	topt := opt
	topt.Observer = ro
	parse := t.rec.timed(op, root, "dataset.parse", func() { db, err = parseTable(name, text) })
	if err == nil {
		t.rec.timed(op, root, "fim.mine", func() { res, err = fim.MineAbsolute(db, abs, topt) })
	}
	var decode time.Duration
	if err == nil {
		decode = t.rec.timed(op, root, "core.decode", func() { sets = res.Decoded() })
	}
	lat := t.rec.end(root)
	growth := float64(t.heap.Peak()) - float64(base)
	if err != nil {
		return lat, err.Error()
	}
	if res.Incomplete {
		return lat, "incomplete result"
	}
	recode := t.rec.timed(op, 0, "dataset.recode", func() { recodeProbe(db, abs, opt.Representation) })
	var msg string
	t.rec.timed(op, 0, "verify", func() { _, msg = ref.check(sets) })

	st := ro.stats()
	t.runs = append(t.runs, st)
	t.parseMS = append(t.parseMS, ms(parse))
	t.parseBytes += float64(len(text))
	t.recodeMS = append(t.recodeMS, ms(recode))
	t.decodeMS = append(t.decodeMS, ms(decode))
	t.opMS = append(t.opMS, ms(lat))
	if growth > 0 {
		t.liveToHeap = append(t.liveToHeap, float64(st.peakLive)/growth)
	}
	return lat, msg
}

const mib = 1 << 20

// layerMetrics turns the traced readings into the per-layer metrics
// that come from a workload's own ops.
func (t *tracer) layerMetrics(m metricSet) {
	m.set("dataset.parse_ms", mean(t.parseMS))
	m.set("dataset.parse_mb_per_s", ratio(t.parseBytes/mib, sum(t.parseMS)/1000))
	m.set("dataset.recode_ms", mean(t.recodeMS))
	m.set("dataset.share", ratio(sum(t.parseMS)+sum(t.recodeMS), sum(t.opMS)))
	m.set("core.decode_ms", mean(t.decodeMS))
	m.set("obs.overhead_frac", ratio(sum(t.opMS), sum(t.plainMS))-1)

	type minerSum struct {
		mineMS           []float64
		cand, freq, runs float64
	}
	miners := map[string]*minerSum{"eclat": {}, "apriori": {}, "fpgrowth": {}}
	counters := map[string]float64{}
	var busy, slot, imbWall, wall, stolen, peakLive float64
	for _, r := range t.runs {
		acc := miners[r.algo]
		if acc == nil {
			continue
		}
		acc.mineMS = append(acc.mineMS, float64(r.mineNS)/1e6)
		acc.cand += float64(r.candidates)
		acc.freq += float64(r.frequent)
		acc.runs++
		for k, v := range r.counters {
			switch {
			case strings.HasPrefix(k, "nodes_built_"):
				k = "nodes_built"
			case strings.HasPrefix(k, "bytes_materialized_"):
				k = "bytes_materialized"
			}
			counters[k] += float64(v)
		}
		busy += float64(r.busyNS)
		slot += float64(r.slotNS)
		imbWall += r.imbWallNS
		wall += float64(r.wallNS)
		stolen += float64(r.stolen)
		peakLive = max(peakLive, float64(r.peakLive))
	}
	for name, s := range miners {
		m.set(name+".mine_ms", mean(s.mineMS))
		m.set(name+".candidates", ratio(s.cand, s.runs))
		m.set(name+".frequent", ratio(s.freq, s.runs))
		m.set(name+".yield", ratio(s.freq, s.cand))
	}
	runs := float64(len(t.runs))
	m.set("vertical.nodes_built", ratio(counters["nodes_built"], runs))
	m.set("vertical.materialized_mb", ratio(counters["bytes_materialized"]/mib, runs))
	m.set("vertical.tids_compared", ratio(counters["tids_compared"], runs))
	m.set("vertical.words_anded", ratio(counters["words_anded"], runs))
	m.set("vertical.parent_words_saved", ratio(counters["parent_words_saved"], runs))
	m.set("vertical.arena_hit_frac", ratio(counters["arena_hits"], counters["arena_hits"]+counters["arena_misses"]))
	m.set("sched.busy_ms", ratio(busy/1e6, runs))
	m.set("sched.idle_frac", ratio(slot-busy, slot))
	m.set("sched.imbalance", ratio(imbWall, wall))
	m.set("sched.stolen", ratio(stolen, runs))
	m.set("runctl.peak_live_mb", peakLive/mib)
	m.set("runctl.live_to_heap", median(t.liveToHeap))
}
