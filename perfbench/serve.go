package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	fim "repro"
	"repro/internal/core"
	"repro/internal/obs/metrics"
	"repro/internal/serve"
)

// serveSpecs are the base tables the serve-mixed sessions upload. Each
// table is mined at three calibrated supports: mid (target), high (half
// the target's work: a filtered cache hit after mid) and low (twice the
// target's work: a miss after mid).
var serveSpecs = []tableSpec{
	{shape: chessLike, rows: 1200, floor: 0.28, target: 5e6},
	{shape: mushroomLike, rows: 2000, floor: 0.20, target: 5e6},
	{shape: chessLike, rows: 1200, floor: 0.28, target: 5e6},
	{shape: mushroomLike, rows: 2000, floor: 0.20, target: 5e6},
	{shape: chessLike, rows: 1200, floor: 0.28, target: 5e6},
	{shape: mushroomLike, rows: 2000, floor: 0.20, target: 5e6},
	{shape: chessLike, rows: 1200, floor: 0.28, target: 5e6},
	{shape: mushroomLike, rows: 2000, floor: 0.20, target: 5e6},
}

// serveCacheBytes replaces the server's default 64 MiB result-cache
// budget, the one setting changed from the shipped defaults. Every
// session uploads fresh tables, so the default cache would take about
// the whole run to fill and the heap would grow with the run's length;
// at 8 MiB it fills within the first seconds and the heap is measured
// in steady state.
const serveCacheBytes = 8 << 20

// serveTable is one base table with its three supports and answers.
type serveTable struct {
	name           string
	text           []byte
	low, mid, high int
	refs           map[int]*reference // by absolute support
}

// serveEnv is the serve-mixed set-up: the tables, and a server on a
// loopback listener with a client pool.
type serveEnv struct {
	seed    int64
	clients int
	tables  []*serveTable
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
}

func setupServe(cfg config) (*serveEnv, error) {
	e := &serveEnv{seed: cfg.seed, clients: cfg.nproc}
	checked := map[string]bool{}
	for i, spec := range serveSpecs {
		seed := deriveSeed(cfg.seed, cfg.workload, i)
		db, lat, text, err := generate(spec, seed)
		if err != nil {
			return nil, err
		}
		st := &serveTable{name: fmt.Sprintf("%s-%d", spec.shape.name, spec.rows), text: text}
		st.mid = lat.calibrate(spec.target, 0)
		st.low = min(st.mid-1, lat.calibrate(2*spec.target, 0))
		st.high = max(st.mid+1, lat.calibrate(spec.target/2, 0))
		low, err := referenceAnswer(db, st.low)
		if err != nil {
			return nil, fmt.Errorf("%s@%d: %w", st.name, st.low, err)
		}
		st.refs = make(map[int]*reference)
		for _, abs := range []int{st.low, st.mid, st.high} {
			st.refs[abs] = newReference(text, abs, atSupport(low, abs))
		}
		e.tables = append(e.tables, st)
		if !checked[spec.shape.name] {
			checked[spec.shape.name] = true
			rel := float64(st.mid) / float64(spec.rows)
			if err := crossCheck(spec.shape, deriveSeed(cfg.seed, "verify/"+cfg.workload, i), verifyRows, rel); err != nil {
				return nil, err
			}
		}
	}

	// The server runs with its shipped defaults but for the cache size.
	e.srv = serve.New(serve.Config{CacheBytes: serveCacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * e.clients}}
	return e, nil
}

// close drains the server, shuts the listener down and waits for the
// serving goroutine to return.
func (e *serveEnv) close() {
	if e.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // every request has completed before close
	if e.hs != nil {
		_ = e.hs.Shutdown(ctx)
		if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve: %v\n", err)
		}
		e.client.CloseIdleConnections()
	}
	e.srv = nil
}

func (e *serveEnv) refs() []*reference {
	var out []*reference
	for _, st := range e.tables {
		for _, r := range st.refs {
			out = append(out, r)
		}
	}
	return out
}

// request is one planned /mine call.
type request struct {
	table    *serveTable
	body     []byte
	abs      int
	algo     string // "" for the server's default configuration
	rep      string
	filtered bool // planned as a filtered cache hit
}

func (rq *request) what() string {
	cfgName := "default"
	if rq.algo != "" {
		cfgName = rq.algo + "/" + rq.rep
	}
	return fmt.Sprintf("%s@%d %s", rq.table.name, rq.abs, cfgName)
}

// session plans one client's requests for a round: a fresh upload of a
// base table (its rows shuffled, so its content hash is new), re-queried
// at the same support (exact hit), a higher one (filtered hit) and a
// lower one (miss), then the explicit variants.
func (e *serveEnv) session(client, round int) []*request {
	st := e.tables[(client+round)%len(e.tables)]
	r := rand.New(rand.NewSource(deriveSeed(e.seed, "serve/client"+strconv.Itoa(client), round)))
	body := shuffledBody(st.text, r)
	rq := func(abs int, algo, rep string, filtered bool) *request {
		return &request{table: st, body: body, abs: abs, algo: algo, rep: rep, filtered: filtered}
	}
	return []*request{
		rq(st.mid, "", "", false),
		rq(st.mid, "", "", false),
		rq(st.high, "", "", true),
		rq(st.low, "", "", false),
		rq(st.mid, "apriori", "bitvector", false),
		rq(st.mid, "fpgrowth", "", false),
		rq(st.high, "fpgrowth", "", true),
		rq(st.mid, "eclat", "tidset", false),
	}
}

// shared plans the request every client sends at the same moment in a
// coalescing round: a fresh upload, so it misses the cache and the
// server runs it once for all of them.
func (e *serveEnv) shared(round int) *request {
	st := e.tables[round%len(e.tables)]
	r := rand.New(rand.NewSource(deriveSeed(e.seed, "serve/shared", round)))
	return &request{table: st, body: shuffledBody(st.text, r), abs: st.mid}
}

// mineResponse is the part of the /mine response body the benchmark
// reads.
type mineResponse struct {
	RunID      int64   `json:"run_id"`
	Incomplete bool    `json:"incomplete"`
	StopReason string  `json:"stop_reason"`
	Error      string  `json:"error"`
	Cached     bool    `json:"cached"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Sets       []struct {
		Items   []uint32 `json:"items"`
		Support int      `json:"support"`
	} `json:"sets"`
}

// exchange is one request with its response and verdict.
type exchange struct {
	req     *request
	op      int64 // span op, in traced runs
	status  int
	lat     time.Duration
	body    []byte
	err     error
	size    int
	resp    mineResponse
	verdict string
}

// send makes one request; only the HTTP round trip, body read
// included, is timed. The body is checked later, by verify.
func (e *serveEnv) send(client int, rq *request, rec *spanRecorder) *exchange {
	q := url.Values{"abssup": {strconv.Itoa(rq.abs)}, "limit": {"0"}}
	if rq.algo != "" {
		q.Set("algo", rq.algo)
	}
	if rq.rep != "" {
		q.Set("rep", rq.rep)
	}
	var op, root int64
	if rec != nil {
		op = rec.newOp()
		root = rec.begin(op, 0, "serve.request")
	}
	x := &exchange{req: rq}
	var body []byte
	t0 := time.Now()
	err := func() error {
		hreq, err := http.NewRequest(http.MethodPost, e.base+"/mine?"+q.Encode(), bytes.NewReader(rq.body))
		if err != nil {
			return err
		}
		hreq.Header.Set("X-Tenant", "client-"+strconv.Itoa(client))
		resp, err := e.client.Do(hreq)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		x.status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		return err
	}()
	x.lat = time.Since(t0)
	if rec != nil {
		rec.end(root)
	}
	x.op, x.body, x.err = op, body, err
	return x
}

// verify decodes a response and compares its answer with the reference.
func (x *exchange) verify(rec *spanRecorder) string {
	if rec != nil {
		defer rec.end(rec.begin(x.op, 0, "verify"))
	}
	body := x.body
	x.size, x.body = len(body), nil
	if x.err != nil {
		return x.err.Error()
	}
	if err := json.Unmarshal(body, &x.resp); err != nil {
		return fmt.Sprintf("status %d, undecodable body: %v", x.status, err)
	}
	switch {
	case x.status != http.StatusOK:
		return fmt.Sprintf("status %d: %s", x.status, x.resp.Error)
	case x.resp.Incomplete || x.resp.Error != "":
		return fmt.Sprintf("incomplete answer (%s): %s", x.resp.StopReason, x.resp.Error)
	}
	got := make([]fim.ItemsetCount, len(x.resp.Sets))
	for i, s := range x.resp.Sets {
		got[i] = fim.ItemsetCount{Items: s.Items, Support: s.Support}
	}
	x.resp.Sets = nil // the exchange outlives the check; the answer need not
	_, d := x.req.table.refs[x.req.abs].check(got)
	return d
}

// loop runs whole rounds until the run length is reached and returns
// the tally, the exchanges and each round's peak heap. In a round
// every client runs its session concurrently; every second round then
// has all clients send one shared request at once. A round ends when
// every client is done, so the mix of requests is the same in every
// run of a given length. Answers are verified between rounds, so the
// clients' checking does not compete with the server for the CPUs.
func (e *serveEnv) loop(cfg config, rec *spanRecorder, hs *heapSampler) (*tally, []*exchange, []float64) {
	t := &tally{}
	var all []*exchange
	parallel := func(plan func(client int) []*request) {
		out := make([][]*exchange, e.clients)
		var wg sync.WaitGroup
		for c := 0; c < e.clients; c++ {
			reqs := plan(c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for _, rq := range reqs {
					out[c] = append(out[c], e.send(c, rq, rec))
				}
			}(c)
		}
		wg.Wait()
		for _, xs := range out {
			for _, x := range xs {
				x.verdict = x.verify(rec)
				t.record(x.lat, x.req.what(), x.verdict)
			}
			all = append(all, xs...)
		}
	}
	var peaks []float64
	start := time.Now()
	for round := 0; time.Since(start) < cfg.duration || len(all) == 0; round++ {
		hs.Reset()
		t.beginPass()
		parallel(func(c int) []*request { return e.session(c, round) })
		if round%2 == 1 {
			rq := e.shared(round)
			parallel(func(int) []*request { return []*request{rq} })
		}
		t.endPass(e.clients, cfg.nproc)
		peaks = append(peaks, float64(hs.Peak()))
	}
	return t, all, peaks
}

// measure runs the rounds; the heap figure is the median over rounds of
// the round's peak heap.
func (e *serveEnv) measure(cfg config) (*tally, float64, int) {
	runtime.GC()
	hs := startHeapSampler(time.Millisecond)
	defer hs.Stop()
	t, _, peaks := e.loop(cfg, nil, hs)
	return t, median(peaks), e.clients
}

// traced runs the loop with spans, reads the server's /stats and
// /metrics before and after it to derive the serve.* metrics, checks
// the server's admission counts against the clients' own, and replays
// each configuration the server mined through the traced library op for
// the layers below the server.
func (e *serveEnv) traced(cfg config, tr *tracer, m metricSet) (*tally, error) {
	stats0, prom0, err := e.scrape()
	if err != nil {
		return nil, err
	}
	t, xs, _ := e.loop(cfg, tr.rec, tr.heap)
	stats1, prom1, err := e.scrape()
	if err != nil {
		return nil, err
	}

	// The clients' own tallies. Followers of a coalesced run receive
	// the leader's run ID, so each distinct run ID among the uncached
	// answers is one admitted run and the rest were coalesced.
	var hits, filtered, uncached, shed int64
	var hitMS, runMS, overheadMS, sizes []float64
	runs := map[int64]bool{}
	for _, x := range xs {
		sizes = append(sizes, float64(x.size))
		switch {
		case x.status == http.StatusTooManyRequests:
			shed++
		case x.status != http.StatusOK:
		case x.resp.Cached && x.req.filtered:
			filtered++
			hitMS = append(hitMS, ms(x.lat))
		case x.resp.Cached:
			hits++
			hitMS = append(hitMS, ms(x.lat))
		default:
			uncached++
			if !runs[x.resp.RunID] {
				runs[x.resp.RunID] = true
				runMS = append(runMS, x.resp.ElapsedMS)
				overheadMS = append(overheadMS, ms(x.lat)-x.resp.ElapsedMS)
			}
		}
	}
	admitted := int64(len(runs))
	coalesced := uncached - admitted
	server := map[string][2]int64{
		"cache hits":     {stats1.CacheHits - stats0.CacheHits, hits},
		"filtered hits":  {stats1.CacheFiltered - stats0.CacheFiltered, filtered},
		"coalesced":      {stats1.Deduplicated - stats0.Deduplicated, coalesced},
		"admitted":       {stats1.Admitted - stats0.Admitted, admitted},
		"shed and quota": {stats1.Shed + stats1.QuotaRejected - stats0.Shed - stats0.QuotaRejected, shed},
	}
	var mismatch []string
	for name, v := range server {
		if v[0] != v[1] {
			mismatch = append(mismatch, fmt.Sprintf("%s: server %d, clients %d", name, v[0], v[1]))
		}
	}
	n := float64(len(xs))
	m.set("serve.hit_frac", float64(stats1.CacheHits-stats0.CacheHits)/n)
	m.set("serve.filtered_frac", float64(stats1.CacheFiltered-stats0.CacheFiltered)/n)
	m.set("serve.coalesced_frac", float64(stats1.Deduplicated-stats0.Deduplicated)/n)
	m.set("serve.queue_wait_ms_p50", 1000*histQuantile(prom0, prom1, "fimserve_queue_wait_seconds", 0.5))
	m.set("serve.run_ms_p50", median(runMS))
	m.set("serve.hit_ms_p50", median(hitMS))
	m.set("serve.overhead_ms", median(overheadMS))
	m.set("serve.response_kb", mean(sizes)/1024)
	fmt.Printf("serve-mixed: %d requests, %d runs admitted, %d coalesced, %d exact and %d filtered cache hits, %d shed\n",
		len(xs), admitted, coalesced, hits, filtered, shed)

	// Replay what the server mined, once per configuration, through the
	// traced library op.
	for _, cfgReq := range e.minedConfigs() {
		opt := fim.DefaultOptions(cfg.nproc)
		if cfgReq.algo != "" {
			if opt.Algorithm, err = core.ParseAlgorithm(cfgReq.algo); err != nil {
				return t, err
			}
		}
		if cfgReq.rep != "" {
			if opt.Representation, err = fim.ParseRepresentation(cfgReq.rep); err != nil {
				return t, err
			}
		}
		st := cfgReq.table
		if _, msg := tr.op(st.name, st.text, cfgReq.abs, st.refs[cfgReq.abs], opt); msg != "" {
			mismatch = append(mismatch, "replay of "+cfgReq.what()+": "+msg)
		}
	}
	if len(mismatch) > 0 {
		return t, fmt.Errorf("%v", mismatch)
	}
	return t, nil
}

// minedConfigs lists each (table, support, configuration) the sessions
// make the server mine.
func (e *serveEnv) minedConfigs() []*request {
	var out []*request
	for c := range e.tables {
		for _, rq := range e.session(c, 0) {
			if rq.filtered {
				continue
			}
			dup := false
			for _, o := range out {
				dup = dup || (o.table == rq.table && o.abs == rq.abs && o.algo == rq.algo && o.rep == rq.rep)
			}
			if !dup {
				out = append(out, rq)
			}
		}
	}
	return out
}

// scrape reads /stats and /metrics.
func (e *serveEnv) scrape() (*serve.Stats, *metrics.Scrape, error) {
	get := func(path string) ([]byte, error) {
		resp, err := e.client.Get(e.base + path)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	body, err := get("/stats")
	if err != nil {
		return nil, nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, nil, fmt.Errorf("decoding /stats: %w", err)
	}
	body, err = get("/metrics")
	if err != nil {
		return nil, nil, err
	}
	sc, err := metrics.ParseText(bytes.NewReader(body))
	if err != nil {
		return nil, nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return &st, sc, nil
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly within the bucket
// that holds it.
func histQuantile(before, after *metrics.Scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range after.Samples(name + "_bucket") {
		le, err := strconv.ParseFloat(s.Labels["le"], 64)
		if err != nil {
			continue // the +Inf bucket
		}
		prev, _ := before.Value(s.Name, s.Labels)
		bs = append(bs, bucket{le, s.Value - prev})
	}
	if len(bs) == 0 {
		return 0
	}
	slices.SortFunc(bs, func(a, b bucket) int { return cmp.Compare(a.le, b.le) })
	total := bs[len(bs)-1].n
	count0, _ := before.Value(name+"_count", nil)
	count1, _ := after.Value(name+"_count", nil)
	total = max(total, count1-count0)
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, nlo := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			return lo + (b.le-lo)*ratio(rank-nlo, b.n-nlo)
		}
		lo, nlo = b.le, b.n
	}
	return lo
}
