package serve

// The overload soak: the acceptance scenario for the serving layer.
// With queue capacity K and 4xK concurrent pressure, the server must
// shed the overflow with 429 + Retry-After, keep peak memory inside the
// global budget, return uncorrupted itemsets on every accepted request
// (verified against serial library runs), and drain on shutdown with
// every run ending in a result or a classified stop — never a crash.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	fim "repro"
	"repro/internal/sched"
)

// soakProblem is one distinct mining problem (its own flight key).
type soakProblem struct {
	query  string
	rel    float64
	algo   fim.Algorithm
	rep    fim.Representation
	serial *fim.Result
}

// soakProblems builds 4xK distinct chess problems across algorithms and
// representations and mines each serially for the ground truth.
func soakProblems(t *testing.T, db *fim.DB, n int) []soakProblem {
	t.Helper()
	algos := []fim.Algorithm{fim.Eclat, fim.Apriori, fim.FPGrowth}
	algoNames := []string{"eclat", "apriori", "fpgrowth"}
	reps := []fim.Representation{fim.Tidset, fim.Diffset, fim.Bitvector, fim.Tiled}
	repNames := []string{"tidset", "diffset", "bitvector", "tiled"}
	probs := make([]soakProblem, n)
	for i := range probs {
		// Distinct supports keep every problem's flight key unique even
		// when algorithm and representation repeat.
		rel := 0.62 + 0.002*float64(i)
		a, r := i%len(algos), (i/len(algos))%len(reps)
		probs[i] = soakProblem{
			query: fmt.Sprintf("dataset=chess&scale=0.2&support=%g&algo=%s&rep=%s&limit=0",
				rel, algoNames[a], repNames[r]),
			rel: rel, algo: algos[a], rep: reps[r],
		}
		serial, err := fim.Mine(db, rel, fim.Options{Algorithm: algos[a], Representation: reps[r]})
		if err != nil {
			t.Fatalf("serial ground truth %d: %v", i, err)
		}
		probs[i].serial = serial
	}
	return probs
}

func TestOverloadSoak(t *testing.T) {
	const K = 4 // queue capacity
	gate := make(chan struct{})
	gateSentinelRuns(t, gate)
	s, ts := newTestServer(t, Config{
		Workers:      2,
		QueueDepth:   K,
		PerTenant:    64,
		MineWorkers:  2,
		GlobalMemory: 1 << 30,
		CacheBytes:   -1, // every request exercises admission, not the cache
		DrainGrace:   50 * time.Millisecond,
	})

	db, err := fim.Dataset("chess", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	probs := soakProblems(t, db, 4*K)

	// Phase 1 — plug the workers: two sentinel runs occupy both running
	// slots, blocked at their first chunk boundary until the gate opens.
	var plugged sync.WaitGroup
	for i := 0; i < 2; i++ {
		plugged.Add(1)
		go func(i int) {
			defer plugged.Done()
			resp, mr := postMine(t, ts,
				fmt.Sprintf("abssup=%d&max-itemsets=%d", 2+i, sentinelItemsets),
				uploadFIMI, map[string]string{"X-Tenant": "plug"})
			if resp.StatusCode != http.StatusOK || mr.Incomplete {
				t.Errorf("plug run %d: status %d, %+v", i, resp.StatusCode, mr)
			}
		}(i)
	}
	waitFor(t, "both workers to be plugged", func() bool { return s.adm.runningLen() == 2 })

	// Phase 2 — 4xK distinct problems flood a full server: exactly K fit
	// in the queue, the other 3K are shed with 429 + Retry-After.
	type answer struct {
		prob   int
		status int
		retry  string
		body   mineResponse
	}
	answers := make([]answer, len(probs))
	var flood sync.WaitGroup
	for i, p := range probs {
		flood.Add(1)
		go func(i int, p soakProblem) {
			defer flood.Done()
			resp, mr := postMine(t, ts, p.query, "", map[string]string{"X-Tenant": fmt.Sprintf("t%d", i%4)})
			answers[i] = answer{prob: i, status: resp.StatusCode, retry: resp.Header.Get("Retry-After"), body: mr}
		}(i, p)
	}
	// The flood settles: K requests queued, 3K shed and already answered.
	waitFor(t, "the queue to fill", func() bool { return s.adm.queueLen() == K })
	waitFor(t, "the overflow to shed", func() bool { return s.stats().Shed == int64(3*K) })

	// Phase 3 — open the gate: plugs finish, queued runs execute.
	close(gate)
	flood.Wait()
	plugged.Wait()

	var shed, served int
	for _, a := range answers {
		switch a.status {
		case http.StatusTooManyRequests:
			shed++
			if a.retry == "" {
				t.Errorf("problem %d shed without Retry-After", a.prob)
			}
			if a.body.StopReason != "shed" {
				t.Errorf("problem %d shed with stop_reason %q", a.prob, a.body.StopReason)
			}
		case http.StatusOK:
			served++
			p := probs[a.prob]
			if a.body.Incomplete {
				t.Errorf("problem %d incomplete under no budget pressure: %+v", a.prob, a.body)
				continue
			}
			// No cross-request corruption: the concurrent run's itemsets
			// match the serial ground truth exactly.
			if a.body.Itemsets != p.serial.Len() {
				t.Errorf("problem %d: served %d itemsets, serial found %d", a.prob, a.body.Itemsets, p.serial.Len())
				continue
			}
			want := p.serial.Decoded()
			for j, set := range a.body.Sets {
				if set.Support != want[j].Support {
					t.Errorf("problem %d set %d: support %d, want %d", a.prob, j, set.Support, want[j].Support)
					break
				}
				for k, it := range set.Items {
					if it != uint32(want[j].Items[k]) {
						t.Errorf("problem %d set %d: item %d is %d, want %d", a.prob, j, k, it, want[j].Items[k])
						break
					}
				}
			}
		default:
			t.Errorf("problem %d: unexpected status %d (%+v)", a.prob, a.status, a.body)
		}
	}
	if shed != 3*K || served != K {
		t.Fatalf("flood outcome: %d shed, %d served; want %d and %d", shed, served, 3*K, K)
	}

	// A budget-stopped run under the same load answers 200 + partial.
	resp, mr := postMine(t, ts, "dataset=chess&scale=0.2&support=0.55&max-itemsets=20", "", nil)
	if resp.StatusCode != http.StatusOK || !mr.Incomplete || mr.StopReason != "budget:itemsets" {
		t.Fatalf("budget-stopped run: status %d, %+v", resp.StatusCode, mr)
	}

	// A client that gives up mid-run: the server classifies the stop and
	// stays healthy. (The response never arrives; the registry records it.)
	sched.SetFaultHook(func(fc sched.FaultContext) {
		if fc.Control.Budget().MaxItemsets == sentinelItemsets {
			time.Sleep(2 * time.Millisecond)
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	req, _ := http.NewRequestWithContext(ctx, "POST",
		ts.URL+fmt.Sprintf("/mine?dataset=chess&scale=0.2&support=0.5&max-itemsets=%d", sentinelItemsets),
		strings.NewReader(""))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	cancel()
	sched.SetFaultHook(nil)
	waitFor(t, "the abandoned run to unwind", func() bool { return s.adm.runningLen() == 0 })

	// Memory: the shared pool stayed within the global budget and ended
	// fully refunded.
	if peak := s.pool.Peak(); peak <= 0 || peak > s.pool.Cap() {
		t.Fatalf("pool peak %d outside (0, %d]", peak, s.pool.Cap())
	}
	waitFor(t, "the pool to refund to zero", func() bool { return s.pool.Used() == 0 })

	// Shutdown: drain completes, and every run the server ever touched
	// is terminal — a result or a classified stop, never a limbo state.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rep := s.ShutdownReport()
	if len(rep.Live) != 0 {
		t.Fatalf("%d runs still live after drain: %+v", len(rep.Live), rep.Live)
	}
	for _, r := range rep.Recent {
		switch {
		case r.HTTPStatus == 200 && r.StopReason == "":
		case r.HTTPStatus == 200 && r.Incomplete && r.StopReason != "":
		case r.HTTPStatus == http.StatusTooManyRequests && (r.StopReason == "shed" || r.StopReason == "quota"):
		case r.HTTPStatus == http.StatusServiceUnavailable && r.StopReason == "canceled":
		default:
			t.Errorf("run %d not terminally classified: %+v", r.ID, r)
		}
	}
	if rep.Stats.Shed != int64(3*K) {
		t.Fatalf("report shed = %d, want %d", rep.Stats.Shed, 3*K)
	}
}
