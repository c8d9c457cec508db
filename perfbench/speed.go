package main

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Host-speed normalization.
//
// The benchmark runs on shared virtual machines whose speed drifts by
// tens of percent over minutes, with or without stolen CPU time, while
// the program under test stays the same. Each run therefore also times
// a fixed probe task after every pass, and reports its timings scaled
// by probeRefMS over the probe's median time in the run: "at reference
// host speed". The probe is the benchmark's own code, so a change to
// the program cannot move it.

// probeRefMS is the probe's typical time on the reference host, a 2-vCPU
// VM, in a library workload's run. (In serve-mixed the server's own
// background goroutines slow the probe, so its figures read faster than
// raw ones.)
const probeRefMS = 28.0

// probeText is the probe's fixed input: FIMI-like text of sorted rows.
var probeText = func() []byte {
	r := rand.New(rand.NewSource(1))
	var b bytes.Buffer
	for i := 0; i < 6000; i++ {
		it := 0
		for j := 0; j < 30; j++ {
			it += 1 + r.Intn(40)
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(it))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}()

// speedProbe times the probe task on nproc goroutines at once: each
// parses probeText into rows, then intersects neighbouring rows by
// merging, the two kinds of work the workloads do most.
func speedProbe(nproc int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sink := make([]int, nproc)
	for g := 0; g < nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rows [][]uint32
			for _, line := range bytes.Split(probeText, []byte("\n")) {
				var row []uint32
				for _, f := range bytes.Fields(line) {
					v, _ := strconv.ParseUint(string(f), 10, 32) // probeText is well formed
					row = append(row, uint32(v))
				}
				rows = append(rows, row)
			}
			n := 0
			for rep := 0; rep < 8; rep++ {
				for i := 1; i < len(rows); i++ {
					a, b := rows[i-1], rows[i]
					for x, y := 0, 0; x < len(a) && y < len(b); {
						switch {
						case a[x] < b[y]:
							x++
						case a[x] > b[y]:
							y++
						default:
							n++
							x++
							y++
						}
					}
				}
			}
			sink[g] = n
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}
