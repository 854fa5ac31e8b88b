package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The reference task gauges how fast the host runs at a given moment. On
// a shared host the speed a run gets drifts by tens of percent from one
// minute to the next and moves every latency with it. The task is fixed
// work outside the service — map lookups under string keys and a sort of
// a copied slice — that allocates nothing and never blocks, so neither
// the service's goroutines nor its garbage collector run inside it; it
// runs twice back to back and only the second, cache-warm pass is timed.
// Latencies and set-up times are reported at the host speed at which this
// pass takes refScaleUs (see report.addLatency and scenario.run).

// refEvery is how many rounds run between two reference tasks.
const refEvery = 20

// refScaleUs is the reference pass time latencies are scaled to, in µs:
// about its median on an idle two-core x86-64 host.
const refScaleUs = 250.0

type refTask struct {
	keys []string
	m    map[string]int
	src  []float64
	buf  []float64
	sink int
}

func newRefTask() *refTask {
	t := &refTask{m: map[string]int{}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		k := "obj-" + strconv.Itoa(i)
		t.keys = append(t.keys, k)
		t.m[k] = i
	}
	t.src = make([]float64, 2000)
	for i := range t.src {
		t.src[i] = rng.Float64()
	}
	t.buf = make([]float64, len(t.src))
	return t
}

func (t *refTask) pass() {
	sum := 0
	for r := 0; r < 4; r++ {
		for _, k := range t.keys {
			sum += t.m[k]
		}
	}
	copy(t.buf, t.src)
	sort.Float64s(t.buf)
	t.sink += sum
}

// measure runs the task twice and times the second pass.
func (t *refTask) measure() time.Duration {
	t.pass()
	t0 := time.Now()
	t.pass()
	return time.Since(t0)
}

// probe returns the median of n measured passes, in µs.
func (t *refTask) probe(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(t.measure()) / 1e3
	}
	return median(xs)
}
