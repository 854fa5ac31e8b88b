package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	lsmetrics "locsvc/internal/metrics"
)

// Operation classes. Each end-to-end latency metric reads one of them.
const (
	clsUpdate    = "update"
	clsHandover  = "handover"
	clsPosLocal  = "posq_local"
	clsPosRemote = "posq_remote"
	clsRange     = "range"
	clsNN        = "nn"
	clsRegister  = "register"
)

// recorder keeps the full latency sample of every class (no reservoir),
// each with the time it completed, and counts attempts and failures per
// class.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]float64 // microseconds
	// at holds each sample's completion time in seconds since t0, the
	// start of the timed window; span is the window's length once closed.
	at       map[string][]float64
	t0       time.Time
	span     float64
	attempts map[string]int64
	failures map[string]int64
	wrong    int64 // failures the oracle rejected (as opposed to errors)
	// firstWrong is the first oracle rejection, printed with the table.
	firstWrong string
	firstErr   map[string]string
	// ref and refAt are the reference task's pass times (µs) and when
	// each ended, in seconds since t0.
	ref, refAt []float64
}

func newRecorder() *recorder {
	return &recorder{
		samples:  map[string][]float64{},
		at:       map[string][]float64{},
		attempts: map[string]int64{},
		failures: map[string]int64{},
		firstErr: map[string]string{},
	}
}

// ok records a successful operation of class c that took d.
func (r *recorder) ok(c string, d time.Duration) {
	r.mu.Lock()
	r.attempts[c]++
	r.samples[c] = append(r.samples[c], float64(d)/1e3)
	r.at[c] = append(r.at[c], time.Since(r.t0).Seconds())
	r.mu.Unlock()
}

// openWindow and closeWindow delimit the timed window.
func (r *recorder) openWindow(t0 time.Time) {
	r.mu.Lock()
	r.t0 = t0
	r.mu.Unlock()
}

func (r *recorder) closeWindow() {
	r.mu.Lock()
	r.span = time.Since(r.t0).Seconds()
	r.mu.Unlock()
}

// okRef records one timed pass of the reference task (calib.go).
func (r *recorder) okRef(d time.Duration) {
	r.mu.Lock()
	r.ref = append(r.ref, float64(d)/1e3)
	r.refAt = append(r.refAt, time.Since(r.t0).Seconds())
	r.mu.Unlock()
}

// subWindows is how many equal parts of the timed window a latency
// quantile is read from.
const subWindows = 10

// split sorts samples xs, completed at the times at, into the parts of
// the timed window. The caller holds r.mu.
func (r *recorder) split(xs, at []float64, into [][]float64) {
	for i, x := range xs {
		k := int(at[i] / r.span * subWindows)
		if k >= 0 && k < subWindows {
			into[k] = append(into[k], x)
		}
	}
}

// parts returns, for every part of the timed window that holds at least
// minPartSamples samples of class c and five reference passes, the
// class's p50 and the part's median reference pass time.
func (r *recorder) parts(c string) (p50s, refs []float64) {
	ps := make([][]float64, subWindows)
	rs := make([][]float64, subWindows)
	r.mu.Lock()
	if r.span > 0 {
		r.split(r.samples[c], r.at[c], ps)
		r.split(r.ref, r.refAt, rs)
	}
	r.mu.Unlock()
	for k, p := range ps {
		if len(p) < minPartSamples || len(rs[k]) < 5 {
			continue
		}
		p50s = append(p50s, median(p))
		refs = append(refs, median(rs[k]))
	}
	return p50s, refs
}

// minPartSamples is the fewest samples a part's p50 is read from.
const minPartSamples = 40

// fail records a failed operation: an error, a timeout or (wrong=true) an
// answer the oracle rejected. A failure has no latency sample — it misses
// every latency limit.
func (r *recorder) fail(c string, wrong bool, why string) {
	r.mu.Lock()
	r.attempts[c]++
	r.failures[c]++
	if wrong {
		if r.wrong == 0 {
			r.firstWrong = c + ": " + why
		}
		r.wrong++
	}
	if _, seen := r.firstErr[c]; !seen {
		r.firstErr[c] = why
	}
	r.mu.Unlock()
}

func (r *recorder) classNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.attempts)
}

// classStats summarises one class.
type classStats struct {
	n                  int
	attempts, failures int64
	mean, p50, p99     float64
	// p99ok reports that at least ten samples lie beyond the p99;
	// tailQ is the quantile p99 actually holds.
	p99ok bool
	tailQ float64
}

func (r *recorder) stats(classes ...string) classStats {
	r.mu.Lock()
	var xs []float64
	var st classStats
	for _, c := range classes {
		xs = append(xs, r.samples[c]...)
		st.attempts += r.attempts[c]
		st.failures += r.failures[c]
	}
	st.n = len(xs)
	r.mu.Unlock()
	if len(xs) == 0 {
		return st
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	st.mean = sum / float64(len(xs))
	st.p50 = quantile(xs, 0.50)
	// The tail is the p99 when at least ten samples lie beyond it, else
	// the highest percentile that has ten samples beyond it.
	st.p99ok = float64(len(xs))*0.01 >= 10
	st.tailQ = 0.99
	if !st.p99ok {
		st.tailQ = math.Max(0.5, 1-10/float64(len(xs)))
	}
	st.p99 = quantile(xs, st.tailQ)
	return st
}

// totals over every class, registrations included.
func (r *recorder) totals() (attempts, failures int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for c, a := range r.attempts {
		attempts += a
		failures += r.failures[c]
	}
	return attempts, failures
}

// quantile reads the q-quantile of sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// namedValue is one output metric.
type namedValue struct {
	name  string
	value float64
	unit  string
	// base names the denominator of a ratio, or the sample count of a
	// timing, for the detailed report.
	base string
}

func (n namedValue) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"name":%q,"value":%s,"unit":%q,"base":%q}`,
		n.name, strconv.FormatFloat(n.value, 'g', -1, 64), n.unit, n.base)), nil
}

// report is what a workload hands back to main.
type report struct {
	rec   *recorder
	e2e   []namedValue
	layer []namedValue
	spans []span
	notes []string
}

func (r *report) add(name string, v float64, unit, base string) {
	r.e2e = append(r.e2e, namedValue{name, finite(v), unit, base})
}

func (r *report) addLayer(name string, v float64, unit, base string) {
	r.layer = append(r.layer, namedValue{name, finite(v), unit, base})
}

// finite maps the NaN or infinity of an empty ratio to 0, which JSON can
// carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (r *report) metrics(trace bool) []namedValue {
	if trace {
		return r.layer
	}
	return r.e2e
}

// maxWrongShare is the share of judged answers the oracle may reject
// before a run is reported incorrect. Every rejection is a failure either
// way; the share lets a run that met a rare defect (a nearest neighbour
// missed around a handover, about one answer in 10^5-10^6) still stand,
// while a systematic error fails it.
const maxWrongShare = 1e-4

// judgedClasses are the classes whose answers the oracle judges; the
// wrong-answer share is taken over their attempts.
var judgedClasses = []string{clsPosLocal, clsPosRemote, clsRange, clsNN}

func (r *report) correct() bool {
	rec := r.rec
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var judged int64
	for _, c := range judgedClasses {
		judged += rec.attempts[c]
	}
	return float64(rec.wrong) <= maxWrongShare*float64(judged)
}

func (r *report) attempted() int64 {
	a, _ := r.rec.totals()
	return max(a, 1)
}

func (r *report) failed() int64 {
	_, f := r.rec.totals()
	return f
}

// print writes the human-readable table: every class with its sample
// count and failure share, then every metric with its unit and base.
func (r *report) print(w io.Writer) {
	rec := r.rec
	fmt.Fprintf(w, "%-16s %9s %9s %9s %12s %12s %12s\n", "class", "samples", "attempts", "failed", "mean_us", "p50_us", "p99_us")
	for _, c := range rec.classNames() {
		st := rec.stats(c)
		p99 := fmt.Sprintf("%.1f", st.p99)
		if !st.p99ok {
			p99 = fmt.Sprintf("q%.3f:%.1f", st.tailQ, st.p99)
		}
		fmt.Fprintf(w, "%-16s %9d %9d %9d %12.1f %12.1f %12s\n", c, st.n, st.attempts, st.failures, st.mean, st.p50, p99)
		if why := rec.firstErr[c]; why != "" {
			fmt.Fprintf(w, "  first failure: %s\n", why)
		}
	}
	for _, set := range [][]namedValue{r.e2e, r.layer} {
		for _, m := range set {
			fmt.Fprintf(w, "%-44s %16.4f %-6s %s\n", m.name, m.value, m.unit, m.base)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	if rec.firstWrong != "" {
		fmt.Fprintf(w, "wrong answers: %d, first: %s\n", rec.wrong, rec.firstWrong)
	}
}

// addLatency reports class c's p50 at the reference host speed: in each
// part of the timed window the p50 is divided by the part's median
// reference pass time and multiplied by refScaleUs, and the median over
// the parts is reported. Dividing by the reference takes out the host's
// drifting speed; the median over parts takes out a burst (a GC cycle, a
// stall of the host) that moves one part. The base gives the p50 as
// measured (median over parts) and the reference time beside it.
func (r *report) addLatency(name, c string) {
	st := r.rec.stats(c)
	p50s, refs := r.rec.parts(c)
	if len(p50s) == 0 {
		// A window too short for parts: the pooled sample and every pass.
		r.rec.mu.Lock()
		p50s, refs = []float64{st.p50}, []float64{median(r.rec.ref)}
		r.rec.mu.Unlock()
	}
	scaled := make([]float64, len(p50s))
	for i := range p50s {
		scaled[i] = p50s[i] / refs[i] * refScaleUs
	}
	r.add(name, median(scaled), "us", fmt.Sprintf("n=%d attempts=%d failed=%d parts=%d raw=%g ref=%g",
		st.n, st.attempts, st.failures, len(p50s), median(p50s), median(refs)))
}

// ---------------------------------------------------------------------------
// Process-level counters: getrusage and runtime/metrics.

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// goSample is a snapshot of the runtime counters the go.* layer reads.
type goSample struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
	heapLive           float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSample{val(0), val(1), val(2), val(3), val(4)}
}

// ---------------------------------------------------------------------------
// Registry snapshots. The metrics registry exposes its series only as a
// rendered snapshot; counters and gauges are parsed back out of it.

type counterSet map[string]float64

func readRegistry(r *lsmetrics.Registry) counterSet {
	out := counterSet{}
	sc := bufio.NewScanner(strings.NewReader(r.Snapshot()))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// sum adds b into a.
func (a counterSet) sum(b counterSet) {
	for k, v := range b {
		a[k] += v
	}
}

// diff returns after - before per name.
func diffCounters(after, before counterSet) counterSet {
	out := counterSet{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
