// Command perfbench is the repository benchmark: it deploys the location
// service hierarchy in-process, drives one named workload generated from a
// seed, checks every answer against an oracle and prints the end-to-end
// metrics (or, with -trace 1, the per-layer breakdown) as one JSON line.
//
//	go build -o perfbench . && ./perfbench --workload paper-mix --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-mix (the paper's testbed, in memory) and lsd-udp (the
// production transport over loopback UDP), each driven in serial rounds
// of every operation class. run.sh builds the binary inside the checkout
// and runs it; BENCHMARK.json names the metrics and METRICS.md describes
// them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// procs is the benchmark's GOMAXPROCS unless the environment sets one.
// Load is serial, so one processor runs the servers, the client and the
// oracle in turn without cross-thread wake-ups, whose cost depends on how
// busy the host is.
const procs = 1

// resultsDir receives the detailed JSON report and the span dump.
const resultsDir = ".bench_build/results"

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

type workloadFunc func(rc runConfig) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-mix": runPaperMix,
	"lsd-udp":   runLSDUDP,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-mix or lsd-udp")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "seconds the timed window lasts")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	)
	flag.Parse()
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(procs)
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("bad -seconds or -trace"))
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(rc)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.save(resultsDir, *name, rc); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving detailed report:", err)
	}
	res := result{
		Correct:   rep.correct(),
		Attempted: rep.attempted(),
		Failed:    rep.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range rep.metrics(rc.trace) {
		res.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// save writes the full report (every class with its sample count and
// failure share, every per-layer value with its base) for later reading.
func (r *report) save(dir, name string, rc runConfig) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if rc.trace {
		mode = "trace"
	}
	type classOut struct {
		Class    string  `json:"class"`
		Samples  int     `json:"samples"`
		Attempts int64   `json:"attempts"`
		Failures int64   `json:"failures"`
		P50us    float64 `json:"p50_us"`
		P99us    float64 `json:"p99_us,omitempty"`
	}
	var classes []classOut
	for _, c := range r.rec.classNames() {
		st := r.rec.stats(c)
		classes = append(classes, classOut{c, st.n, st.attempts, st.failures, st.p50, st.p99})
	}
	out := struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Seconds  float64      `json:"seconds"`
		Mode     string       `json:"mode"`
		When     string       `json:"when"`
		Classes  []classOut   `json:"classes"`
		Metrics  []namedValue `json:"metrics"`
		Notes    []string     `json:"notes,omitempty"`
	}{name, rc.seed, rc.seconds, mode, time.Now().UTC().Format(time.RFC3339), classes, r.metrics(rc.trace), r.notes}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", name, mode, rc.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	if len(r.spans) > 0 {
		return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-spans-seed%d.jsonl", name, rc.seed)), r.spans)
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
