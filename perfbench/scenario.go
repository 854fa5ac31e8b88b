package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

type wrapFunc func(transport.Network) transport.Network

// scenario is one workload: its deployment and its inputs. run performs
// the whole measurement.
type scenario struct {
	name      string
	cfg       deployConfig
	positions []geo.Point
	// entries are the clients' entry points, one client each; rounds
	// alternate between the clients.
	entries []geo.Point
	// regClients maps each registration goroutine to a client index.
	regClients []int
}

const (
	setupRuns = 9
	// setupProbes is how many reference passes are timed on each side of
	// a set-up.
	setupProbes = 9
	// traceOps is the length of the serial traced sequence.
	traceOps = 3000
	warmup   = time.Second
)

// deployment is everything one set-up produces.
type deployment struct {
	c       *cluster
	w       *world
	clients []*client.Client
}

func (d *deployment) close() { d.c.close() }

// setup deploys the scenario (its network decorated by wrap when
// non-nil), attaches one client per entry point, registers every object
// and waits until the root holds every forwarding path. Registration runs
// one goroutine per entry of regClients, on that client; object i goes to
// goroutine i mod len(regClients).
func (sc *scenario) setup(wrap wrapFunc, rec *recorder) (*deployment, time.Duration, error) {
	t0 := time.Now()
	c, err := deploy(sc.cfg, wrap)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{c: c, w: newWorld(sc.cfg.area, sc.positions, sc.name)}
	for i, e := range sc.entries {
		cl, err := c.newClient(fmt.Sprintf("%s-client-%d", sc.name, i), e)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		d.clients = append(d.clients, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := registerAll(ctx, rec, d.w, d.clients, sc.regClients); err != nil {
		c.close()
		return nil, 0, err
	}
	if err := c.waitPaths(ctx, len(sc.positions)); err != nil {
		c.close()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// planners returns one planner per client. Client i enters at the leaf
// holding its entry point and updates objects i, i+n, i+2n, ... (n
// clients), so no two clients update the same object.
func (sc *scenario) planners(d *deployment, seed int64) []*planner {
	lay := newLayout(sc.cfg.area, sc.cfg.levels[0].Rows, sc.cfg.levels[0].Cols)
	out := make([]*planner, len(d.clients))
	for ci := range d.clients {
		rng := rngFor(seed, int64(ci))
		out[ci] = &planner{rng: rng, w: d.w, lay: lay, entry: lay.cellOf(sc.entries[ci]),
			mine: shuffled(rng, share(d.w.objs, ci, len(d.clients)))}
	}
	return out
}

// share returns objects k, k+n, k+2n, ...
func share(objs []*object, k, n int) []*object {
	var out []*object
	for i := k; i < len(objs); i += n {
		out = append(out, objs[i])
	}
	return out
}

// serialLoad runs rounds until the deadline, one operation at a time from
// one goroutine; round r runs on client r mod the number of clients.
// Every refEvery rounds it times the reference task.
func serialLoad(rec *recorder, d *deployment, pls []*planner, until time.Time) {
	ref := newRefTask()
	for r := 0; time.Now().Before(until); r++ {
		k := r % len(pls)
		for _, op := range pls[k].round() {
			exec(rec, d.w, d.clients[k], op)
		}
		if r%refEvery == 0 {
			rec.okRef(ref.measure())
		}
	}
}

func (sc *scenario) run(rc runConfig) (*report, error) {
	rep := &report{rec: newRecorder()}
	rec := rep.rec
	started := time.Now()

	// Set-up, several times: setup_s is the median, each set-up scaled to
	// the reference host speed by the reference task timed just before and
	// just after it.
	var d *deployment
	ref := newRefTask()
	var setupTimes, setupRefs, setupScaled []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		before := ref.probe(setupProbes)
		nd, took, err := sc.setup(nil, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		d = nd
		speed := (before + ref.probe(setupProbes)) / 2
		setupTimes = append(setupTimes, took.Seconds())
		setupRefs = append(setupRefs, speed)
		setupScaled = append(setupScaled, took.Seconds()/speed*refScaleUs)
	}

	pls := sc.planners(d, rc.seed)
	warm := newRecorder()
	serialLoad(warm, d, pls, time.Now().Add(warmup))
	rec.absorbFailures(warm)

	var diag0 []msg.DiagRes
	if rc.trace {
		var err error
		if diag0, err = d.c.diag(context.Background(), d.clients[0]); err != nil {
			d.close()
			return nil, err
		}
	}
	win := openWindow(d.c)
	rec.openWindow(win.t0)
	serialLoad(rec, d, pls, win.t0.Add(time.Duration(rc.seconds*float64(time.Second))))
	rec.closeWindow()
	wd := win.close(d.c)
	ops := float64(completedOps(rec))
	if rc.trace {
		diag1, err := d.c.diag(context.Background(), d.clients[0])
		if err != nil {
			d.close()
			return nil, err
		}
		sc.addLayers(rep, wd, ops, diag0, diag1)
		closing := time.Now()
		d.close()
		rep.notes = append(rep.notes, fmt.Sprintf("set-ups, warm-up and window took %v; closing took %v",
			closing.Sub(started).Round(time.Millisecond), time.Since(closing).Round(time.Millisecond)))
		if err := sc.tracedRun(rc, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	d.close()

	rep.add("setup_s", median(setupScaled), "s", fmt.Sprintf("%s raw=%g ref=%g",
		fmtSecs(setupTimes), median(setupTimes), median(setupRefs)))
	for _, m := range latencyMetrics {
		rep.addLatency(m.name, m.class)
	}
	return rep, nil
}

// latencyMetrics are the end-to-end latencies: the median of each class.
// The p99s are printed with the classes and kept in the detailed report
// but not reported: a p99 moves with the host's stalls, which the
// reference task does not take out.
var latencyMetrics = []struct{ name, class string }{
	{"update_p50_us", clsUpdate},
	{"handover_p50_us", clsHandover},
	{"posq_local_p50_us", clsPosLocal},
	{"posq_remote_p50_us", clsPosRemote},
	{"range_p50_us", clsRange},
	{"nn_p50_us", clsNN},
}

// absorbFailures adds another recorder's failures (attempts included) to r.
func (r *recorder) absorbFailures(o *recorder) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for c, f := range o.failures {
		if f == 0 {
			continue
		}
		r.attempts[c] += f
		r.failures[c] += f
		if _, seen := r.firstErr[c]; !seen {
			r.firstErr[c] = "warm-up: " + o.firstErr[c]
		}
	}
	if r.wrong == 0 && o.wrong > 0 {
		r.firstWrong = o.firstWrong
	}
	r.wrong += o.wrong
}

// serialPlan draws the traced run's operation sequence: n operations of
// whole rounds, round r from planner r mod len(pls).
func serialPlan(pls []*planner, n int) []plannedOp {
	out := make([]plannedOp, 0, n+int(numOpKinds))
	for r := 0; len(out) < n; r++ {
		ops := pls[r%len(pls)].round()
		out = append(out, ops[:]...)
	}
	return out
}

// rngFor derives a workload-local generator.
func rngFor(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}
