package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// Registration parameters shared by every workload.
const (
	desAcc = 10.0
	minAcc = 100.0
	// maxSpeed is tiny so an accuracy never ages past queryAcc within a run:
	// every recorded object qualifies for every query.
	maxSpeed = 0.01
)

// registerAll registers every object of w: goroutine g registers objects
// g, g+n, g+2n, ... through clients[regClients[g]].
func registerAll(ctx context.Context, rec *recorder, w *world, clients []*client.Client, regClients []int) error {
	var wg sync.WaitGroup
	n := len(regClients)
	errs := make([]error, n)
	for g := range regClients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := clients[regClients[g]]
			for i := g; i < len(w.objs); i += n {
				o := w.objs[i]
				o.mu.Lock()
				p := o.acked
				o.mu.Unlock()
				t0 := time.Now()
				h, err := cl.Register(ctx, core.Sighting{OID: o.id, T: t0, Pos: p, SensAcc: sensAcc}, desAcc, minAcc, maxSpeed)
				if err != nil {
					rec.fail(clsRegister, false, err.Error())
					errs[g] = fmt.Errorf("registering %s: %w", o.id, err)
					return
				}
				rec.ok(clsRegister, time.Since(t0))
				o.h = h
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Operation planning. A planner draws the rounds of one client; the same
// rounds run in the timed window and in the traced run.

type opKind int

const (
	opUpdate opKind = iota
	opHandover
	opPosLocal
	opPosRemote
	opRange
	opNN
	numOpKinds
)

var opClass = [numOpKinds]string{clsUpdate, clsHandover, clsPosLocal, clsPosRemote, clsRange, clsNN}

type plannedOp struct {
	kind opKind
	o    *object
	p    geo.Point
	r    geo.Rect
}

// layout knows the leaves' cells so plans can aim at one.
type layout struct {
	area  geo.Rect
	cells []geo.Rect // leaf service areas, in hierarchy order
}

func newLayout(area geo.Rect, rows, cols int) layout {
	return layout{area: area, cells: area.SplitGrid(rows, cols)}
}

func (l layout) cellOf(p geo.Point) int {
	for i, c := range l.cells {
		if c.Contains(p) {
			return i
		}
	}
	for i, c := range l.cells {
		if c.ContainsClosed(p) {
			return i
		}
	}
	return 0
}

// uniformIn draws a point in r, away from its edges by margin.
func uniformIn(rng *rand.Rand, r geo.Rect, margin float64) geo.Point {
	return geo.Pt(r.Min.X+margin+rng.Float64()*(r.Width()-2*margin), r.Min.Y+margin+rng.Float64()*(r.Height()-2*margin))
}

// rangeRect draws one 50 m query square of the four shapes in turn:
// inside the entry leaf, inside another leaf, straddling two leaves, and
// on the point where all four meet.
func (l layout) rangeRect(rng *rand.Rand, entry int, shape int) geo.Rect {
	const side = 50.0
	var c geo.Point
	switch shape % 4 {
	case 0:
		c = uniformIn(rng, l.cells[entry], side)
	case 1:
		other := (entry + 1 + rng.Intn(len(l.cells)-1)) % len(l.cells)
		c = uniformIn(rng, l.cells[other], side)
	case 2:
		cell := l.cells[entry]
		mid := l.area.Center()
		y := cell.Min.Y + side + rng.Float64()*(cell.Height()-2*side)
		c = geo.Pt(mid.X, y)
	default:
		mid := l.area.Center()
		c = geo.Pt(mid.X+rng.Float64()*10-5, mid.Y+rng.Float64()*10-5)
	}
	return geo.R(c.X-side/2, c.Y-side/2, c.X+side/2, c.Y+side/2)
}

// roundKinds is the order of one round: one operation of every class. The
// paper times each operation class on its own; a round measures every
// class once, so all classes see the same state of the service and the
// host, and no traffic mix has to be assumed.
var roundKinds = [numOpKinds]opKind{opUpdate, opHandover, opPosLocal, opPosRemote, opRange, opNN}

// planner generates the rounds of one client.
type planner struct {
	rng   *rand.Rand
	w     *world
	lay   layout
	entry int       // index of the entry leaf's cell
	mine  []*object // objects this client updates, in round-robin order
	next  int
	shape int
}

// round draws the next round's operations.
func (pl *planner) round() [numOpKinds]plannedOp {
	var out [numOpKinds]plannedOp
	for i, k := range roundKinds {
		out[i] = pl.plan(k)
	}
	return out
}

// plan draws one operation of kind k. Updates stay in the object's leaf
// cell, handovers move it to another; NN queries are uniform over the
// area.
func (pl *planner) plan(k opKind) plannedOp {
	switch k {
	case opUpdate, opHandover:
		o := pl.mine[pl.next%len(pl.mine)]
		pl.next++
		o.mu.Lock()
		cell := pl.lay.cellOf(o.acked)
		o.mu.Unlock()
		if k == opHandover {
			cell = (cell + 1 + pl.rng.Intn(len(pl.lay.cells)-1)) % len(pl.lay.cells)
		}
		return plannedOp{kind: k, o: o, p: uniformIn(pl.rng, pl.lay.cells[cell], 1)}
	case opPosLocal, opPosRemote:
		o, local := pl.pickLeafObject(k == opPosLocal)
		if local {
			return plannedOp{kind: opPosLocal, o: o}
		}
		return plannedOp{kind: opPosRemote, o: o}
	case opRange:
		pl.shape++
		return plannedOp{kind: k, r: pl.lay.rangeRect(pl.rng, pl.entry, pl.shape)}
	default:
		return plannedOp{kind: opNN, p: uniformIn(pl.rng, pl.lay.area, 0)}
	}
}

// pickLeafObject draws an object whose acknowledged position is in (local)
// or outside the entry leaf's cell, trying a bounded number of times; it
// reports where the object it returns actually is.
func (pl *planner) pickLeafObject(local bool) (o *object, in bool) {
	for try := 0; try < 64; try++ {
		o = pl.w.objs[pl.rng.Intn(len(pl.w.objs))]
		o.mu.Lock()
		in = pl.lay.cellOf(o.acked) == pl.entry
		o.mu.Unlock()
		if in == local {
			break
		}
	}
	return o, in
}

// exec runs one planned operation synchronously through cl.
func exec(rec *recorder, w *world, cl *client.Client, op plannedOp) {
	switch op.kind {
	case opUpdate, opHandover:
		doUpdate(rec, w, op.o, op.p)
	case opPosLocal:
		doPosQuery(rec, w, cl, op.o, clsPosLocal)
	case opPosRemote:
		doPosQuery(rec, w, cl, op.o, clsPosRemote)
	case opRange:
		doRange(rec, w, cl, op.r)
	case opNN:
		doNN(rec, w, cl, op.p)
	}
}

// shuffled returns the objects in a seeded random order.
func shuffled(rng *rand.Rand, objs []*object) []*object {
	out := append([]*object(nil), objs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ---------------------------------------------------------------------------
// Timed windows.

// window snapshots the process counters around a timed interval.
type window struct {
	t0   time.Time
	cpu0 time.Duration
	go0  goSample
	c0   counterSet
}

func openWindow(c *cluster) window {
	return window{t0: time.Now(), cpu0: cpuTime(), go0: readGo(), c0: c.counters()}
}

type windowDelta struct {
	secs     float64
	cpu      time.Duration
	allocs   float64
	bytes    float64
	gcFrac   float64
	heapLive float64
	counters counterSet
}

func (w window) close(c *cluster) windowDelta {
	secs := time.Since(w.t0).Seconds()
	cpu := cpuTime() - w.cpu0
	g := readGo()
	return windowDelta{
		secs:     secs,
		cpu:      cpu,
		allocs:   g.allocs - w.go0.allocs,
		bytes:    g.allocBytes - w.go0.allocBytes,
		gcFrac:   ratio(g.gcCPU-w.go0.gcCPU, g.totalCPU-w.go0.totalCPU),
		heapLive: g.heapLive,
		counters: diffCounters(c.counters(), w.c0),
	}
}

// completedOps counts the successful client operations in rec.
func completedOps(rec *recorder) int {
	n := 0
	for _, c := range opClass {
		n += rec.stats(c).n
	}
	return n
}

func fmtSecs(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("runs=%d %v", len(s), s)
}
