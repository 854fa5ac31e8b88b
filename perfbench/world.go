package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
)

// object is one tracked object as the benchmark knows it: the handle it
// updates through and the positions the service may legitimately answer
// with. At most one update per object is ever in flight.
type object struct {
	idx int
	id  core.OID
	h   *client.TrackedObject

	mu       sync.Mutex
	acked    geo.Point // last acknowledged position
	prev     geo.Point // position acked before it
	prevTill time.Time // when prev stopped being current
	pending  geo.Point
	inflight bool
}

// candidates lists the positions a query that started at qStart may
// legitimately return for the object.
func (o *object) candidates(qStart time.Time, buf []geo.Point) []geo.Point {
	o.mu.Lock()
	defer o.mu.Unlock()
	buf = append(buf[:0], o.acked)
	if o.inflight {
		buf = append(buf, o.pending)
	}
	if !o.prevTill.Before(qStart) {
		buf = append(buf, o.prev)
	}
	return buf
}

// begin marks an update to p in flight; it reports false if one already is.
func (o *object) begin(p geo.Point) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.inflight {
		return false
	}
	o.inflight, o.pending = true, p
	return true
}

// end resolves the in-flight update; ok means it was acknowledged.
func (w *world) end(o *object, ok bool) {
	o.mu.Lock()
	if ok {
		old := o.acked
		o.prev, o.prevTill, o.acked = old, time.Now(), o.pending
		o.inflight = false
		o.mu.Unlock()
		w.grid.move(o.idx, old, o.acked)
		return
	}
	// A failed update may or may not have been applied: keep the pending
	// position as an acceptable answer from now on.
	o.prev, o.prevTill = o.pending, farFuture
	o.inflight = false
	o.mu.Unlock()
}

var farFuture = time.Unix(1<<40, 0)

// world is the oracle's view of every object.
type world struct {
	objs []*object
	byID map[core.OID]*object
	grid *grid
}

func newWorld(area geo.Rect, positions []geo.Point, prefix string) *world {
	w := &world{byID: make(map[core.OID]*object, len(positions)), grid: newGrid(area, 50)}
	for i, p := range positions {
		o := &object{idx: i, id: core.OID(fmt.Sprintf("%s-%d", prefix, i)), acked: p, prev: p}
		w.objs = append(w.objs, o)
		w.byID[o.id] = o
		w.grid.insert(i, p)
	}
	return w
}

// ---------------------------------------------------------------------------
// A uniform grid over acknowledged positions, for range and NN checks.

type grid struct {
	mu         sync.Mutex
	area       geo.Rect
	cell       float64
	cols, rows int
	cells      [][]int32
}

func newGrid(area geo.Rect, cell float64) *grid {
	cols := int(math.Ceil(area.Width()/cell)) + 1
	rows := int(math.Ceil(area.Height()/cell)) + 1
	return &grid{area: area, cell: cell, cols: cols, rows: rows, cells: make([][]int32, cols*rows)}
}

func (g *grid) key(p geo.Point) int {
	cx := int((p.X - g.area.Min.X) / g.cell)
	cy := int((p.Y - g.area.Min.Y) / g.cell)
	cx = min(max(cx, 0), g.cols-1)
	cy = min(max(cy, 0), g.rows-1)
	return cy*g.cols + cx
}

func (g *grid) insert(i int, p geo.Point) {
	g.mu.Lock()
	k := g.key(p)
	g.cells[k] = append(g.cells[k], int32(i))
	g.mu.Unlock()
}

func (g *grid) move(i int, from, to geo.Point) {
	g.mu.Lock()
	defer g.mu.Unlock()
	kf, kt := g.key(from), g.key(to)
	if kf == kt {
		return
	}
	c := g.cells[kf]
	for j, v := range c {
		if v == int32(i) {
			c[j] = c[len(c)-1]
			g.cells[kf] = c[:len(c)-1]
			break
		}
	}
	g.cells[kt] = append(g.cells[kt], int32(i))
}

// within returns the indexes of objects whose acknowledged position lies in
// cells touching r.
func (g *grid) within(r geo.Rect, out []int32) []int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	k0, k1 := g.key(r.Min), g.key(r.Max)
	x0, y0 := k0%g.cols, k0/g.cols
	x1, y1 := k1%g.cols, k1/g.cols
	out = out[:0]
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			out = append(out, g.cells[y*g.cols+x]...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Oracle checks. Each returns nil when the answer is acceptable.

const posEps = 1e-6

func samePos(a, b geo.Point) bool {
	return math.Abs(a.X-b.X) <= posEps && math.Abs(a.Y-b.Y) <= posEps
}

func (w *world) checkPos(o *object, ld core.LocationDescriptor, qStart time.Time) error {
	var buf [3]geo.Point
	for _, c := range o.candidates(qStart, buf[:0]) {
		if samePos(c, ld.Pos) {
			return nil
		}
	}
	return fmt.Errorf("position query for %s answered %v, acknowledged %v", o.id, ld.Pos, o.candidates(qStart, nil))
}

// checkRange accepts an answer that holds every object whose possible
// positions all lie inside r, and nothing whose answered position is not
// one of its possible positions or whose accuracy circle misses r.
func (w *world) checkRange(r geo.Rect, got []core.Entry, qStart time.Time) error {
	seen := make(map[core.OID]bool, len(got))
	var buf [3]geo.Point
	for _, e := range got {
		o := w.byID[e.OID]
		if o == nil {
			return fmt.Errorf("range answer has %s, which was never registered", e.OID)
		}
		if seen[e.OID] {
			return errDuplicate{fmt.Errorf("range answer lists %s twice", e.OID)}
		}
		seen[e.OID] = true
		okPos := false
		for _, c := range o.candidates(qStart, buf[:0]) {
			if samePos(c, e.LD.Pos) {
				okPos = true
			}
		}
		if !okPos {
			return fmt.Errorf("range answer has %s at %v, not a position it held", e.OID, e.LD.Pos)
		}
		if rectDist(r, e.LD.Pos) > e.LD.Acc+posEps {
			return fmt.Errorf("range answer has %s at %v (acc %.1f), outside %v", e.OID, e.LD.Pos, e.LD.Acc, r)
		}
	}
	inner := geo.R(r.Min.X+posEps, r.Min.Y+posEps, r.Max.X-posEps, r.Max.Y-posEps)
	for _, i := range w.grid.within(r, nil) {
		o := w.objs[i]
		if seen[o.id] {
			continue
		}
		all := true
		for _, c := range o.candidates(qStart, buf[:0]) {
			if !inner.Contains(c) {
				all = false
			}
		}
		if all {
			return fmt.Errorf("range answer over %v misses %s at %v", r, o.id, o.candidates(qStart, nil))
		}
	}
	return nil
}

// checkNN accepts a nearest object answered at one of its possible
// positions when no object is certainly closer.
func (w *world) checkNN(p geo.Point, res client.NeighborResult, qStart time.Time) error {
	o := w.byID[res.Nearest.OID]
	if o == nil {
		return fmt.Errorf("NN answered %s, which was never registered", res.Nearest.OID)
	}
	var buf [3]geo.Point
	okPos := false
	for _, c := range o.candidates(qStart, buf[:0]) {
		if samePos(c, res.Nearest.LD.Pos) {
			okPos = true
		}
	}
	if !okPos {
		return fmt.Errorf("NN answered %s at %v, not a position it held", o.id, res.Nearest.LD.Pos)
	}
	d := p.Dist(res.Nearest.LD.Pos) - posEps
	if d <= 0 {
		return nil
	}
	box := geo.R(p.X-d, p.Y-d, p.X+d, p.Y+d)
	for _, i := range w.grid.within(box, nil) {
		q := w.objs[i]
		if q == o {
			continue
		}
		closer := true
		for _, c := range q.candidates(qStart, buf[:0]) {
			if p.Dist(c) >= d {
				closer = false
			}
		}
		if closer {
			return fmt.Errorf("NN at %v answered %s at %.2f m, but %s is at %.2f m", p, o.id, d, q.id, p.Dist(q.acked))
		}
	}
	return nil
}

func rectDist(r geo.Rect, p geo.Point) float64 {
	dx := math.Max(math.Max(r.Min.X-p.X, 0), p.X-r.Max.X)
	dy := math.Max(math.Max(r.Min.Y-p.Y, 0), p.Y-r.Max.Y)
	return math.Hypot(dx, dy)
}

// ---------------------------------------------------------------------------
// Timed operations shared by the workloads. Each times the call, checks
// the answer and records the outcome under its class.

func opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// doUpdate sends one synchronous update and classifies it as an in-leaf
// update or a handover by whether the reply rebinds the agent.
func doUpdate(rec *recorder, w *world, o *object, p geo.Point) {
	if !o.begin(p) {
		rec.fail(clsUpdate, true, fmt.Sprintf("%s: second update while one is in flight", o.id))
		return
	}
	ctx, cancel := opCtx()
	agent := o.h.Agent()
	t0 := time.Now()
	err := o.h.Update(ctx, core.Sighting{OID: o.id, T: t0, Pos: p, SensAcc: sensAcc})
	d := time.Since(t0)
	cancel()
	w.end(o, err == nil)
	class := clsUpdate
	if o.h.Agent() != agent {
		class = clsHandover
	}
	if err != nil {
		rec.fail(class, false, err.Error())
		return
	}
	rec.ok(class, d)
}

func doPosQuery(rec *recorder, w *world, cl *client.Client, o *object, class string) {
	ctx, cancel := opCtx()
	t0 := time.Now()
	ld, err := cl.PosQuery(ctx, o.id)
	d := time.Since(t0)
	cancel()
	if err != nil {
		rec.fail(class, false, err.Error())
		return
	}
	if err := w.checkPos(o, ld, t0); err != nil {
		rec.fail(class, true, err.Error())
		return
	}
	rec.ok(class, d)
}

// Query parameters: every recorded object qualifies (the accuracy bound
// is loose and any overlap counts), so the oracle needs no accuracy model.
const (
	sensAcc    = 5.0
	queryAcc   = 10.0
	anyOverlap = 1e-9
	nearQual   = 5.0
)

func doRange(rec *recorder, w *world, cl *client.Client, r geo.Rect) {
	ctx, cancel := opCtx()
	t0 := time.Now()
	got, err := cl.RangeQueryRect(ctx, r, queryAcc, anyOverlap)
	d := time.Since(t0)
	cancel()
	if err != nil {
		rec.fail(clsRange, false, err.Error())
		return
	}
	if err := w.checkRange(r, got, t0); err != nil {
		_, dup := err.(errDuplicate)
		rec.fail(clsRange, !dup, err.Error())
		return
	}
	rec.ok(clsRange, d)
}

func doNN(rec *recorder, w *world, cl *client.Client, p geo.Point) {
	ctx, cancel := opCtx()
	t0 := time.Now()
	res, err := cl.NeighborQuery(ctx, p, queryAcc, nearQual)
	d := time.Since(t0)
	cancel()
	if err != nil {
		rec.fail(clsNN, false, err.Error())
		return
	}
	if err := w.checkNN(p, res, t0); err != nil {
		rec.fail(clsNN, true, err.Error())
		return
	}
	rec.ok(clsNN, d)
}

// errDuplicate marks an answer that lists an object twice: a delivery
// anomaly counted as a failed operation, but not as lost or invented
// data.
type errDuplicate struct{ error }
