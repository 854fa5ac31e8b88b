package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// TestDistributedRangeQueryMatchesOracle registers objects at random
// positions across a deep hierarchy and checks, for random query areas and
// parameters, that the distributed range query returns exactly the set a
// brute-force evaluation of the Section 3.2 predicate over all known
// objects produces. This is the core correctness property of Algorithm 6-5:
// tree routing, fan-out, enlargement and coverage accounting must never
// lose or duplicate a qualifying object.
func TestDistributedRangeQueryMatchesOracle(t *testing.T) {
	spec := hierarchy.Spec{
		RootArea: geo.R(0, 0, 1600, 1600),
		Levels:   []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}},
	}
	ls := newTestLS(t, spec, server.Options{AchievableAcc: 20})
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})

	rng := rand.New(rand.NewSource(77))
	type known struct {
		oid core.OID
		ld  core.LocationDescriptor
	}
	var objects []known
	const n = 300
	for i := 0; i < n; i++ {
		p := geo.Pt(rng.Float64()*1600, rng.Float64()*1600)
		oid := core.OID(fmt.Sprintf("o%d", i))
		obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), 20, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		objects = append(objects, known{oid: oid, ld: core.LocationDescriptor{Pos: p, Acc: obj.OfferedAcc()}})
	}
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	querier := ls.newClientAt(t, "querier", geo.Pt(1500, 1500), client.Options{})
	for trial := 0; trial < 40; trial++ {
		size := 50 + rng.Float64()*600
		x := rng.Float64() * (1600 - size)
		y := rng.Float64() * (1600 - size)
		area := core.AreaFromRect(geo.R(x, y, x+size, y+size))
		reqAcc := 20 + rng.Float64()*30
		reqOverlap := 0.1 + rng.Float64()*0.9

		got, err := querier.RangeQuery(ctx(t), area, reqAcc, reqOverlap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var want []core.OID
		for _, k := range objects {
			if area.RangeQualifies(k.ld, reqAcc, reqOverlap) {
				want = append(want, k.oid)
			}
		}
		gotIDs := make([]core.OID, len(got))
		for i, e := range got {
			gotIDs[i] = e.OID
		}
		sortOIDs(want)
		sortOIDs(gotIDs)
		if !equalOIDs(gotIDs, want) {
			t.Fatalf("trial %d (size %.0f, acc %.1f, overlap %.2f): got %d objects, oracle %d\n got: %v\nwant: %v",
				trial, size, reqAcc, reqOverlap, len(gotIDs), len(want), gotIDs, want)
		}
	}
}

// TestDistributedNeighborQueryMatchesOracle does the same for nearest-
// neighbor queries: the answer — nearest object, the nearObjSet by OID and
// the guaranteed minimum distance — must equal core.SelectNearest over all
// registered objects. It runs a two- and a three-level hierarchy, each with
// the area cache off (queries climb the tree to the owning leaf) and on
// (entries send them straight to the owner once they learned its area),
// from a querier on each quadrant. Query points are drawn to hit every
// branch of the resolution: leaf borders and corners, points exactly at
// objects, points just outside the root area (no owner), clusters of
// objects too coarse for the query's accuracy bound right next to the
// point (the cursor must skip them), and one leaf left empty (its owner
// falls back to the expanding ring).
func TestDistributedNeighborQueryMatchesOracle(t *testing.T) {
	root := geo.R(0, 0, 1600, 1600)
	specs := []struct {
		name    string
		spec    hierarchy.Spec
		borders []float64 // leaf border coordinates on both axes
		empty   geo.Rect  // one leaf's area, left without objects
	}{
		{"two-level", hierarchy.Spec{RootArea: root, Levels: []hierarchy.Level{{Rows: 2, Cols: 2}}},
			[]float64{800}, geo.R(800, 800, 1600, 1600)},
		{"three-level", hierarchy.Spec{RootArea: root, Levels: []hierarchy.Level{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 2}}},
			[]float64{400, 800, 1200}, geo.R(1200, 1200, 1600, 1600)},
	}
	for _, sp := range specs {
		for _, cache := range []bool{false, true} {
			sp, cache := sp, cache
			t.Run(fmt.Sprintf("%s/areacache=%v", sp.name, cache), func(t *testing.T) {
				checkNeighborOracle(t, sp.spec, cache, sp.borders, sp.empty)
			})
		}
	}
}

func checkNeighborOracle(t *testing.T, spec hierarchy.Spec, areaCache bool, borders []float64, empty geo.Rect) {
	const (
		reqAcc  = 30
		fineAcc = 15 // offered to qualifying objects
		coarse  = 60 // offered to objects the query must skip
		trials  = 200
	)
	ls := newTestLS(t, spec, server.Options{AchievableAcc: fineAcc, EnableAreaCache: areaCache})
	owner := ls.newClientAt(t, "owner", geo.Pt(10, 10), client.Options{})
	rng := rand.New(rand.NewSource(101))
	side := spec.RootArea.Width()

	var entries []core.Entry
	register := func(p geo.Point, desAcc float64) {
		t.Helper()
		if empty.ContainsClosed(p) {
			return
		}
		oid := core.OID(fmt.Sprintf("o%d", len(entries)))
		obj, err := owner.Register(ctx(t), sightingAt(string(oid), p), desAcc, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, core.Entry{OID: oid, LD: core.LocationDescriptor{Pos: p, Acc: obj.OfferedAcc()}})
	}
	for i := 0; i < 150; i++ {
		register(geo.Pt(rng.Float64()*side, rng.Float64()*side), fineAcc)
	}
	// Objects on leaf borders, and clusters of coarse objects hugging
	// "hot" points: a query there meets non-qualifying sightings first.
	var hot []geo.Point
	for _, b := range borders {
		register(geo.Pt(b, rng.Float64()*side), fineAcc)
		register(geo.Pt(rng.Float64()*side, b), fineAcc)
		for _, c := range borders {
			hot = append(hot, geo.Pt(b+0.5, c-0.5))
		}
	}
	for i := 0; i < 8; i++ {
		hot = append(hot, geo.Pt(rng.Float64()*side, rng.Float64()*side))
	}
	for _, h := range hot {
		for k := 0; k < 4; k++ {
			register(geo.Pt(h.X+rng.Float64()*6-3, h.Y+rng.Float64()*6-3), coarse)
		}
	}
	n := len(entries)
	waitFor(t, func() bool { return ls.dep.RootVisitorCount() == n }, "paths complete")

	// A querier on each quadrant; the last one's entry leaf is empty.
	queriers := []*client.Client{
		ls.newClientAt(t, "q0", geo.Pt(side/8, side/8), client.Options{}),
		ls.newClientAt(t, "q1", geo.Pt(side*7/8, side/8), client.Options{}),
		ls.newClientAt(t, "q2", geo.Pt(side/8, side*7/8), client.Options{}),
		ls.newClientAt(t, "q3", geo.Pt(side*31/32, side*31/32), client.Options{}),
	}
	border := func() float64 { return borders[rng.Intn(len(borders))] }
	points := []func() geo.Point{
		func() geo.Point { return geo.Pt(rng.Float64()*side, rng.Float64()*side) },
		func() geo.Point { return geo.Pt(border(), rng.Float64()*side) },
		func() geo.Point { return geo.Pt(rng.Float64()*side, border()) },
		func() geo.Point { return geo.Pt(border(), border()) },
		func() geo.Point { return entries[rng.Intn(n)].LD.Pos },
		func() geo.Point { return hot[rng.Intn(len(hot))] },
		func() geo.Point {
			return geo.Pt(empty.Min.X+rng.Float64()*empty.Width(), empty.Min.Y+rng.Float64()*empty.Height())
		},
		func() geo.Point { // just outside the root area, on any side
			off := []geo.Point{{X: -0.5, Y: rng.Float64() * side}, {X: side + 0.5, Y: rng.Float64() * side},
				{X: rng.Float64() * side, Y: -1}, {X: rng.Float64() * side, Y: side + 1}}
			return off[rng.Intn(len(off))]
		},
	}
	for trial := 0; trial < trials; trial++ {
		p := points[trial%len(points)]()
		nearQual := rng.Float64() * 100
		if trial%5 == 0 {
			nearQual = 0
		}
		q := queriers[(trial/len(points))%len(queriers)]
		got, err := q.NeighborQuery(ctx(t), p, reqAcc, nearQual)
		if err != nil {
			t.Fatalf("trial %d (p %v): %v", trial, p, err)
		}
		want := core.SelectNearest(entries, p, reqAcc, nearQual)
		if got.Partial {
			t.Fatalf("trial %d (p %v): healthy hierarchy answered Partial (unreachable %v)", trial, p, got.Unreachable)
		}
		if got.Nearest.OID != want.Nearest.OID {
			t.Fatalf("trial %d (p %v): nearest %s, oracle %s (dist %.2f vs %.2f)",
				trial, p, got.Nearest.OID, want.Nearest.OID,
				got.Nearest.LD.Pos.Dist(p), want.Nearest.LD.Pos.Dist(p))
		}
		if math.Abs(got.GuaranteedMinDist-want.GuaranteedMinDist) > 1e-9 {
			t.Fatalf("trial %d (p %v): guaranteed min dist %v, oracle %v", trial, p, got.GuaranteedMinDist, want.GuaranteedMinDist)
		}
		gotNear, wantNear := entryOIDs(got.Near), entryOIDs(want.Near)
		if !equalOIDs(gotNear, wantNear) {
			t.Fatalf("trial %d (p %v, nearQual %.1f): nearObjSet %v, oracle %v", trial, p, nearQual, gotNear, wantNear)
		}
	}

	// Every branch of the resolution ran.
	var c struct{ routed, skipped, expand int64 }
	for _, id := range ls.dep.Leaves() {
		srv, _ := ls.dep.Server(id)
		c.routed += srv.Metrics().Counter("neighbor_query_routed").Value()
		c.skipped += srv.Metrics().Counter("neighbor_query_ring_skipped").Value()
		c.expand += srv.Metrics().Counter("neighbor_query_expand").Value()
	}
	if c.routed == 0 || c.skipped == 0 || c.expand == 0 {
		t.Errorf("resolution branches not all exercised: routed=%d ring_skipped=%d ring_expand=%d", c.routed, c.skipped, c.expand)
	}
	if areaCache {
		id, _ := ls.dep.LeafFor(geo.Pt(side/8, side/8))
		entry, _ := ls.dep.Server(id)
		learned := false
		for _, p := range []geo.Point{{X: side * 7 / 8, Y: side / 8}, {X: side / 8, Y: side * 7 / 8}, {X: side * 5 / 8, Y: side * 5 / 8}} {
			_, ok := entry.CachedLeafForTest(p)
			learned = learned || ok
		}
		if !learned {
			t.Error("area cache on, but the entry never learned the owner of a remote point")
		}
	}
}

// entryOIDs returns the sorted object ids of a result set.
func entryOIDs(es []core.Entry) []core.OID {
	ids := make([]core.OID, len(es))
	for i, e := range es {
		ids[i] = e.OID
	}
	sortOIDs(ids)
	return ids
}

// TestQueriesUnderMessageLoss injects datagram loss and verifies the
// service degrades gracefully: operations may fail or return partial
// results, but nothing deadlocks or crashes, and the system keeps serving
// once loss stops.
func TestQueriesUnderMessageLoss(t *testing.T) {
	net := transport.NewInproc(transport.InprocOptions{DropRate: 0.10, Seed: 9})
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{
		QueryTimeout: 100 * time.Millisecond,
		CallTimeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close(); net.Close() })

	owner, err := client.New(net, "owner", "r.0", client.Options{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { owner.Close() })

	registered := 0
	for i := 0; i < 20; i++ {
		// Registrations can be lost; retry like a real client would.
		for attempt := 0; attempt < 5; attempt++ {
			_, rerr := owner.Register(ctx(t), sightingAt(fmt.Sprintf("o%d", i),
				geo.Pt(float64(10+i*30), 100)), 10, 50, 3)
			if rerr == nil {
				registered++
				break
			}
		}
	}
	if registered < 15 {
		t.Fatalf("only %d/20 registrations survived retries", registered)
	}

	// Queries under loss: every call must return within its timeout,
	// successfully or not.
	q, err := client.New(net, "q", "r.3", client.Options{Timeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	successes := 0
	for i := 0; i < 15; i++ {
		start := time.Now()
		_, qerr := q.RangeQueryRect(ctx(t), geo.R(0, 0, 1500, 300), 50, 0.5)
		if qerr == nil {
			successes++
		}
		if time.Since(start) > 2*time.Second {
			t.Fatalf("query %d took %v despite timeouts", i, time.Since(start))
		}
	}
	if successes == 0 {
		t.Error("no query succeeded under 10% loss")
	}
}

func sortOIDs(ids []core.OID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func equalOIDs(a, b []core.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
