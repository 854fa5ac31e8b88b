package server_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// TestDegradedQueriesWithDarkLeaf runs every query type against the quad
// hierarchy with exactly one leaf dark and checks that coordinators answer
// with what the reachable part of the tree knows — marked Partial — instead
// of failing outright. The oracle is the full object set minus the dark
// leaf's quarter.
func TestDegradedQueriesWithDarkLeaf(t *testing.T) {
	// No network-level call cap: the servers' own CallTimeout governs
	// hop calls, and the client's operation timeout must outlive the
	// entry server's QueryTimeout to receive the partial answer.
	net := transport.NewInproc(transport.InprocOptions{
		SweepInterval: 20 * time.Millisecond,
	})
	defer net.Close()
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{
		CallTimeout:  300 * time.Millisecond,
		QueryTimeout: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	// One object per quarter; o3 lives on the leaf that goes dark.
	objs := map[string]geo.Point{
		"o0": geo.Pt(100, 100),   // r.0
		"o1": geo.Pt(1200, 100),  // r.1
		"o2": geo.Pt(100, 1200),  // r.2
		"o3": geo.Pt(1200, 1200), // r.3
	}
	for oid, p := range objs {
		c, cerr := client.New(net, msg.NodeID("owner-"+oid), "r.0", client.Options{})
		if cerr != nil {
			t.Fatal(cerr)
		}
		defer c.Close()
		if _, rerr := c.Register(ctx(t), sightingAt(oid, p), 10, 50, 3); rerr != nil {
			t.Fatal(rerr)
		}
	}

	c, err := client.New(net, "querier", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Sanity before the fault: the full query sees all four objects and
	// is not partial.
	full, err := c.RangeQueryFull(ctx(t), core.AreaFromRect(geo.R(0, 0, 1500, 1500)), 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || len(full.Objs) != 4 {
		t.Fatalf("healthy query: partial=%v objs=%d", full.Partial, len(full.Objs))
	}

	// Darken r.3: deliveries to and from it are dropped, its id stays
	// attached — the shape of a paused or crashed process behind a live
	// address.
	net.SetNodeDown("r.3", true)

	// The oracle minus the dark leaf.
	reachable := map[string]geo.Point{"o0": objs["o0"], "o1": objs["o1"], "o2": objs["o2"]}
	nearestReachable := func(p geo.Point) string {
		best, bestD := "", math.Inf(1)
		for oid, q := range reachable {
			if d := p.Dist(q); d < bestD {
				best, bestD = oid, d
			}
		}
		return best
	}

	tests := []struct {
		name  string
		check func(t *testing.T)
	}{
		{"range is partial and equals oracle minus dark leaf", func(t *testing.T) {
			res, err := c.RangeQueryFull(ctx(t), core.AreaFromRect(geo.R(0, 0, 1500, 1500)), 100, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial {
				t.Error("range over a dark quarter not marked Partial")
			}
			got := map[string]bool{}
			for _, e := range res.Objs {
				got[string(e.OID)] = true
			}
			if len(got) != len(reachable) {
				t.Fatalf("objs = %v, want exactly %v", got, reachable)
			}
			for oid := range reachable {
				if !got[oid] {
					t.Errorf("reachable object %s missing from degraded result", oid)
				}
			}
		}},
		{"neighbor is partial and nearest among reachable", func(t *testing.T) {
			// The true nearest to this point is o3 on the dark leaf;
			// the degraded answer is the nearest reachable object.
			p := geo.Pt(1050, 1100)
			res, err := c.NeighborQuery(ctx(t), p, 100, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial {
				t.Error("neighbor query touching a dark quarter not marked Partial")
			}
			if want := nearestReachable(p); string(res.Nearest.OID) != want {
				t.Errorf("nearest = %s, want %s (nearest reachable)", res.Nearest.OID, want)
			}
		}},
		{"posquery for object behind dark leaf is unavailable, not not-found", func(t *testing.T) {
			_, err := c.PosQuery(ctx(t), "o3")
			if !errors.Is(err, core.ErrUnavailable) {
				t.Errorf("dark-leaf posquery err = %v, want ErrUnavailable", err)
			}
		}},
		{"posquery for reachable object still succeeds", func(t *testing.T) {
			ld, err := c.PosQuery(ctx(t), "o1")
			if err != nil {
				t.Fatal(err)
			}
			if ld.Pos != objs["o1"] {
				t.Errorf("pos = %v, want %v", ld.Pos, objs["o1"])
			}
		}},
		{"diag at a live entry is unaffected", func(t *testing.T) {
			res, err := c.Diag(ctx(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Server != "r.0" || !res.IsLeaf {
				t.Errorf("diag = %+v", res)
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) { tc.check(t) })
	}

	entry, _ := dep.Server("r.0")
	if got := entry.Metrics().Counter("wire_degraded_queries").Value(); got < 3 {
		t.Errorf("wire_degraded_queries = %d, want >= 3 (range, neighbor, posquery)", got)
	}
}

// TestDegradedNeighborQueryRouted drives nearest-neighbor queries through
// the route to the leaf owning the query point while one leaf is dark and
// its parent's breaker toward it is open. A query owned by the dark leaf
// gets the coordinator's immediate dark reply, so the entry's fallback
// answers — Partial, with the nearest reachable object — in a fraction of
// QueryTimeout. A query owned by a live leaf is answered there, and is
// Partial too when the owner's collection window reaches into the dark
// leaf.
func TestDegradedNeighborQueryRouted(t *testing.T) {
	const queryTimeout = time.Second
	net := transport.NewInproc(transport.InprocOptions{
		SweepInterval:    20 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // stays open for the whole test
	})
	defer net.Close()
	dep, err := hierarchy.Deploy(net, quadSpec(), server.Options{
		CallTimeout:  300 * time.Millisecond,
		QueryTimeout: queryTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	objs := map[string]geo.Point{
		"o0": geo.Pt(100, 100),   // r.0
		"o1": geo.Pt(1200, 100),  // r.1
		"o2": geo.Pt(100, 1200),  // r.2
		"o3": geo.Pt(1200, 1200), // r.3, goes dark
	}
	owner, err := client.New(net, "owner", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	for oid, p := range objs {
		if _, rerr := owner.Register(ctx(t), sightingAt(oid, p), 10, 50, 3); rerr != nil {
			t.Fatal(rerr)
		}
	}
	waitFor(t, func() bool { return dep.RootVisitorCount() == len(objs) }, "paths complete")
	c, err := client.New(net, "querier", "r.0", client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Darken r.3 and let one swept forward open the root's breaker toward
	// it; the query that trips it is abandoned by its client.
	net.SetNodeDown("r.3", true)
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _ = c.RangeQuery(short, core.AreaFromRect(geo.R(800, 800, 1400, 1400)), 100, 0.5)
	cancel()
	waitFor(t, func() bool { return net.PeerState(dep.Root(), "r.3") == transport.PeerOpen }, "root breaker toward r.3 open")

	entry, _ := dep.Server("r.0")
	fallbacks := func() int64 { return entry.Metrics().Counter("neighbor_query_route_fallback").Value() }

	t.Run("owned by the dark leaf", func(t *testing.T) {
		// The true nearest is o3, behind the dark leaf that owns p.
		p := geo.Pt(1050, 1100)
		before := fallbacks()
		start := time.Now()
		res, err := c.NeighborQuery(ctx(t), p, 100, 0)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial || !containsNode(res.Unreachable, "r.3") {
			t.Errorf("partial=%v unreachable=%v, want Partial naming r.3", res.Partial, res.Unreachable)
		}
		if res.Nearest.OID != "o2" {
			t.Errorf("nearest = %s, want o2 (nearest reachable)", res.Nearest.OID)
		}
		if fallbacks() != before+1 {
			t.Error("entry did not fall back after the coordinator's dark reply")
		}
		if elapsed > queryTimeout/4 {
			t.Errorf("answer took %v, want well under QueryTimeout %v", elapsed, queryTimeout)
		}
	})
	t.Run("owned by a live leaf, window reaching the dark leaf", func(t *testing.T) {
		// o2 is the true nearest (500 m); the 501 m window around p
		// reaches into r.3, which could hide an object as near.
		p := geo.Pt(600, 1200)
		before := fallbacks()
		start := time.Now()
		res, err := c.NeighborQuery(ctx(t), p, 100, 0)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Error("collection window over a dark leaf not marked Partial")
		}
		if res.Nearest.OID != "o2" {
			t.Errorf("nearest = %s, want o2", res.Nearest.OID)
		}
		if fallbacks() != before {
			t.Error("live owner's answer was not used")
		}
		if elapsed > queryTimeout/4 {
			t.Errorf("answer took %v, want well under QueryTimeout %v", elapsed, queryTimeout)
		}
	})
}

func containsNode(ids []msg.NodeID, id msg.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
