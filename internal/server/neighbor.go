package server

import (
	"context"
	"math"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// anyOverlap is the overlap threshold of every nearest-neighbor
// collection. It only needs to be positive: any object whose position lies
// inside a collection window has a positive overlap degree with it.
const anyOverlap = 1e-9

// scanCap bounds the nearest-first cursor walk: a leaf full of
// non-qualifying sightings falls back to the expanding ring instead of
// being streamed end to end.
const scanCap = 64

// handleNeighborQuery resolves a nearest-neighbor query (semantics of
// Section 3.2; the paper fixes the answer, not its distributed
// resolution). The query is answered at the leaf that owns its point P:
//
//   - Route. When P lies in another leaf's service area, the entry server
//     sends a NeighborQueryFwd there — straight to the leaf its area cache
//     names, or else up the hierarchy until a server's area contains P
//     and down through the child containing P — and waits for the owner's
//     NeighborQuerySubRes. Points in its own area, and points outside the
//     root area (which no leaf owns), the entry resolves itself.
//   - Resolve (resolveNeighbor, the same function at the owner and at the
//     entry). Walk the store's nearest-first cursor to the first
//     qualifying sighting, at distance d, examining at most scanCap. If
//     the collection window of radius d + nearQual + 1, enlarged by
//     reqAcc, lies inside the leaf's service area, select the answer from
//     local sightings alone. Otherwise run one distributed range
//     collection over that window. Only when no qualifying sighting turns
//     up within scanCap does the expanding ring run (neighborRing).
//   - Fall back. A dark next hop answers the entry at once (Partial, with
//     the unreachable server named); a forward error, a route that ends
//     without an owner, or no reply within QueryTimeout also make the
//     entry resolve the query itself. A degraded answer is the nearest
//     reachable object, marked Partial.
//
// Why one collection is exact: the cursor's candidate qualifies, so the
// true nearest qualifying object lies at distance at most d, and every
// member of nearObjSet at most d + nearQual from P. All of them lie
// strictly inside the square window of radius d + nearQual + 1 around P,
// so the collection returns a superset of every object that can appear in
// the answer, and core.SelectNearest applies the exact selection rule
// (accuracy filter, deterministic tie-break, guaranteed minimum distance)
// to it. The +1 m margin keeps the window's area positive when the
// candidate sits exactly at P with nearQual 0: a zero-area window would
// give every candidate overlap degree 0 and filter the whole answer away.
// Objects are agented by the leaf whose area contains their position, so
// when the window (enlarged by reqAcc, exactly like a forwarded window)
// lies inside this leaf's area, every object in it is local. Running the
// resolution at the owner only makes d small; it is correct at any leaf,
// which is what lets the entry fall back to it.
func (s *Server) handleNeighborQuery(ctx context.Context, req msg.NeighborQueryReq) (msg.Message, error) {
	if !s.cfg.IsLeaf() {
		return nil, core.ErrBadRequest
	}
	if req.ReqAcc < 0 || req.NearQual < 0 {
		return nil, core.ErrBadRequest
	}
	s.met.Counter("neighbor_query_seen").Inc()

	// What a failed route learned (a dark hop) is folded into the
	// fallback's answer.
	var routed msg.NeighborQueryRes
	if !s.inArea(req.P) && s.rootArea.Contains(req.P) {
		res, ok, err := s.routeNeighborQuery(ctx, req)
		if err != nil {
			return nil, err
		}
		if ok {
			return s.neighborAnswer(res), nil
		}
		routed = res
		s.met.Counter("neighbor_query_route_fallback").Inc()
	}

	plan := s.planNeighbor(req)
	if plan.local {
		s.met.Counter("neighbor_query_local_fast").Inc()
	}
	res, err := s.resolveNeighbor(ctx, req, plan, s.opts.QueryTimeout)
	if err != nil {
		return nil, err
	}
	res.Partial = res.Partial || routed.Partial
	res.Unreachable = mergeUnreachable(res.Unreachable, routed.Unreachable...)
	return s.neighborAnswer(res), nil
}

// neighborAnswer counts a degraded answer on its way to the client.
func (s *Server) neighborAnswer(res msg.NeighborQueryRes) msg.NeighborQueryRes {
	if res.Partial {
		s.met.Counter("wire_degraded_queries").Inc()
	}
	return res
}

// routeNeighborQuery sends req to the leaf owning req.P and waits for its
// answer. ok is false when no owner answered: a forward error, a dark next
// hop, a route that ended without an owner, or no reply within
// QueryTimeout. res then carries what the route learned (Partial and the
// unreachable servers) for the fallback to fold in.
func (s *Server) routeNeighborQuery(ctx context.Context, req msg.NeighborQueryReq) (res msg.NeighborQueryRes, ok bool, err error) {
	opID, ch := s.pend.open()
	defer s.pend.close(opID)
	to, cached := s.caches.leafFor(req.P)
	if !cached || to == s.ID() {
		if to = s.parentForKey(opID); to == "" {
			return msg.NeighborQueryRes{}, false, nil
		}
	}
	if err := s.forward(to, msg.NeighborQueryFwd{
		P: req.P, ReqAcc: req.ReqAcc, NearQual: req.NearQual,
		Origin: msg.Origin{Node: s.ID(), OpID: opID}, Hops: 1,
	}); err != nil {
		return msg.NeighborQueryRes{Partial: true, Unreachable: []msg.NodeID{to}}, false, nil
	}
	s.met.Counter("neighbor_query_routed").Inc()
	timeout := time.NewTimer(s.opts.QueryTimeout)
	defer timeout.Stop()
	for {
		select {
		case m := <-ch:
			sub, isSub := m.(msg.NeighborQuerySubRes)
			if !isSub {
				continue
			}
			// Only an owner sets Leaf; a coordinator's reply means the
			// route ended short of one.
			return sub.Res, sub.Leaf.Valid(), nil
		case <-timeout.C:
			s.met.Counter("neighbor_query_route_timeout").Inc()
			return msg.NeighborQueryRes{}, false, nil
		case <-ctx.Done():
			return msg.NeighborQueryRes{}, false, ctx.Err()
		}
	}
}

// handleNeighborQueryFwd routes a NeighborQueryFwd one hop toward the leaf
// owning its point, or resolves it there. A coordinator whose area
// contains P forwards to the child containing P, and otherwise upward; a
// next hop that cannot be reached is reported to the origin at once, as
// forwardPosQueryOr does, so the entry server falls back without waiting
// out its timeout.
func (s *Server) handleNeighborQueryFwd(from msg.NodeID, req msg.NeighborQueryFwd) {
	req.Hops++
	if s.cfg.IsLeaf() {
		s.answerNeighborQueryFwd(req)
		return
	}
	var next msg.NodeID
	switch {
	case req.Hops > maxFwdHops:
		// A routing loop through rebinding churn; let the entry resolve.
	case s.cfg.SA.Contains(req.P):
		if child, ok := s.childFor(req.P); ok {
			next = msg.NodeID(child.ID)
		}
	case !s.isParent(from):
		// Queries from above always lie in this area; only ones from
		// below climb.
		next = s.parentForKey(req.Origin.OpID)
	}
	reply := msg.NeighborQuerySubRes{OpID: req.Origin.OpID, Hops: req.Hops}
	if next == "" {
		s.respondToOrigin(req.Origin, reply)
		return
	}
	if err := s.forward(next, req); err != nil {
		reply.Res = msg.NeighborQueryRes{Partial: true, Unreachable: []msg.NodeID{next}}
		s.respondToOrigin(req.Origin, reply)
	}
}

// answerNeighborQueryFwd resolves a routed query at its owner and answers
// the origin. An answer from local sightings is sent inline. One that
// needs a distributed collection runs on its own goroutine, so the
// tracked forward that brought the query is acknowledged now rather than
// after a collection that may wait out a dark leaf; it gets half the
// query timeout, so a degraded answer still reaches the entry server
// before the entry's own wait ends.
func (s *Server) answerNeighborQueryFwd(req msg.NeighborQueryFwd) {
	q := msg.NeighborQueryReq{P: req.P, ReqAcc: req.ReqAcc, NearQual: req.NearQual}
	reply := func(res msg.NeighborQueryRes) {
		s.respondToOrigin(req.Origin, msg.NeighborQuerySubRes{
			OpID: req.Origin.OpID, Res: res, Leaf: s.leafInfo(), Hops: req.Hops,
		})
	}
	plan := s.planNeighbor(q)
	if plan.local {
		res, _ := s.resolveNeighbor(context.Background(), q, plan, 0)
		reply(res)
		return
	}
	// The context only caps the goroutine's life: each collection gives up
	// after wait and answers Partial well before it ends.
	s.goBackground(s.opts.QueryTimeout, func(ctx context.Context) {
		if res, err := s.resolveNeighbor(ctx, q, plan, s.opts.QueryTimeout/2); err == nil {
			reply(res)
		}
	})
}

// neighborPlan is the outcome of the cursor walk that starts every
// resolution.
type neighborPlan struct {
	// found reports a qualifying sighting within scanCap of the cursor.
	found bool
	// window is the collection window: radius d + nearQual + 1 around P,
	// with d the distance of that sighting.
	window core.Area
	// local reports that window, enlarged by reqAcc, lies inside this
	// leaf's service area, so the answer needs no network.
	local bool
}

// planNeighbor walks this leaf's sightings nearest-first to the first one
// that qualifies. A sighting strictly inside a window has positive overlap
// with it, so the qualification predicate of the collection reduces to
// the accuracy test.
func (s *Server) planNeighbor(req msg.NeighborQueryReq) neighborPlan {
	bound := -1.0
	examined := 0
	s.sightings.NearestFunc(req.P, func(sight core.Sighting, dist float64) bool {
		if rec, ok := s.visitors.Get(sight.OID); ok && rec.OfferedAcc <= req.ReqAcc {
			bound = dist
			return false
		}
		examined++
		return examined < scanCap
	})
	if bound < 0 {
		return neighborPlan{}
	}
	window := core.AreaFromRect(geo.RectAround(req.P, bound+req.NearQual+1))
	return neighborPlan{
		found:  true,
		window: window,
		local:  s.cfg.SA.Bounds().ContainsRect(window.Bounds().Enlarge(req.ReqAcc)),
	}
}

// resolveNeighbor answers req from plan: from local sightings when the
// plan is local, with one distributed collection over the plan's window
// otherwise, and with the expanding ring when the cursor found no
// qualifying sighting. wait bounds each distributed collection's wait for
// partial results.
func (s *Server) resolveNeighbor(ctx context.Context, req msg.NeighborQueryReq, plan neighborPlan, wait time.Duration) (msg.NeighborQueryRes, error) {
	if !plan.found {
		return s.neighborRing(ctx, req, wait)
	}
	if plan.local {
		enlarged := plan.window.Bounds().Enlarge(req.ReqAcc)
		return selectNeighbor(s.localRangeResult(plan.window, req.ReqAcc, anyOverlap, enlarged), req, rangeOutcome{}), nil
	}
	s.met.Counter("neighbor_query_ring_skipped").Inc()
	out, err := s.collectRange(ctx, plan.window, req.ReqAcc, anyOverlap, wait)
	if err != nil {
		return msg.NeighborQueryRes{}, err
	}
	return selectNeighbor(out.objs, req, out), nil
}

// selectNeighbor applies the selection rule to a candidate superset and
// carries over the degradation of the collections that gathered it.
func selectNeighbor(cands []core.Entry, req msg.NeighborQueryReq, coll rangeOutcome) msg.NeighborQueryRes {
	res := msg.NeighborQueryRes{Partial: coll.partial, Unreachable: coll.unreachable}
	sel := core.SelectNearest(cands, req.P, req.ReqAcc, req.NearQual)
	if sel.Found {
		res.Found = true
		res.Nearest = sel.Nearest
		res.Near = sel.Near
		res.GuaranteedMinDist = sel.GuaranteedMinDist
	}
	return res
}

// neighborRing is the resolution of last resort, for a leaf with no
// qualifying sighting near P: query a square window around P, doubling its
// radius until a candidate whose recorded position lies within the window
// radius is found (any object outside the window is farther than the
// radius, so the nearest candidate found this way is the global nearest),
// then collect once more at radius dist(nearest) + nearQual + 1 to gather
// nearObjSet. Every ring is its own distributed collection; a degraded
// ring taints the whole answer, so partiality and the unreachable set are
// unioned across all of them — a partial answer means the true nearest
// could hide behind a dark leaf.
func (s *Server) neighborRing(ctx context.Context, req msg.NeighborQueryReq, wait time.Duration) (msg.NeighborQueryRes, error) {
	rootBounds := s.rootArea.Bounds()
	maxRadius := rootBounds.Width() + rootBounds.Height() // covers everything from any p

	radius := s.opts.NNInitialRadius
	if radius <= 0 {
		sa := s.cfg.SA.Bounds()
		radius = (sa.Width() + sa.Height()) / 8
		if radius <= 0 {
			radius = maxRadius / 64
		}
	}

	var rings rangeOutcome
	var nearestDist float64
	found := false
	for {
		window := core.AreaFromRect(geo.RectAround(req.P, radius))
		out, err := s.collectRange(ctx, window, req.ReqAcc, anyOverlap, wait)
		if err != nil {
			return msg.NeighborQueryRes{}, err
		}
		rings.partial = rings.partial || out.partial
		rings.unreachable = mergeUnreachable(rings.unreachable, out.unreachable...)
		for _, e := range out.objs {
			d := e.LD.Pos.Dist(req.P)
			if d <= radius && (!found || d < nearestDist) {
				nearestDist = d
				found = true
			}
		}
		if found {
			break
		}
		if radius >= maxRadius {
			// The whole service area has been searched.
			return selectNeighbor(nil, req, rings), nil
		}
		radius = math.Min(radius*2, maxRadius)
		s.met.Counter("neighbor_query_expand").Inc()
	}

	window := core.AreaFromRect(geo.RectAround(req.P, nearestDist+req.NearQual+1))
	out, err := s.collectRange(ctx, window, req.ReqAcc, anyOverlap, wait)
	if err != nil {
		return msg.NeighborQueryRes{}, err
	}
	rings.partial = rings.partial || out.partial
	rings.unreachable = mergeUnreachable(rings.unreachable, out.unreachable...)
	return selectNeighbor(out.objs, req, rings), nil
}
