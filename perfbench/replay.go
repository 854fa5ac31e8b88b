package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/msg"
	"locsvc/internal/store"
	"locsvc/internal/wire"
)

// wireTypes are the envelope types whose codec cost is reported.
var wireTypes = []string{
	"UpdateReq", "UpdateRes", "PosQueryReq", "PosQueryRes",
	"RangeQueryReq", "RangeQueryRes", "NeighborQueryReq", "NeighborQueryRes",
}

// replayWire times wire.AppendEncode and wire.Decode over every envelope
// of each type the traced run saw, and counts decode allocations.
func replayWire(rep *report, tr *tracer) {
	for _, typ := range wireTypes {
		envs := tr.envs[typ]
		var encNs, decNs, allocs float64
		if len(envs) > 0 {
			encNs, decNs, allocs = codecCost(envs)
		}
		base := fmt.Sprintf("envelopes=%d", len(envs))
		rep.addLayer("wire.encode_ns."+typ, encNs, "ns", base)
		rep.addLayer("wire.decode_ns."+typ, decNs, "ns", base)
		rep.addLayer("wire.decode_allocs."+typ, allocs, "count", base)
	}
}

func codecCost(envs []msg.Envelope) (encNs, decNs, allocs float64) {
	frames := make([][]byte, 0, len(envs))
	for _, env := range envs {
		b, err := wire.AppendEncode(nil, env)
		if err != nil {
			continue
		}
		frames = append(frames, b)
	}
	if len(frames) == 0 {
		return 0, 0, 0
	}
	buf := make([]byte, 0, 1<<16)
	const minDur = 20 * time.Millisecond
	n := 0
	t0 := time.Now()
	for time.Since(t0) < minDur {
		for _, env := range envs {
			buf, _ = wire.AppendEncode(buf[:0], env)
			n++
		}
	}
	encNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, f := range frames {
		if _, err := wire.Decode(f); err != nil {
			return encNs, 0, 0
		}
	}
	runtime.ReadMemStats(&ms1)
	allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(frames))

	n = 0
	t0 = time.Now()
	for time.Since(t0) < minDur {
		for _, f := range frames {
			wire.Decode(f)
			n++
		}
	}
	decNs = float64(time.Since(t0).Nanoseconds()) / float64(n)
	return encNs, decNs, allocs
}

// replayStore feeds the traced run's sighting and query stream into a
// standalone store configured like the workload's leaves (the
// single-lock store behind an update pipeline) and times each store call.
func (sc *scenario) replayStore(rep *report, plan []plannedOp) error {
	db := store.NewSightingDB(store.WithTTL(sc.cfg.base.SightingTTL))
	pipe := store.NewUpdatePipeline(db)
	for i, p := range sc.positions {
		pipe.Put(core.Sighting{OID: core.OID(fmt.Sprintf("%s-%d", sc.name, i)), T: time.Now(), Pos: p, SensAcc: sensAcc})
	}
	var put, get, search, nearest []float64
	// Up to five passes over the stream, stopping after the pass that
	// crosses replayBudget.
	const rounds = 5
	start := time.Now()
	for round := 0; round < rounds && time.Since(start) < replayBudget; round++ {
		for _, op := range plan {
			switch op.kind {
			case opUpdate, opHandover:
				s := core.Sighting{OID: op.o.id, T: time.Now(), Pos: op.p, SensAcc: sensAcc}
				t0 := time.Now()
				pipe.Put(s)
				put = append(put, us(time.Since(t0)))
			case opPosLocal, opPosRemote:
				t0 := time.Now()
				db.Get(op.o.id)
				get = append(get, us(time.Since(t0)))
			case opRange:
				t0 := time.Now()
				db.SearchArea(op.r, func(core.Sighting) bool { return true })
				search = append(search, us(time.Since(t0)))
			case opNN:
				t0 := time.Now()
				k := 0
				db.NearestFunc(op.p, func(core.Sighting, float64) bool { k++; return k < 8 })
				nearest = append(nearest, us(time.Since(t0)))
			}
		}
	}
	p50 := func(xs []float64) float64 {
		sort.Float64s(xs)
		return quantile(xs, 0.5)
	}
	rep.addLayer("store.put_us", p50(put), "us", fmt.Sprintf("p50 of %d pipeline puts", len(put)))
	rep.addLayer("store.get_us", p50(get), "us", fmt.Sprintf("p50 of %d gets", len(get)))
	rep.addLayer("store.search_area_us", p50(search), "us", fmt.Sprintf("p50 of %d 50 m searches", len(search)))
	rep.addLayer("store.nearest_us", p50(nearest), "us", fmt.Sprintf("p50 of %d 8-nearest scans", len(nearest)))
	return nil
}

const replayBudget = 5 * time.Second

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// addLayers derives the per-layer values of the untraced timed window
// from the counter diffs, the leaves' diagnostics and the runtime.
func (sc *scenario) addLayers(rep *report, wd windowDelta, ops float64, diag0, diag1 []msg.DiagRes) {
	c := wd.counters
	opsBase := fmt.Sprintf("per op (ops=%.0f)", ops)

	rep.addLayer("transport.retries", c["wire_retries"], "count", "window")
	rep.addLayer("transport.call_timeouts", c["wire_call_timeouts"], "count", "window")
	rep.addLayer("transport.breaker_open", c["wire_breaker_open"], "count", "window")
	rep.addLayer("transport.late_replies", c["wire_late_replies"], "count", "window")

	rep.addLayer("wire.datagrams_per_op", ratio(c["wire_datagrams_out"], ops), "count", opsBase)
	rep.addLayer("wire.envelopes_per_datagram", ratio(c["wire_envelopes_out"], c["wire_datagrams_out"]), "count",
		fmt.Sprintf("datagrams=%.0f", c["wire_datagrams_out"]))
	rep.addLayer("wire.bytes_per_op", ratio(c["wire_bytes_out"], ops), "B", opsBase)

	rep.addLayer("server.nn_local_fast_ratio", ratio(c["neighbor_query_local_fast"], c["neighbor_query_seen"]), "ratio",
		fmt.Sprintf("neighbor_query_seen=%.0f", c["neighbor_query_seen"]))
	rep.addLayer("server.nn_expand_per_query", ratio(c["neighbor_query_expand"], c["neighbor_query_seen"]), "count",
		fmt.Sprintf("neighbor_query_seen=%.0f", c["neighbor_query_seen"]))
	rep.addLayer("server.pos_cache_hit_ratio", ratio(c["pos_query_cache_pos"]+c["pos_query_cache_agent"], c["pos_query_seen"]), "ratio",
		fmt.Sprintf("pos_query_seen=%.0f", c["pos_query_seen"]))
	rep.addLayer("server.updates_deduped", c["updates_deduped"], "count", "window")

	var po0, po1, ph0, ph1, so0, so1, sc0, sc1 float64
	for _, dg := range diag0 {
		po0 += float64(dg.PipelineOps)
		ph0 += float64(dg.PipelineHandoffs)
		for _, s := range dg.Shards {
			so0 += float64(s.Ops)
			sc0 += float64(s.Contended)
		}
	}
	for _, dg := range diag1 {
		po1 += float64(dg.PipelineOps)
		ph1 += float64(dg.PipelineHandoffs)
		for _, s := range dg.Shards {
			so1 += float64(s.Ops)
			sc1 += float64(s.Contended)
		}
	}
	rep.addLayer("store.pipeline_handoff_ratio", ratio(ph1-ph0, po1-po0), "ratio", fmt.Sprintf("pipeline ops=%.0f", po1-po0))
	rep.addLayer("store.shard_contended_ratio", ratio(sc1-sc0, so1-so0), "ratio", fmt.Sprintf("shard lock ops=%.0f", so1-so0))

	rep.addLayer("go.allocs_per_op", ratio(wd.allocs, ops), "count", opsBase)
	rep.addLayer("go.alloc_bytes_per_op", ratio(wd.bytes, ops), "B", opsBase)
	rep.addLayer("go.gc_cpu_fraction", wd.gcFrac, "ratio", "GC CPU over total CPU in the window")
	rep.addLayer("go.heap_live_mb", wd.heapLive/(1<<20), "MB", "after the window")

	rep.addLayer("bench.ops", ops, "count", fmt.Sprintf("completed operations in %.2f s", wd.secs))
}
