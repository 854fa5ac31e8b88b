package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"locsvc/internal/msg"
	"locsvc/internal/transport"
)

// The traced run wraps the network the deployment attaches to: every
// handler invocation becomes a span, and every outgoing Call, CallAsync
// and Send is timestamped on the sending node. Spans stay in memory and
// are written out at the end. Operations run one at a time, so every
// handler span that starts inside a client operation's window belongs to
// that operation, except the background types below, which are
// attributed to their own names only.

// backgroundTypes never belong to a client operation.
var backgroundTypes = map[string]bool{
	"ReplAppend": true, "ReplAck": true, "RunFetch": true, "RunFetchRes": true,
	"EventCount": true, "EventNotify": true, "Promote": true, "PromoteRes": true,
	"DiagReq": true, "EventSubscribe": true,
}

// span is one handler invocation. Times are nanoseconds since the tracer
// started; Op is the index of the operation it belongs to, or -1.
type span struct {
	Node  string `json:"node"`
	Type  string `json:"type"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Op    int    `json:"op"`
	Self  int64  `json:"self_ns"`
}

type interval struct{ s, e int64 }

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	calls map[string][]interval // blocking Call windows per node
	sends map[string][]int64    // Send / CallAsync times per node
	// callTimes holds the start of every Call and CallAsync (each is
	// answered by a reply message).
	callTimes []int64
	envs      map[string][]msg.Envelope
}

const maxEnvsPerType = 2000

func newTracer() *tracer {
	return &tracer{t0: time.Now(), calls: map[string][]interval{}, sends: map[string][]int64{}, envs: map[string][]msg.Envelope{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func typeName(m msg.Message) string { return reflect.TypeOf(m).Name() }

func (t *tracer) keep(from msg.NodeID, m msg.Message, reply bool) {
	if m == nil {
		return
	}
	name := typeName(m)
	if len(t.envs[name]) < maxEnvsPerType {
		t.envs[name] = append(t.envs[name], msg.Envelope{From: from, CorrID: uint64(len(t.envs[name]) + 1), Reply: reply, Msg: m})
	}
}

func (t *tracer) wrap(n transport.Network) transport.Network { return &tracedNet{inner: n, t: t} }

type tracedNet struct {
	inner transport.Network
	t     *tracer
}

func (tn *tracedNet) Attach(id msg.NodeID, h transport.Handler) (transport.Node, error) {
	t := tn.t
	wrapped := func(ctx context.Context, from msg.NodeID, m msg.Message) (msg.Message, error) {
		s := t.now()
		res, err := h(ctx, from, m)
		e := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{Node: string(id), Type: typeName(m), Start: s, End: e, Op: -1})
		t.keep(from, m, false)
		t.keep(id, res, true)
		t.mu.Unlock()
		return res, err
	}
	nd, err := tn.inner.Attach(id, wrapped)
	if err != nil {
		return nil, err
	}
	return &tracedNode{Node: nd, t: t}, nil
}

func (tn *tracedNet) Close() error { return tn.inner.Close() }

type tracedNode struct {
	transport.Node
	t *tracer
}

func (n *tracedNode) mark(async bool) {
	t := n.t
	now := t.now()
	t.mu.Lock()
	t.sends[string(n.ID())] = append(t.sends[string(n.ID())], now)
	if async {
		t.callTimes = append(t.callTimes, now)
	}
	t.mu.Unlock()
}

func (n *tracedNode) Send(to msg.NodeID, m msg.Message) error {
	n.mark(false)
	return n.Node.Send(to, m)
}

func (n *tracedNode) CallAsync(ctx context.Context, to msg.NodeID, m msg.Message) (*transport.PendingCall, error) {
	n.mark(true)
	return n.Node.CallAsync(ctx, to, m)
}

func (n *tracedNode) Call(ctx context.Context, to msg.NodeID, m msg.Message) (msg.Message, error) {
	t := n.t
	s := t.now()
	res, err := n.Node.Call(ctx, to, m)
	e := t.now()
	t.mu.Lock()
	t.calls[string(n.ID())] = append(t.calls[string(n.ID())], interval{s, e})
	t.callTimes = append(t.callTimes, s)
	t.mu.Unlock()
	return res, err
}

// selfIntervals returns the parts of a handler span in which its node
// was neither blocked in a Call nor waiting for out-of-band answers: the
// stretch from the handler's first send to the last message its node
// received before the handler returned.
// Every list it reads is sorted by start time.
func (t *tracer) selfIntervals(sp span, byNode map[string][]span) []interval {
	var blocked []interval
	calls := t.calls[sp.Node]
	for i := sort.Search(len(calls), func(i int) bool { return calls[i].s >= sp.Start }); i < len(calls) && calls[i].s < sp.End; i++ {
		blocked = append(blocked, interval{calls[i].s, min(calls[i].e, sp.End)})
	}
	sends := t.sends[sp.Node]
	i := sort.Search(len(sends), func(i int) bool { return sends[i] >= sp.Start })
	if i < len(sends) && sends[i] < sp.End {
		first := sends[i]
		ns := byNode[sp.Node]
		if k := sort.Search(len(ns), func(k int) bool { return ns[k].Start >= sp.End }) - 1; k >= 0 && ns[k].Start > first {
			blocked = append(blocked, interval{first, ns[k].Start})
		}
	}
	return subtract(interval{sp.Start, sp.End}, blocked)
}

// subtract removes the union of cuts from iv.
func subtract(iv interval, cuts []interval) []interval {
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].s < cuts[j].s })
	out := []interval{}
	cur := iv.s
	for _, c := range cuts {
		if c.s > cur {
			out = append(out, interval{cur, min(c.s, iv.e)})
		}
		cur = max(cur, c.e)
		if cur >= iv.e {
			break
		}
	}
	if cur < iv.e {
		out = append(out, interval{cur, iv.e})
	}
	return out
}

func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, cs, ce int64
	started := false
	for _, iv := range ivs {
		if !started || iv.s > ce {
			if started {
				total += ce - cs
			}
			cs, ce, started = iv.s, iv.e, true
		} else if iv.e > ce {
			ce = iv.e
		}
	}
	if started {
		total += ce - cs
	}
	return total
}

// opWindow is one serial operation as the serial loop timed it.
type opWindow struct {
	class string
	s, e  int64
	ok    bool
}

// breakdown attributes spans to operations and computes, per class, the
// mean client latency, the mean time some handler was busy on the
// operation's behalf and the remainder (transport wait: dispatch,
// goroutine hand-off and queueing), plus per message type self times.
type breakdown struct {
	latency, handler, wait map[string]float64 // class → mean µs
	msgs                   map[string]float64 // class → messages per op
	selfP50                map[string]float64 // type → p50 self µs
	count                  map[string]float64 // type → handler invocations per op
}

func (t *tracer) analyse(ops []opWindow) breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	var from, to int64
	if len(ops) > 0 {
		from, to = ops[0].s, ops[len(ops)-1].e
	}
	// Set-up spans belong to no operation: analyse the sequence only.
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	t.spans = t.spans[sort.Search(len(t.spans), func(i int) bool { return t.spans[i].Start >= from }):]
	for _, s := range t.sends {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	for _, c := range t.calls {
		sort.Slice(c, func(i, j int) bool { return c[i].s < c[j].s })
	}
	sort.Slice(t.callTimes, func(i, j int) bool { return t.callTimes[i] < t.callTimes[j] })
	byNode := map[string][]span{}
	for _, sp := range t.spans {
		byNode[sp.Node] = append(byNode[sp.Node], sp)
	}
	b := breakdown{latency: map[string]float64{}, handler: map[string]float64{}, wait: map[string]float64{},
		msgs: map[string]float64{}, selfP50: map[string]float64{}, count: map[string]float64{}}
	selfByType := map[string][]float64{}
	selfIvs := make([][]interval, len(t.spans))
	for i := range t.spans {
		selfIvs[i] = t.selfIntervals(t.spans[i], byNode)
		var n int64
		for _, iv := range selfIvs[i] {
			n += iv.e - iv.s
		}
		t.spans[i].Self = n
		if t.spans[i].Start <= to {
			selfByType[t.spans[i].Type] = append(selfByType[t.spans[i].Type], float64(n)/1e3)
		}
	}
	perClass := map[string]int{}
	j := 0
	for oi, op := range ops {
		for j < len(t.spans) && t.spans[j].Start < op.s {
			j++
		}
		var ivs []interval
		msgs := 0
		for k := j; k < len(t.spans) && t.spans[k].Start <= op.e; k++ {
			if backgroundTypes[t.spans[k].Type] {
				continue
			}
			t.spans[k].Op = oi
			msgs++
			for _, iv := range selfIvs[k] {
				ivs = append(ivs, interval{max(iv.s, op.s), min(iv.e, op.e)})
			}
		}
		lo := sort.Search(len(t.callTimes), func(i int) bool { return t.callTimes[i] >= op.s })
		hi := sort.Search(len(t.callTimes), func(i int) bool { return t.callTimes[i] > op.e })
		msgs += hi - lo // each call is answered by a reply
		if !op.ok {
			continue
		}
		lat := float64(op.e-op.s) / 1e3
		busy := float64(unionLen(ivs)) / 1e3
		b.latency[op.class] += lat
		b.handler[op.class] += busy
		b.wait[op.class] += lat - busy
		b.msgs[op.class] += float64(msgs)
		perClass[op.class]++
	}
	for c, n := range perClass {
		b.latency[c] /= float64(n)
		b.handler[c] /= float64(n)
		b.wait[c] /= float64(n)
		b.msgs[c] /= float64(n)
	}
	for typ, xs := range selfByType {
		sort.Float64s(xs)
		b.selfP50[typ] = quantile(xs, 0.5)
		b.count[typ] = float64(len(xs)) / float64(max(len(ops), 1))
	}
	return b
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// The serial traced run.

// serialRun deploys afresh (traced when tr is non-nil) and runs the
// seeded operation sequence one operation at a time.
func (sc *scenario) serialRun(rc runConfig, tr *tracer, n int) ([]opWindow, []plannedOp, *recorder, error) {
	var wrap wrapFunc
	if tr != nil {
		wrap = tr.wrap
	}
	rec := newRecorder()
	d, _, err := sc.setup(wrap, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	defer d.close()
	// Round r runs on client r mod the number of clients, as in the
	// timed window.
	plan := serialPlan(sc.planners(d, rc.seed), n)
	wins := make([]opWindow, 0, n)
	t0 := time.Now()
	for i, op := range plan {
		cl := d.clients[i/int(numOpKinds)%len(d.clients)]
		_, before := rec.totals()
		s := time.Since(t0)
		if tr != nil {
			s = time.Duration(tr.now())
		}
		agent := ""
		if op.o != nil && op.o.h != nil {
			agent = string(op.o.h.Agent())
		}
		exec(rec, d.w, cl, op)
		e := time.Since(t0)
		if tr != nil {
			e = time.Duration(tr.now())
		}
		class := opClass[op.kind]
		if op.kind == opUpdate || op.kind == opHandover {
			class = clsUpdate
			if string(op.o.h.Agent()) != agent {
				class = clsHandover
			}
		}
		_, after := rec.totals()
		wins = append(wins, opWindow{class: class, s: int64(s), e: int64(e), ok: after == before})
	}
	return wins, plan, rec, nil
}

// tracedRun runs the serial sequence untraced and traced, derives the
// per-class breakdown and the tracing overhead, and replays the recorded
// envelopes and store traffic through the codec and a standalone store.
func (sc *scenario) tracedRun(rc runConfig, rep *report) error {
	n := traceOps
	phase := time.Now()
	lap := func(what string) {
		rep.notes = append(rep.notes, fmt.Sprintf("%s took %v", what, time.Since(phase).Round(time.Millisecond)))
		phase = time.Now()
	}
	plainWins, _, plainRec, err := sc.serialRun(rc, nil, n)
	if err != nil {
		return fmt.Errorf("untraced serial run: %w", err)
	}
	lap("untraced serial run")
	tr := newTracer()
	wins, plan, tracedRec, err := sc.serialRun(rc, tr, n)
	if err != nil {
		return fmt.Errorf("traced serial run: %w", err)
	}
	lap("traced serial run")
	rep.rec.absorbFailures(plainRec)
	rep.rec.absorbFailures(tracedRec)
	b := tr.analyse(wins)
	meanLat := func(ws []opWindow) float64 {
		var sum float64
		var k int
		for _, w := range ws {
			if w.ok {
				sum += float64(w.e - w.s)
				k++
			}
		}
		return sum / float64(max(k, 1)) / 1e3
	}
	plain, traced := meanLat(plainWins), meanLat(wins)
	for _, c := range opClass {
		rep.addLayer("transport.msgs_per_op."+c, b.msgs[c], "count", "messages handled or replied per traced "+c)
		rep.addLayer("transport.wait_us."+c, b.wait[c], "us", "mean; latency minus handler busy time")
		rep.addLayer("server.handler_us."+c, b.handler[c], "us", "mean; union of handler self time")
		rep.addLayer("bench.traced_latency_us."+c, b.latency[c], "us", "mean client latency, serial traced run")
	}
	for _, m := range serverTypes {
		rep.addLayer("server.self_us."+m, b.selfP50[m], "us", "p50 self time per invocation")
		rep.addLayer("server.count."+m, b.count[m], "count", fmt.Sprintf("invocations per traced op (ops=%d)", len(wins)))
	}
	rep.addLayer("bench.tracing_overhead_pct", (traced-plain)/plain*100, "%",
		fmt.Sprintf("mean serial latency traced %.1f us vs untraced %.1f us", traced, plain))
	rep.spans = tr.spans
	lap("span analysis")
	replayWire(rep, tr)
	lap("codec replay")
	err = sc.replayStore(rep, plan)
	lap("store replay")
	return err
}

// serverTypes are the handler message types the breakdown reports.
var serverTypes = []string{
	"UpdateReq", "HandoverReq", "CreatePath", "RemovePath",
	"PosQueryReq", "PosQueryFwd", "PosQueryDirect",
	"RangeQueryReq", "RangeQueryFwd", "RangeQuerySubRes",
	"NeighborQueryReq",
}
