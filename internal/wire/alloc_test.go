package wire

import (
	"testing"
	"time"

	"locsvc/internal/core"
	"locsvc/internal/geo"
	"locsvc/internal/msg"
)

// TestInternHitAllocatesNothing pins the intern table's contract: once an
// identifier is cached, re-interning it costs zero allocations (the
// conversion-for-comparison idiom the fast path relies on).
func TestInternHitAllocatesNothing(t *testing.T) {
	b := []byte("agent-r.0")
	warm := internBytes(b)
	if warm != "agent-r.0" {
		t.Fatalf("internBytes = %q", warm)
	}
	n := testing.AllocsPerRun(200, func() {
		if got := internBytes(b); got != "agent-r.0" {
			t.Fatalf("internBytes = %q", got)
		}
	})
	if n != 0 {
		t.Fatalf("interned lookup allocates %.1f objects/op, want 0", n)
	}
}

// TestInternOversizeAndEmpty pins the table's bounds: empty strings and
// identifiers beyond internMaxLen bypass the table but still decode
// correctly.
func TestInternOversizeAndEmpty(t *testing.T) {
	if got := internBytes(nil); got != "" {
		t.Fatalf("internBytes(nil) = %q", got)
	}
	long := make([]byte, internMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if got := internBytes(long); got != string(long) {
		t.Fatalf("oversize intern mangled the string")
	}
}

// TestDecodeAllocsPinned is the allocation-count regression test for the
// decode hot path: with From and the sighting OID interned, decoding the
// update-heavy workload's envelope costs exactly one allocation — the
// interface boxing of the payload struct. A regression that re-introduces
// per-identifier string copies fails this immediately.
func TestDecodeAllocsPinned(t *testing.T) {
	env := msg.Envelope{From: "obj-1", CorrID: 42, Msg: msg.UpdateReq{S: core.Sighting{
		OID: "truck-7", T: time.Unix(1_700_000_000, 0).UTC(), Pos: geo.Pt(123.5, 456.25), SensAcc: 10,
	}}}
	data, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the intern table so the measured runs hit it.
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 1
	n := testing.AllocsPerRun(500, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Fatalf("Decode(UpdateReq) allocates %.1f objects/op, want ≤ %d (identifier interning regressed?)", n, maxAllocs)
	}
}

// TestDecodeNeighborRouteAllocsPinned pins the decode cost of the routed
// nearest-neighbor messages, which every cross-leaf NN query pays on each
// hop: with the node and object identifiers interned, the forward decodes
// into the payload boxing alone, and the owner's answer adds only its
// slices (the near set and the leaf's area vertices).
func TestDecodeNeighborRouteAllocsPinned(t *testing.T) {
	cases := []struct {
		m         msg.Message
		maxAllocs float64
	}{
		{msg.NeighborQueryFwd{
			P: geo.Pt(1200, 300), ReqAcc: 10, NearQual: 5,
			Origin: msg.Origin{Node: "r.0", OpID: 11}, Hops: 1,
		}, 1},
		{msg.NeighborQuerySubRes{
			OpID: 11,
			Res: msg.NeighborQueryRes{
				Found:   true,
				Nearest: core.Entry{OID: "a", LD: core.LocationDescriptor{Pos: geo.Pt(1201, 301), Acc: 5}},
				Near:    []core.Entry{{OID: "b", LD: core.LocationDescriptor{Pos: geo.Pt(1203, 300), Acc: 5}}},
			},
			Leaf: msg.LeafInfo{ID: "r.1", Area: core.AreaFromRect(geo.R(750, 0, 1500, 750))},
			Hops: 3,
		}, 3},
	}
	for _, tc := range cases {
		data, err := Encode(msg.Envelope{From: "r.1", CorrID: 7, Msg: tc.m})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(500, func() {
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.maxAllocs {
			t.Errorf("Decode(%T) allocates %.1f objects/op, want ≤ %.0f", tc.m, n, tc.maxAllocs)
		}
	}
}
