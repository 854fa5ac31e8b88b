package main

import (
	"math/rand"

	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
)

// paper-mix: the paper's testbed — root plus 2×2 leaves over 1.5 km²,
// 10 000 uniformly placed objects, LocalConfig defaults (single-lock
// in-memory store, caches off), two clients entering at diagonally
// opposite leaves (r.0 and r.3).
const (
	pmObjects = 10000
	pmSide    = 1500.0
)

func paperMixConfig() deployConfig {
	return deployConfig{
		area:   geo.R(0, 0, pmSide, pmSide),
		levels: []hierarchy.Level{{Rows: 2, Cols: 2}},
		base:   server.Options{Shards: 1},
	}
}

// uniformPositions places n objects uniformly.
func uniformPositions(seed int64, area geo.Rect, n int) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = uniformIn(rng, area, 0)
	}
	return out
}

func runPaperMix(rc runConfig) (*report, error) {
	cfg := paperMixConfig()
	cells := cfg.area.SplitGrid(2, 2)
	sc := &scenario{
		name: "pm", cfg: cfg, positions: uniformPositions(rc.seed, cfg.area, pmObjects),
		entries:    []geo.Point{cells[0].Center(), cells[3].Center()},
		regClients: []int{0, 1},
	}
	return sc.run(rc)
}
