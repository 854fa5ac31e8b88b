package main

import (
	"time"

	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// lsd-udp: the paper's topology over loopback UDP with the options
// cmd/lsd builds from its default flags (batching off, breakers at 3,
// caches on, TTL 5 min), about 2 000 objects, and one client socket.
const luObjects = 2000

// lsdDefaultsConfig mirrors cmd/lsd's defaults: -acc 10, -ttl 5m,
// -caches true, -shards 1, -batch-max 1, -breaker-threshold 3,
// -breaker-cooldown 1s.
func lsdDefaultsConfig() deployConfig {
	return deployConfig{
		area:   geo.R(0, 0, pmSide, pmSide),
		levels: []hierarchy.Level{{Rows: 2, Cols: 2}},
		base: server.Options{
			AchievableAcc:    10,
			SightingTTL:      5 * time.Minute,
			Shards:           1,
			EnableAreaCache:  true,
			EnableAgentCache: true,
			EnablePosCache:   true,
		},
		udp: true,
		udpOpts: transport.UDPOptions{
			BatchMax:         1,
			BatchLinger:      time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Second,
		},
	}
}

func runLSDUDP(rc runConfig) (*report, error) {
	cfg := lsdDefaultsConfig()
	cells := cfg.area.SplitGrid(2, 2)
	sc := &scenario{
		name: "lu", cfg: cfg, positions: uniformPositions(rc.seed, cfg.area, luObjects),
		entries:    []geo.Point{cells[0].Center()},
		regClients: []int{0, 0},
	}
	return sc.run(rc)
}
