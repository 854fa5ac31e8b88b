package main

import (
	"context"
	"fmt"
	"time"

	"locsvc/internal/client"
	"locsvc/internal/geo"
	"locsvc/internal/hierarchy"
	"locsvc/internal/metrics"
	"locsvc/internal/msg"
	"locsvc/internal/server"
	"locsvc/internal/transport"
)

// deployConfig describes one deployment. In-process deployments get the
// server options locsvc.NewLocal derives from its LocalConfig; UDP ones
// the options cmd/lsd derives from its default flags.
type deployConfig struct {
	area   geo.Rect
	levels []hierarchy.Level
	base   server.Options

	udp     bool
	udpOpts transport.UDPOptions
}

// cluster is one running deployment on a network the benchmark owns.
type cluster struct {
	net     transport.Network
	netReg  *metrics.Registry
	dep     *hierarchy.Deployment
	clients []*client.Client
}

// deploy starts a deployment. wrap, when non-nil, decorates the network
// before any node attaches (the traced run's span recorder).
func deploy(cfg deployConfig, wrap func(transport.Network) transport.Network) (*cluster, error) {
	c := &cluster{netReg: metrics.NewRegistry()}
	var raw transport.Network
	if cfg.udp {
		o := cfg.udpOpts
		o.Metrics = c.netReg
		raw = transport.NewUDPWithOptions(o)
	} else {
		raw = transport.NewInproc(transport.InprocOptions{Metrics: c.netReg})
	}
	c.net = raw
	if wrap != nil {
		c.net = wrap(raw)
	}
	spec := hierarchy.Spec{RootArea: cfg.area, Levels: cfg.levels}
	dep, err := hierarchy.DeployWith(c.net, spec, cfg.base, nil)
	if err != nil {
		c.net.Close()
		return nil, err
	}
	c.dep = dep
	return c, nil
}

// newClient attaches a client whose entry is the leaf covering p.
func (c *cluster) newClient(id string, p geo.Point) (*client.Client, error) {
	entry, ok := c.dep.LeafFor(p)
	if !ok {
		return nil, fmt.Errorf("%v outside the service area", p)
	}
	cl, err := client.New(c.net, msg.NodeID(id), entry, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		return nil, err
	}
	c.clients = append(c.clients, cl)
	return cl, nil
}

// close stops clients, servers and the network, in that order.
func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.dep != nil {
		c.dep.Close()
	}
	c.net.Close()
}

// servers lists every server.
func (c *cluster) servers() []*server.Server {
	out := make([]*server.Server, 0, len(c.dep.Servers))
	for _, s := range c.dep.Servers {
		out = append(out, s)
	}
	return out
}

func (c *cluster) root() *server.Server { return c.dep.Servers["r"] }

// counters sums every server's registry and the network's.
func (c *cluster) counters() counterSet {
	out := counterSet{}
	for _, s := range c.servers() {
		out.sum(readRegistry(s.Metrics()))
	}
	out.sum(readRegistry(c.netReg))
	return out
}

// waitPaths blocks until the root holds a forwarding path for n objects.
func (c *cluster) waitPaths(ctx context.Context, n int) error {
	for c.root().VisitorCount() < n {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %d forwarding paths at the root (have %d): %w",
				n, c.root().VisitorCount(), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// diag collects every leaf's diagnostics snapshot through cl.
func (c *cluster) diag(ctx context.Context, cl *client.Client) ([]msg.DiagRes, error) {
	entry := cl.Entry()
	defer cl.SetEntry(entry)
	var out []msg.DiagRes
	for _, id := range c.dep.Leaves() {
		cl.SetEntry(id)
		d, err := cl.Diag(ctx)
		if err != nil {
			return nil, fmt.Errorf("diag %s: %w", id, err)
		}
		out = append(out, d)
	}
	return out, nil
}
