package cluster

import (
	"context"
	"net/http"
	"time"

	"gzkp/internal/telemetry"
)

// probeLoop is the coordinator's failure detector: every ProbeInterval it
// hits each node's /healthz and /readyz and scrapes /metrics. A failed
// probe — a dead HTTP stack, or a node that answers but is not ready
// (drained) — is a strike; strikes accumulate with mid-request transport
// failures toward eviction. Probing readiness, not just liveness,
// matters: a node that drained independently keeps serving /healthz 200
// while rejecting every prove with 503, and placement must stop
// choosing it. A successful probe clears strikes and rejoins a
// previously evicted node (processes restart; the ring should heal
// without operator action).
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	names := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, name := range names {
		c.probeOne(name)
	}
	c.publishProbeAges()
}

// publishProbeAges refreshes each node's last_probe_age_ms gauge: the time
// since its last successful probe round-trip. Healthy nodes hover near the
// probe interval; a node going quiet shows a climbing age well before the
// strike counter evicts it.
func (c *Coordinator) publishProbeAges() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, nd := range c.nodes {
		nd.gProbeAge.Set(float64(now.Sub(nd.lastProbeOK).Milliseconds()))
	}
}

// probeOne probes a single node, timing the full round-trip (health +
// readiness + metrics scrape) into the cluster.probe_ns histogram on
// success. Failed probes are not recorded there — they mostly measure the
// probe timeout, not the node — but they do push the node's probe age up.
func (c *Coordinator) probeOne(name string) {
	base := c.baseOf(name)
	if base == "" {
		return
	}
	c.cProbes.Add(1)
	c.mu.Lock()
	if nd := c.nodes[name]; nd != nil {
		nd.cProbes.Add(1)
	}
	c.mu.Unlock()

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.ProbeTimeout)
	defer cancel()
	var health struct {
		Status string `json:"status"`
	}
	if _, err := c.fwd.do(ctx, http.MethodGet, base+"/healthz", nil, &health); err != nil {
		c.probeFailed(name)
		return
	}
	// Alive is not enough: a draining node, or one whose prover is lost,
	// answers /healthz but sheds every job. fwd.do surfaces the 503 as an
	// error.
	if _, err := c.fwd.do(ctx, http.MethodGet, base+"/readyz", nil, nil); err != nil {
		c.probeFailed(name)
		return
	}
	var snap telemetry.Snapshot
	if _, err := c.fwd.do(ctx, http.MethodGet, base+"/metrics", nil, &snap); err != nil {
		c.probeFailed(name)
		return
	}
	depth := snap.Gauges["service.queue_depth"]
	c.hProbe.Record(time.Since(t0).Nanoseconds())

	c.mu.Lock()
	nd := c.nodes[name]
	rejoined := false
	if nd != nil {
		nd.strikes = 0
		nd.probed = true
		nd.queueDepth = depth
		nd.lastProbeOK = time.Now()
		if !nd.alive {
			nd.alive = true
			c.ring.add(name)
			rejoined = true
		}
	}
	alive := c.aliveLocked()
	c.mu.Unlock()
	if rejoined {
		c.cRejoins.Add(1)
		c.gNodesAlive.Set(float64(alive))
		c.events.Log(telemetry.LevelInfo, "cluster", "node_rejoined", map[string]any{
			"node": name, "nodes_alive": alive,
		})
		c.journalAppend(Entry{Kind: EntryNode, Node: &NodeRecord{Name: name, Alive: true}})
	}
}

func (c *Coordinator) probeFailed(name string) {
	c.cProbeFailures.Add(1)
	c.strike(name)
}
