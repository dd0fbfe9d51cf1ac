package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"gzkp/internal/telemetry"
)

// Metrics federation: GET /v1/cluster/metrics scrapes every live node's
// /metrics in one round and merges the results with the coordinator's own
// registry, so cluster-wide latency quantiles (queue wait, prove, e2e)
// come out of ONE scrape instead of N scrapes plus operator-side math.
// Histograms merge exactly — every service latency histogram uses the
// shared default bucket bounds, so bucket counts add — and quantiles are
// recomputed over the merged buckets, which is why the federated p99 is
// always bracketed by the per-node p99s rather than a lossy average.

// Federation is the structured (?format=json) view of one federated
// scrape: the merged cluster-wide snapshot, each node's raw snapshot, and
// any per-node scrape or merge errors (a dead node degrades the view, it
// never fails the scrape).
type Federation struct {
	// Cluster holds the coordinator's own metrics plus, for every metric
	// reported by a reachable node: counters summed, gauges summed, and
	// histograms bucket-merged with recomputed p50/p95/p99.
	Cluster telemetry.Snapshot `json:"cluster"`
	// Nodes holds each reachable node's unmerged snapshot (per-node
	// gauges like queue depth stay inspectable after the merge sums them).
	Nodes map[string]telemetry.Snapshot `json:"nodes"`
	// Errors records nodes that could not be scraped or metrics that
	// could not be merged, keyed by node name (or node/metric).
	Errors map[string]string `json:"errors,omitempty"`
}

// FederateMetrics runs one federated scrape: the coordinator's registry
// snapshot as the base, every alive node's /metrics fetched concurrently
// (each attempt bounded by ProbeTimeout), and the results merged. Nodes
// that fail to answer land in Errors; the merge never blocks on the dead.
func (c *Coordinator) FederateMetrics(ctx context.Context) Federation {
	fed := Federation{
		Cluster: c.reg.Snapshot(),
		Nodes:   map[string]telemetry.Snapshot{},
		Errors:  map[string]string{},
	}

	type target struct{ name, base string }
	c.mu.Lock()
	var targets []target
	for _, name := range c.order {
		if nd := c.nodes[name]; nd != nil && nd.alive {
			targets = append(targets, target{name: nd.name, base: nd.base})
		}
	}
	c.mu.Unlock()

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, t := range targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			defer cancel()
			var snap telemetry.Snapshot
			if _, err := c.fwd.do(sctx, http.MethodGet, t.base+"/metrics", nil, &snap); err != nil {
				mu.Lock()
				fed.Errors[t.name] = err.Error()
				mu.Unlock()
				return
			}
			mu.Lock()
			fed.Nodes[t.name] = snap
			mu.Unlock()
		}(t)
	}
	wg.Wait()

	// Merge deterministically (sorted node order) so repeated scrapes of
	// an idle cluster render byte-identical output.
	for _, name := range sortedNodeNames(fed.Nodes) {
		snap := fed.Nodes[name]
		for k, v := range snap.Counters {
			fed.Cluster.Counters[k] += v
		}
		for k, v := range snap.Gauges {
			fed.Cluster.Gauges[k] += v
		}
		for k, h := range snap.Histograms {
			merged, err := fed.Cluster.Histograms[k].Merge(h)
			if err != nil {
				// Bucket-bound mismatch: keep the coordinator's view of the
				// metric and record the skip rather than corrupt the merge.
				fed.Errors[name+"/"+k] = err.Error()
				continue
			}
			fed.Cluster.Histograms[k] = merged
		}
	}
	if len(fed.Errors) == 0 {
		fed.Errors = nil
	}
	return fed
}

func sortedNodeNames(m map[string]telemetry.Snapshot) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders the federation as Prometheus text exposition:
// merged counters and histograms unlabeled (they are cluster-wide sums),
// and each gauge family as the cluster-wide sum followed by one
// {node="..."} sample per reporting node — per-node queue depth and
// inflight count stay one scrape away without a second endpoint.
func (f Federation) WritePrometheus(w io.Writer) error {
	pw := telemetry.NewPromWriter(w)
	for _, name := range sortedKeys(f.Cluster.Counters) {
		pw.Counter(name, nil, f.Cluster.Counters[name])
	}
	nodeNames := sortedNodeNames(f.Nodes)
	for _, name := range sortedKeys(f.Cluster.Gauges) {
		pw.Gauge(name, nil, f.Cluster.Gauges[name])
		// Per-node samples must stay adjacent to their family's unlabeled
		// sample: the exposition format groups samples by family.
		for _, nn := range nodeNames {
			if v, ok := f.Nodes[nn].Gauges[name]; ok {
				pw.Gauge(name, map[string]string{"node": nn}, v)
			}
		}
	}
	for _, name := range sortedKeys(f.Cluster.Histograms) {
		pw.Histogram(name, nil, f.Cluster.Histograms[name])
	}
	for _, key := range sortedKeys(f.Errors) {
		pw.Gauge("cluster.federation_errors", map[string]string{"target": key}, 1)
	}
	if err := pw.Err(); err != nil {
		return fmt.Errorf("cluster: write federation: %w", err)
	}
	return nil
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// exposition output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
