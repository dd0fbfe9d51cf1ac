package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// startTracedNodes is startNodes with a per-node tracer attached, so
// node-side spans (queue wait, prove stages) record under each node's
// own process timeline for stitching.
func startTracedNodes(t *testing.T, count int) ([]*testNode, []NodeSpec, []*telemetry.Tracer) {
	t.Helper()
	var nodes []*testNode
	var specs []NodeSpec
	var tracers []*telemetry.Tracer
	for i := 0; i < count; i++ {
		cfg := fastNodeConfig()
		tr := telemetry.New()
		cfg.Tracer = tr
		svc := service.New(cfg)
		srv := httptest.NewServer(service.NewHandler(svc))
		n := &testNode{name: fmt.Sprintf("node-%d", i), svc: svc, srv: srv}
		nodes = append(nodes, n)
		specs = append(specs, NodeSpec{Name: n.name, URL: srv.URL})
		tracers = append(tracers, tr)
		t.Cleanup(func() {
			n.srv.Close()
			n.svc.Close()
		})
	}
	return nodes, specs, tracers
}

// tracerHasTrace reports whether any recorded span carries the trace id
// as its trace_id attribute — the cross-process join key the stitcher
// uses.
func tracerHasTrace(tr *telemetry.Tracer, traceID string) bool {
	for _, s := range tr.Spans() {
		for _, a := range s.Attrs {
			if a.Key == telemetry.TraceIDAttr && !a.IsInt && a.Str == traceID {
				return true
			}
		}
	}
	return false
}

// TestClusterObservabilityFailoverTrace is the PR's acceptance e2e: a
// two-coordinator replica group over three traced nodes, a node killed
// mid-load. One migrated job's trace id must link the coordinator-side
// spans with node-side spans on BOTH hops (the dead node and the
// survivor that re-ran it) in the stitched Chrome trace, the federated
// e2e p99 must be bracketed by the per-node p99s, and the control-plane
// event log must narrate the eviction and migration.
func TestClusterObservabilityFailoverTrace(t *testing.T) {
	nodes, specs, nodeTracers := startTracedNodes(t, 3)
	events := telemetry.NewEventLog(512, telemetry.LevelDebug)
	coordTracers := map[string]*telemetry.Tracer{}
	reps := startReplicaGroup(t, []string{"coordA", "coordB"}, specs, func(cfg *ReplicaConfig) {
		tr := telemetry.New()
		coordTracers[cfg.Self] = tr
		cfg.Cluster.Tracer = tr
		cfg.Cluster.Events = events
		// This test fails a NODE, not a coordinator: pin the lease wide
		// open so the migration storm after the kill can't starve
		// heartbeats and flap the leadership mid-assertion.
		cfg.LeaseInterval = 50 * time.Millisecond
		cfg.LeaseTTL = 10 * time.Second
		// Every node holds the circuit so both survivors serve jobs and
		// show up in the federated e2e distribution.
		cfg.Cluster.Replicas = 3
	})
	a := reps[0]

	waitFor(t, 5*time.Second, "initial leader", func() bool { return a.rep.Role() == RoleLeader })
	coord := a.rep.Coordinator()
	info, err := coord.Register(slowCubicSpec(1024))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	// Non-primary key imports are async: wait until every node holds the
	// circuit so placement spreads the load and both survivors end up
	// with e2e data for the federation envelope below.
	waitFor(t, 10*time.Second, "key replication to all nodes", func() bool {
		for _, ns := range coord.Nodes() {
			if ns.Circuits == 0 {
				return false
			}
		}
		return true
	})

	const jobs = 24
	var accepted []*Job
	for i := 0; i < jobs; i++ {
		j, err := coord.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if j.TraceID == "" {
			t.Fatalf("job %s admitted without a trace id", j.ID)
		}
		accepted = append(accepted, j)
	}

	// Kill a node that has provably STARTED a still-unfinished job — its
	// tracer already holds a span annotated with that job's trace id, so
	// the first hop is on record. A coordinator-side inflight count is
	// not enough: a forward can be outstanding before the node admitted
	// anything, and killing then leaves the victim with zero spans.
	var doomed *testNode
	waitFor(t, 20*time.Second, "a node to start a still-inflight job", func() bool {
		for i, tr := range nodeTracers {
			for _, j := range accepted {
				select {
				case <-j.Done():
					continue
				default:
				}
				if tracerHasTrace(tr, j.TraceID) {
					doomed = nodes[i]
					return true
				}
			}
		}
		return false
	})
	doomed.kill()
	t.Logf("killed %s mid-load", doomed.name)

	for i, j := range accepted {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d (%s) never reached a terminal state", i, j.ID)
		}
	}
	var migrated []*Job
	for i, j := range accepted {
		if st := j.State(); st != service.JobDone {
			t.Fatalf("job %d (%s) state %v, want done", i, j.ID, st)
		}
		st := j.Status()
		if st.TraceID != j.TraceID {
			t.Fatalf("job %s status trace id %q, want %q", j.ID, st.TraceID, j.TraceID)
		}
		verifyProof(t, info.VerifyingKey, st.Proof)
		if st.Migrations > 0 {
			migrated = append(migrated, j)
		}
	}
	if len(migrated) == 0 {
		t.Fatal("killed a node with in-flight work but no job migrated")
	}

	// Find a migrated job whose trace id shows node-side spans on two
	// distinct nodes. The victim's service keeps running after the
	// listener dies (only the coordinator's connection broke), so its
	// span for the first hop may land shortly after the kill.
	var traced *Job
	waitFor(t, 10*time.Second, "a migrated job with spans on both hops", func() bool {
		for _, j := range migrated {
			hops := 0
			for _, tr := range nodeTracers {
				if tracerHasTrace(tr, j.TraceID) {
					hops++
				}
			}
			if hops >= 2 {
				traced = j
				return true
			}
		}
		return false
	})
	if !tracerHasTrace(coordTracers["coordA"], traced.TraceID) {
		t.Fatalf("coordinator tracer has no spans for trace %s", traced.TraceID)
	}

	// Stitch all four processes and keep only the migrated job's trace:
	// its spans must appear under the coordinator's pid AND at least two
	// distinct node pids — the track switch that makes a migration
	// visible in Perfetto.
	inputs := make([]telemetry.TraceInput, 0, 4)
	var coordBuf bytes.Buffer
	if err := coordTracers["coordA"].WriteJSONL(&coordBuf); err != nil {
		t.Fatalf("coordinator WriteJSONL: %v", err)
	}
	inputs = append(inputs, telemetry.TraceInput{Name: "coordA", R: &coordBuf})
	for i, tr := range nodeTracers {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("node %d WriteJSONL: %v", i, err)
		}
		inputs = append(inputs, telemetry.TraceInput{Name: nodes[i].name, R: &buf})
	}
	var stitched bytes.Buffer
	if err := telemetry.StitchJSONL(&stitched, inputs, traced.TraceID); err != nil {
		t.Fatalf("stitch: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(stitched.Bytes(), &tf); err != nil {
		t.Fatalf("stitched trace does not parse: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.PID] = true
		}
	}
	// pid 1 is the coordinator input; pids 2..4 are the nodes.
	if !pids[1] {
		t.Fatalf("stitched trace %s has no coordinator-side spans (pids %v)", traced.TraceID, pids)
	}
	nodePids := 0
	for pid := range pids {
		if pid > 1 {
			nodePids++
		}
	}
	if nodePids < 2 {
		t.Fatalf("stitched trace %s shows %d node hops, want both (pids %v)", traced.TraceID, nodePids, pids)
	}

	// Federated metrics: after the corpse is evicted, one scrape of the
	// survivors must yield a merged e2e distribution whose p99 is
	// bracketed by the per-node p99s (exact bucket merge, not an average).
	waitFor(t, 10*time.Second, "dead node eviction", func() bool { return coord.NodesAlive() == 2 })
	fed := coord.FederateMetrics(context.Background())
	if len(fed.Nodes) != 2 {
		t.Fatalf("federated %d nodes, want the 2 survivors (errors: %v)", len(fed.Nodes), fed.Errors)
	}
	merged, ok := fed.Cluster.Histograms["service.e2e_ns"]
	if !ok || merged.Count == 0 {
		t.Fatalf("federated snapshot has no merged service.e2e_ns histogram: %+v", fed.Cluster.Histograms)
	}
	var sum int64
	minP99, maxP99 := int64(0), int64(0)
	first := true
	for name, snap := range fed.Nodes {
		h, ok := snap.Histograms["service.e2e_ns"]
		if !ok || h.Count == 0 {
			t.Fatalf("surviving node %s reported no e2e histogram", name)
		}
		sum += h.Count
		if first || h.P99 < minP99 {
			minP99 = h.P99
		}
		if first || h.P99 > maxP99 {
			maxP99 = h.P99
		}
		first = false
	}
	if merged.Count != sum {
		t.Fatalf("merged e2e count %d, want sum of node counts %d", merged.Count, sum)
	}
	if merged.P99 < minP99 || merged.P99 > maxP99 {
		t.Fatalf("federated e2e p99 %d outside per-node range [%d, %d]", merged.P99, minP99, maxP99)
	}

	// The control-plane event log narrates the run: admission, the
	// initial promotion, the eviction, and the migration all appear.
	seen := map[string]bool{}
	for _, ev := range events.Recent(0) {
		seen[ev.Event] = true
	}
	for _, want := range []string{"promoted", "circuit_registered", "job_accepted", "node_evicted", "job_migrated"} {
		if !seen[want] {
			t.Fatalf("event log missing %q (saw %v)", want, seen)
		}
	}
}

// TestFederateMetrics exercises one federated scrape of a healthy
// cluster: counters sum, histograms bucket-merge with bracketed
// quantiles, and both wire formats of GET /v1/cluster/metrics render.
func TestFederateMetrics(t *testing.T) {
	c, nodes := startCluster(t, 3, func(cfg *Config) {
		cfg.Events = telemetry.NewEventLog(64, telemetry.LevelDebug)
	})
	info, err := c.Register(cubicSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	const jobs = 9
	var accepted []*Job
	for i := 0; i < jobs; i++ {
		j, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted = append(accepted, j)
	}
	for _, j := range accepted {
		<-j.Done()
	}

	fed := c.FederateMetrics(context.Background())
	if fed.Errors != nil {
		t.Fatalf("healthy-cluster federation reported errors: %v", fed.Errors)
	}
	if len(fed.Nodes) != 3 {
		t.Fatalf("federated %d nodes, want 3", len(fed.Nodes))
	}

	// Counters sum across nodes and the coordinator's own books.
	var nodeAccepted int64
	for _, n := range nodes {
		nodeAccepted += n.svc.Registry().Counter("service.jobs.accepted").Value()
	}
	if got := fed.Cluster.Counters["service.jobs.accepted"]; got != nodeAccepted || got != jobs {
		t.Fatalf("merged service.jobs.accepted = %d, want %d (= node sum %d)", got, jobs, nodeAccepted)
	}
	if got := fed.Cluster.Counters["cluster.jobs.done"]; got != jobs {
		t.Fatalf("merged cluster.jobs.done = %d, want %d", got, jobs)
	}

	// Histograms merge exactly: counts add, p99 stays within the
	// per-node envelope.
	for _, name := range []string{"service.queue_wait_ns", "service.prove_ns", "service.e2e_ns"} {
		merged := fed.Cluster.Histograms[name]
		var sum int64
		minP99, maxP99 := int64(0), int64(0)
		first := true
		for _, snap := range fed.Nodes {
			h := snap.Histograms[name]
			sum += h.Count
			if h.Count == 0 {
				continue
			}
			if first || h.P99 < minP99 {
				minP99 = h.P99
			}
			if first || h.P99 > maxP99 {
				maxP99 = h.P99
			}
			first = false
		}
		if merged.Count != sum || sum != jobs {
			t.Fatalf("%s: merged count %d, node sum %d, want %d", name, merged.Count, sum, jobs)
		}
		if merged.P99 < minP99 || merged.P99 > maxP99 {
			t.Fatalf("%s: merged p99 %d outside [%d, %d]", name, merged.P99, minP99, maxP99)
		}
	}

	// The probe satellite: round-trips recorded, per-node freshness
	// gauges published.
	if c.Registry().Histogram("cluster.probe_ns").Count() == 0 {
		t.Fatal("no probe round-trips recorded in cluster.probe_ns")
	}
	for _, n := range nodes {
		gauge := "cluster.node." + n.name + ".last_probe_age_ms"
		if _, ok := fed.Cluster.Gauges[gauge]; !ok {
			t.Fatalf("federated snapshot missing %s", gauge)
		}
	}

	// Prometheus exposition: one TYPE line per family, labeled per-node
	// samples adjacent to their family, parseable line grammar.
	var buf bytes.Buffer
	if err := fed.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	checkPromText(t, buf.String())
	for _, want := range []string{
		fmt.Sprintf("gzkp_service_e2e_ns_count %d\n", jobs),
		`gzkp_service_queue_depth{node="node-0"}`,
		`gzkp_service_queue_depth{node="node-2"}`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}

	// The HTTP surface: Prometheus text by default, the structured
	// Federation under ?format=json, and the event log endpoint.
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != telemetry.PromContentType {
		t.Fatalf("GET /v1/cluster/metrics = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	checkPromText(t, string(body))

	resp, err = http.Get(srv.URL + "/v1/cluster/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var jfed Federation
	if err := json.NewDecoder(resp.Body).Decode(&jfed); err != nil {
		t.Fatalf("json federation decode: %v", err)
	}
	resp.Body.Close()
	if jfed.Cluster.Histograms["service.e2e_ns"].Count != jobs || len(jfed.Nodes) != 3 {
		t.Fatalf("json federation: e2e count %d nodes %d", jfed.Cluster.Histograms["service.e2e_ns"].Count, len(jfed.Nodes))
	}

	resp, err = http.Get(srv.URL + "/v1/cluster/events?since=0")
	if err != nil {
		t.Fatal(err)
	}
	var evs service.EventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	resp.Body.Close()
	if len(evs.Events) == 0 {
		t.Fatal("GET /v1/cluster/events returned no events")
	}
	names := map[string]bool{}
	for _, ev := range evs.Events {
		names[ev.Event] = true
	}
	if !names["circuit_registered"] || !names["job_accepted"] {
		t.Fatalf("event endpoint missing lifecycle events: %v", names)
	}
}

// checkPromText validates the exposition grammar: every line is a
// comment or `name[{labels}] value`, and no family's TYPE line repeats
// (per-node samples must stay inside their family block).
func checkPromText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if typed[fields[2]] {
				t.Fatalf("family %s declared twice (split family block)", fields[2])
			}
			typed[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// name{...} value | name value
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:cut]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label block in %q", line)
			}
			name = name[:i]
		}
		if !strings.HasPrefix(name, "gzkp_") {
			t.Fatalf("sample %q outside the gzkp_ namespace", line)
		}
	}
	if len(typed) == 0 {
		t.Fatal("no metric families in exposition output")
	}
}

// TestJournalGauges: the journal publishes its size (entry count and
// encoded bytes) so growth — and terminal compaction shrinking it — is
// observable without a debugger.
func TestJournalGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	jl := NewJournal(reg)
	entries := reg.Gauge("cluster.journal_entries")
	bytesG := reg.Gauge("cluster.journal_bytes")
	if entries.Value() != 0 || bytesG.Value() != 0 {
		t.Fatalf("fresh journal gauges = %v/%v", entries.Value(), bytesG.Value())
	}

	jl.Append(acceptedEntry("j1", "c1"))
	jl.Append(acceptedEntry("j2", "c1"))
	if got := entries.Value(); got != 2 {
		t.Fatalf("journal_entries = %v, want 2", got)
	}
	grown := bytesG.Value()
	if grown <= 0 {
		t.Fatalf("journal_bytes = %v after appends, want > 0", grown)
	}

	// Terminal compaction strips j1's inputs: the entry count rises by
	// one but the byte gauge must reflect the compacted encoding.
	jl.Append(jobEvent("j1", JobEventDone, ""))
	if got := entries.Value(); got != 3 {
		t.Fatalf("journal_entries after terminal event = %v, want 3", got)
	}
	var exact int
	for _, e := range jl.Since(0, 0, 0) {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		exact += len(b)
	}
	if got := bytesG.Value(); got != float64(exact) {
		t.Fatalf("journal_bytes = %v, want exact encoded size %d", got, exact)
	}
}
