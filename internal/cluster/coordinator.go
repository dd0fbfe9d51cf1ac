// Package cluster lifts the single-node proving service to a multi-node
// system: a coordinator fronts N gzkp-serve nodes over the same stdlib
// JSON API, places circuits on a consistent-hash ring (replicated so one
// node loss never cold-starts a circuit), probes node health and evicts
// the dead, migrates in-flight and queued jobs off lost nodes, and
// drains the whole cluster into one merged, restorable checkpoint.
//
// A node is the unit of failure: a node that cannot be reached (refused,
// reset or hung-up connections) classifies as DeviceLost, takes a strike
// and has its work migrated to another replica; a node that answers but is
// not ready fails its readiness probe. The coordinator reuses the service's
// checkpoint format and the resilience classes, so every layer of the
// system speaks one recovery vocabulary.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"gzkp/internal/resilience"
	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// NodeSpec names one prover node at construction.
type NodeSpec struct {
	Name string `json:"name"` // stable identity (checkpoint namespace, metrics)
	URL  string `json:"url"`  // base URL of the node's service API
}

// Config sizes and wires one Coordinator. Zero values take defaults.
type Config struct {
	// ID names this coordinator replica; when set, cluster job ids are
	// namespaced cj-<ID>-<seq> so ids stay unique across leader changes.
	ID string
	// Journal, when set, receives every placement and job lifecycle event
	// for replication to standby coordinators (see Replica).
	Journal *Journal
	// Nodes is the initial membership (at least one).
	Nodes []NodeSpec
	// Replicas is how many nodes hold each circuit's proving key
	// (default 2: one loss never cold-starts a circuit).
	Replicas int
	// MaxInflight bounds accepted-but-unfinished cluster jobs — the
	// coordinator's admission control (default 64 per node).
	MaxInflight int
	// ProbeInterval paces the health prober (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe attempt (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive strikes (failed probes or
	// mid-request transport failures) evict a node (default 3).
	FailThreshold int
	// ControlTimeout bounds one control call — register, key transfer,
	// export (default 2m: registration runs a trusted setup node-side).
	ControlTimeout time.Duration
	// NodeDrainTimeout is the per-node drain budget during a cluster
	// drain (default 30s); the drain context's remaining budget caps it.
	NodeDrainTimeout time.Duration
	// Retry shapes transient-failure retries (backoff base/cap, attempts);
	// delays are full-jitter over the policy's backoff curve.
	Retry resilience.Policy
	// Registry receives the cluster counters, gauges and the
	// cluster_forward latency histogram (default: fresh).
	Registry *telemetry.Registry
	// Tracer, when set, records coordinator-side spans for every cluster
	// job (cluster.job root span, per-attempt forward spans) under the
	// job's cluster-wide trace id. Nil disables tracing.
	Tracer *telemetry.Tracer
	// Events, when set, receives structured control-plane events —
	// admission, eviction, rejoin, migration, redrive, drain, restore —
	// served at GET /v1/cluster/events. Nil disables event logging.
	Events *telemetry.EventLog
	// Client is the HTTP client for node traffic (default: no timeout —
	// proves are long; per-attempt bounds come from the timeouts above).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas < 1 {
		c.Replicas = 2
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 64 * len(c.Nodes)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	if c.ControlTimeout <= 0 {
		c.ControlTimeout = 2 * time.Minute
	}
	if c.NodeDrainTimeout <= 0 {
		c.NodeDrainTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// node is the coordinator's view of one prover. All fields are guarded by
// the coordinator mutex; the telemetry handles are internally atomic.
type node struct {
	name  string
	base  string
	alive bool
	// strikes counts consecutive failures (probe or mid-request); reset on
	// any success, eviction at the threshold.
	strikes int
	// queueDepth mirrors the node's own gauge, refreshed by the prober's
	// /metrics scrape; placement prefers shallow queues.
	queueDepth float64
	probed     bool // at least one successful metrics scrape
	inflight   int  // coordinator-side forwards outstanding
	circuits   map[string]bool
	// lastProbeOK is when the last successful probe round-trip finished;
	// the prober publishes its age as cluster.node.<name>.last_probe_age_ms
	// so dashboards spot a node going quiet before eviction fires.
	lastProbeOK time.Time

	cForwarded, cProbes, cFailures *telemetry.Counter
	gProbeAge                      *telemetry.Gauge
}

// circuit is a cluster-registered circuit: the spec (to re-register), the
// registration info (to answer clients), and the exported key bundle (to
// replicate onto survivors without a cold setup).
type circuit struct {
	id   string
	spec service.CircuitSpec
	info *service.CircuitInfo
	keys *service.KeyBundle
}

// Coordinator fronts the cluster. Construct with New, serve with
// NewHandler, stop with Drain + Close.
type Coordinator struct {
	cfg    Config
	reg    *telemetry.Registry
	tracer *telemetry.Tracer   // nil-safe: zero spans when unset
	events *telemetry.EventLog // nil-safe: Log is a no-op when unset
	fwd    *forwarder
	ctx    context.Context // canceled by Close: unblocks every forward
	cancel context.CancelFunc
	wg     sync.WaitGroup // prober + job goroutines

	mu        sync.Mutex
	idle      *sync.Cond // admitted == 0, for Drain
	nodes     map[string]*node
	order     []string // construction order, for stable display
	ring      *ring
	circuits  map[string]*circuit
	jobs      map[string]*Job
	restored  map[string]bool
	jobSeq    uint64
	admitted  int
	accepting bool
	// journal mirrors cfg.Journal but is detachable: a deposed leader
	// detaches before closing so its dying goroutines cannot append to a
	// log that now belongs to the new leader's history.
	journal *Journal
	// pendingRepl tracks in-flight async key replications (circuit/node),
	// both for the gauge and to dedupe re-enqueues.
	pendingRepl map[string]bool

	replCh chan replTask

	cAccepted, cRejected, cDone, cFailed *telemetry.Counter
	cCheckpointed, cMigrated             *telemetry.Counter
	cProbes, cProbeFailures              *telemetry.Counter
	cEvictions, cRejoins                 *telemetry.Counter
	cRegistered, cReregistered           *telemetry.Counter
	cRedriven, cReplicated               *telemetry.Counter
	gNodesAlive, gInflight               *telemetry.Gauge
	gReplPending                         *telemetry.Gauge
	hProbe                               *telemetry.Histogram // cluster.probe_ns round-trip latency
}

// New builds the coordinator and starts its health prober.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: need at least one node")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg: cfg, reg: cfg.Registry,
		tracer: cfg.Tracer, events: cfg.Events,
		ctx: ctx, cancel: cancel,
		nodes:       map[string]*node{},
		ring:        newRing(0),
		circuits:    map[string]*circuit{},
		jobs:        map[string]*Job{},
		restored:    map[string]bool{},
		accepting:   true,
		journal:     cfg.Journal,
		pendingRepl: map[string]bool{},
		replCh:      make(chan replTask, 256),
	}
	c.idle = sync.NewCond(&c.mu)
	r := c.reg
	c.cAccepted = r.Counter("cluster.jobs.accepted")
	c.cRejected = r.Counter("cluster.jobs.rejected")
	c.cDone = r.Counter("cluster.jobs.done")
	c.cFailed = r.Counter("cluster.jobs.failed")
	c.cCheckpointed = r.Counter("cluster.jobs.checkpointed")
	c.cMigrated = r.Counter("cluster.jobs.migrated")
	c.cProbes = r.Counter("cluster.probes")
	c.cProbeFailures = r.Counter("cluster.probe_failures")
	c.cEvictions = r.Counter("cluster.evictions")
	c.cRejoins = r.Counter("cluster.rejoins")
	c.cRegistered = r.Counter("cluster.circuits.registered")
	c.cReregistered = r.Counter("cluster.circuits.reregistered")
	c.cRedriven = r.Counter("cluster.jobs.redriven")
	c.cReplicated = r.Counter("cluster.circuits.replicated")
	c.gNodesAlive = r.Gauge("cluster.nodes_alive")
	c.gInflight = r.Gauge("cluster.inflight")
	c.gReplPending = r.Gauge("cluster.replication_pending")
	c.hProbe = r.Histogram("cluster.probe_ns")
	for _, ns := range cfg.Nodes {
		name := ns.Name
		if name == "" {
			name = ns.URL
			if u, err := url.Parse(ns.URL); err == nil && u.Host != "" {
				name = u.Host
			}
		}
		if _, dup := c.nodes[name]; dup {
			cancel()
			return nil, fmt.Errorf("cluster: duplicate node name %q", name)
		}
		c.nodes[name] = &node{
			name: name, base: ns.URL, alive: true,
			circuits:    map[string]bool{},
			lastProbeOK: time.Now(),
			cForwarded:  r.Counter("cluster.node." + name + ".forwarded"),
			cProbes:     r.Counter("cluster.node." + name + ".probes"),
			cFailures:   r.Counter("cluster.node." + name + ".failures"),
			gProbeAge:   r.Gauge("cluster.node." + name + ".last_probe_age_ms"),
		}
		c.order = append(c.order, name)
		c.ring.add(name)
	}
	c.fwd = &forwarder{
		client: cfg.Client, policy: cfg.Retry, timeout: cfg.ControlTimeout,
		hForward:  r.Histogram("cluster.cluster_forward_ns"),
		cForwards: r.Counter("cluster.forwarded"),
	}
	c.gNodesAlive.Set(float64(len(c.nodes)))
	c.wg.Add(2)
	go c.probeLoop()
	go c.replicatorLoop()
	return c, nil
}

// journalAppend records one entry unless the journal was detached (a
// deposed leader's goroutines finishing after step-down).
func (c *Coordinator) journalAppend(e Entry) {
	c.mu.Lock()
	jl := c.journal
	c.mu.Unlock()
	if jl != nil {
		jl.Append(e)
	}
}

// detachJournal cuts the coordinator off from the replicated journal;
// called before Close when a leader is deposed or closed, so in-flight
// goroutines cannot write to a log that now belongs to another leader.
func (c *Coordinator) detachJournal() {
	c.mu.Lock()
	c.journal = nil
	c.mu.Unlock()
}

// Registry exposes the metrics registry (for /metrics and tests).
func (c *Coordinator) Registry() *telemetry.Registry { return c.reg }

// Events exposes the control-plane event log (nil when disabled).
func (c *Coordinator) Events() *telemetry.EventLog { return c.events }

// Tracer exposes the coordinator-side tracer (nil when disabled).
func (c *Coordinator) Tracer() *telemetry.Tracer { return c.tracer }

// Ready reports whether the cluster accepts work.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accepting && c.aliveLocked() > 0
}

// NodesAlive reports surviving nodes.
func (c *Coordinator) NodesAlive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked()
}

func (c *Coordinator) aliveLocked() int {
	n := 0
	for _, nd := range c.nodes {
		if nd.alive {
			n++
		}
	}
	return n
}

func (c *Coordinator) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.accepting
}

// Register places the circuit on its ring replicas. The first replica
// runs the trusted setup; the coordinator then exports the key bundle and
// imports it on the remaining replicas, so every replica proves under the
// same CRS. The bundle is cached coordinator-side: losing every holder
// still re-registers warm.
func (c *Coordinator) Register(spec service.CircuitSpec) (*service.CircuitInfo, error) {
	id := service.CircuitIDFor(spec)
	c.mu.Lock()
	if !c.accepting {
		c.mu.Unlock()
		return nil, service.ErrDraining
	}
	if known := c.circuits[id]; known != nil {
		info := *known.info
		info.Cached = true
		c.mu.Unlock()
		return &info, nil
	}
	targets := c.ring.replicas(id, c.cfg.Replicas)
	c.mu.Unlock()

	// Primary: run the setup on the first reachable replica and pull the
	// key bundle back.
	var (
		info     *service.CircuitInfo
		keys     *service.KeyBundle
		primary  string
		firstErr error
	)
	for _, name := range targets {
		base := c.baseOf(name)
		var ci service.CircuitInfo
		if err := c.fwd.control(c.ctx, http.MethodPost, base+"/v1/circuits", spec, &ci); err != nil {
			c.noteNodeError(name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("register on %s: %w", name, err)
			}
			continue
		}
		var kb service.KeyBundle
		if err := c.fwd.control(c.ctx, http.MethodGet, base+"/v1/circuits/"+id+"/keys", nil, &kb); err != nil {
			c.noteNodeError(name, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("export keys from %s: %w", name, err)
			}
			continue
		}
		info, keys, primary = &ci, &kb, name
		c.markHolds(name, id)
		break
	}
	if info == nil {
		return nil, fmt.Errorf("cluster: register circuit: no replica reachable: %w", firstErr)
	}

	c.mu.Lock()
	if c.circuits[id] == nil {
		c.circuits[id] = &circuit{id: id, spec: spec, info: info, keys: keys}
		c.cRegistered.Add(1)
	}
	c.mu.Unlock()
	c.events.Log(telemetry.LevelInfo, "cluster", "circuit_registered", map[string]any{
		"circuit": id, "primary": primary, "replicas": len(targets),
	})
	c.journalAppend(Entry{Kind: EntryCircuit, Circuit: &CircuitRecord{
		ID: id, Spec: spec, Info: *info, Keys: keys,
	}})

	// Secondaries import asynchronously: registration returns as soon as
	// the primary holds the keys, and the background replicator retries
	// imports until the k-replica invariant holds. Under-replication in
	// the window is survivable — the per-job replaceReplica path proves
	// from the coordinator's cached bundle on demand.
	for _, name := range targets {
		if name != primary {
			c.enqueueReplication(id, name)
		}
	}

	out := *info
	out.Cached = false
	return &out, nil
}

// replTask is one pending async key replication: install circuitID's
// cached key bundle on node.
type replTask struct {
	circuitID string
	node      string
	attempt   int
}

const maxReplAttempts = 6

// enqueueReplication schedules an async key import, deduping per
// (circuit, node) so retries and repeated registrations do not stack. It
// never blocks (strike calls it, and the replicator strikes): a full queue
// drops the task, and replaceReplica repairs placement on demand.
func (c *Coordinator) enqueueReplication(circuitID, node string) {
	key := circuitID + "/" + node
	c.mu.Lock()
	if c.pendingRepl[key] {
		c.mu.Unlock()
		return
	}
	c.pendingRepl[key] = true
	pending := len(c.pendingRepl)
	c.mu.Unlock()
	c.gReplPending.Set(float64(pending))
	select {
	case c.replCh <- replTask{circuitID: circuitID, node: node}:
	default:
		c.finishReplication(key)
	}
}

func (c *Coordinator) finishReplication(key string) {
	c.mu.Lock()
	delete(c.pendingRepl, key)
	pending := len(c.pendingRepl)
	c.mu.Unlock()
	c.gReplPending.Set(float64(pending))
}

// replicatorLoop drains the async replication queue: one worker, jittered
// backoff between attempts on the same task, bounded attempts (the
// strike/evict/replaceReplica machinery repairs anything dropped here).
func (c *Coordinator) replicatorLoop() {
	defer c.wg.Done()
	p := c.cfg.Retry.WithDefaults()
	for {
		select {
		case <-c.ctx.Done():
			return
		case t := <-c.replCh:
			key := t.circuitID + "/" + t.node
			c.mu.Lock()
			nd := c.nodes[t.node]
			done := nd == nil || !nd.alive || nd.circuits[t.circuitID]
			c.mu.Unlock()
			if done {
				c.finishReplication(key)
				continue
			}
			if c.importKeys(t.node, t.circuitID) == nil {
				c.cReplicated.Add(1)
				c.finishReplication(key)
				continue
			}
			if t.attempt+1 >= maxReplAttempts || c.ctx.Err() != nil {
				c.finishReplication(key)
				continue
			}
			t.attempt++
			delay := p.JitterBackoff(t.attempt-1, rand.Float64())
			task := t
			time.AfterFunc(delay, func() {
				select {
				case c.replCh <- task:
				case <-c.ctx.Done():
					c.finishReplication(key)
				}
			})
		}
	}
}

// Circuit answers GET /v1/circuits/{id} from the coordinator's cache.
func (c *Coordinator) Circuit(id string) (*service.CircuitInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.circuits[id]; e != nil {
		info := *e.info
		info.Cached = true
		return &info, nil
	}
	return nil, &service.NotFoundError{What: "circuit", ID: id}
}

// Submit admits one cluster prove request and starts its forwarding
// goroutine. Accepted jobs always reach a terminal state: done, failed,
// or checkpointed — node loss migrates them, it never drops them.
func (c *Coordinator) Submit(circuitID string, public, secret []string) (*Job, error) {
	return c.SubmitTraced("", circuitID, public, secret)
}

// SubmitTraced is Submit with an explicit distributed-trace id (adopted
// from the client's X-Gzkp-Trace-Id header; generated fresh when empty).
// The id is journaled with the accepted record, so a redrive after leader
// failover keeps the job on the same trace, and injected on every forward
// hop so node-side spans join it.
func (c *Coordinator) SubmitTraced(traceID, circuitID string, public, secret []string) (*Job, error) {
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	id, err := c.admit("cj", circuitID, 1, true)
	if err != nil {
		return nil, err
	}
	c.events.Log(telemetry.LevelDebug, "cluster", "job_accepted", map[string]any{
		"job": id, "circuit": circuitID, "trace_id": traceID,
	})
	// The accepted entry replicates BEFORE the job can reach a terminal
	// state: a standby that takes over knows about every admitted job.
	c.journalAppend(Entry{Kind: EntryJob, Job: &JobRecord{
		ID: id, Event: JobEventAccepted, CircuitID: circuitID,
		Public: public, Secret: secret, TraceID: traceID,
	}})
	return c.launch(id, circuitID, traceID, "", public, secret), nil
}

// admit is the one admission path: it takes k slots for circuitID, all or
// none, and names the work <prefix>-<seq> (<prefix>-<ID>-<seq> on an HA
// replica, so ids stay unique across leader changes). A solo submit takes
// one capped slot, a batch k; a redrive bypasses the cap because the old
// leader admitted the job already.
func (c *Coordinator) admit(prefix, circuitID string, k int, capped bool) (string, error) {
	c.mu.Lock()
	var err error
	switch {
	case !c.accepting:
		err = service.ErrDraining
	case c.circuits[circuitID] == nil:
		err = &service.NotFoundError{What: "circuit", ID: circuitID}
	case capped && c.admitted+k > c.cfg.MaxInflight:
		err = &service.OverloadError{
			Depth: c.admitted, Capacity: c.cfg.MaxInflight,
			RetryAfter: 2 * time.Second,
		}
	}
	if err != nil {
		c.mu.Unlock()
		if !errors.Is(err, service.ErrDraining) {
			c.cRejected.Add(int64(k))
		}
		return "", err
	}
	c.admitted += k
	c.jobSeq++
	seq, inflight := c.jobSeq, c.admitted
	c.mu.Unlock()
	c.cAccepted.Add(int64(k))
	c.gInflight.Set(float64(inflight))
	if c.cfg.ID != "" {
		return fmt.Sprintf("%s-%s-%08d", prefix, c.cfg.ID, seq), nil
	}
	return fmt.Sprintf("%s-%08d", prefix, seq), nil
}

// release returns k admission slots (a finished job, a returned batch).
func (c *Coordinator) release(k int) {
	c.mu.Lock()
	c.admitted -= k
	if c.admitted == 0 {
		c.idle.Broadcast()
	}
	inflight := c.admitted
	c.mu.Unlock()
	c.gInflight.Set(float64(inflight))
}

// launch records an admitted job and starts its forwarding goroutine;
// preferred is the node a redrive tries first. A coordinator closed since
// admission fails the job instead: its goroutine must not outlive Close.
func (c *Coordinator) launch(id, circuitID, traceID, preferred string, public, secret []string) *Job {
	j := newJob(id, circuitID, public, secret, c.jobDone)
	j.TraceID = traceID
	c.mu.Lock()
	c.jobs[id] = j
	closed := c.ctx.Err()
	if closed == nil {
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if closed != nil {
		c.cFailed.Add(1)
		j.finish(service.JobFailed, nil, fmt.Errorf("cluster: coordinator closed: %w", closed), http.StatusServiceUnavailable)
		return j
	}
	go c.runJob(j, preferred)
	return j
}

// InstallCircuit seeds the coordinator's circuit cache from a journaled
// record — the promoted standby's warm start. No node traffic, no
// journal append: the record already lives in the journal.
func (c *Coordinator) InstallCircuit(rec CircuitRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.circuits[rec.ID] == nil {
		info := rec.Info
		c.circuits[rec.ID] = &circuit{id: rec.ID, spec: rec.Spec, info: &info, keys: rec.Keys}
	}
}

// Redrive re-admits an accepted-but-unfinished job from the replicated
// journal under its ORIGINAL cluster id, preferring the node it was last
// forwarded to (the node-side client-job dedupe attaches to the running
// prove instead of starting a second one). Redriven jobs bypass the
// admission cap — they were already admitted once, by the old leader —
// and count toward cluster.jobs.accepted so the done+failed+checkpointed
// == accepted invariant holds on the new leader too. Redrives run one at a
// time (promotion replays the journal in order).
func (c *Coordinator) Redrive(id, circuitID string, public, secret []string, preferred, traceID string) (*Job, error) {
	if j, err := c.Job(id); err == nil {
		return j, nil
	}
	if _, err := c.admit("cj", circuitID, 1, false); err != nil {
		return nil, err
	}
	c.cRedriven.Add(1)
	c.events.Log(telemetry.LevelInfo, "cluster", "job_redriven", map[string]any{
		"job": id, "circuit": circuitID, "preferred": preferred, "trace_id": traceID,
	})
	return c.launch(id, circuitID, traceID, preferred, public, secret), nil
}

// Job looks up an accepted cluster job.
func (c *Coordinator) Job(id string) (*Job, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	c.mu.Unlock()
	if !ok {
		return nil, &service.NotFoundError{What: "job", ID: id}
	}
	return j, nil
}

func (c *Coordinator) jobDone(j *Job) {
	c.release(1)
	// Journal the terminal state so standbys stop counting the job as
	// re-drivable.
	var event string
	switch j.State() {
	case service.JobDone:
		event = JobEventDone
	case service.JobFailed:
		event = JobEventFailed
	case service.JobCheckpointed:
		event = JobEventCheckpointed
	default:
		return
	}
	rec := &JobRecord{ID: j.ID, Event: event, Node: j.nodeName()}
	if st := j.Status(); st.Error != "" {
		rec.Error = st.Error
	}
	c.journalAppend(Entry{Kind: EntryJob, Job: rec})
}

func (c *Coordinator) baseOf(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if nd := c.nodes[name]; nd != nil {
		return nd.base
	}
	return ""
}

func (c *Coordinator) markHolds(name, circuitID string) {
	c.mu.Lock()
	if nd := c.nodes[name]; nd != nil {
		nd.circuits[circuitID] = true
	}
	c.mu.Unlock()
}

// pickNode chooses the alive replica for a circuit: preferred when it
// holds the key (a redrive going back to where the old leader forwarded
// it), else the holder with the fewest outstanding forwards plus
// last-probed queue depth, ties to construction order. Nodes in skip
// (moved off for this request) are excluded.
func (c *Coordinator) pickNode(circuitID, preferred string, skip map[string]bool) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	usable := func(nd *node) bool { return nd != nil && nd.alive && !skip[nd.name] && nd.circuits[circuitID] }
	if usable(c.nodes[preferred]) {
		return preferred
	}
	best, bestLoad := "", 0.0
	for _, name := range c.order {
		nd := c.nodes[name]
		if !usable(nd) {
			continue
		}
		load := float64(nd.inflight) + nd.queueDepth
		if best == "" || load < bestLoad {
			best, bestLoad = nd.name, load
		}
	}
	return best
}

// replaceReplica repairs placement for a circuit with no usable replica:
// it imports the coordinator's cached key bundle onto an alive node
// outside skip and returns that node ("" when none exists or the import
// fails everywhere). This is the no-cold-start path — the bundle was
// exported at registration, so the new replica skips the trusted setup.
func (c *Coordinator) replaceReplica(circuitID string, skip map[string]bool) string {
	c.mu.Lock()
	var candidates []string
	for _, name := range c.order {
		if nd := c.nodes[name]; nd.alive && !skip[name] && !nd.circuits[circuitID] {
			candidates = append(candidates, nd.name)
		}
	}
	c.mu.Unlock()
	for _, name := range candidates {
		if c.importKeys(name, circuitID) == nil {
			c.cReregistered.Add(1)
			return name
		}
	}
	return ""
}

// importKeys installs circuitID's cached key bundle on a node and records
// the placement. It is the one key-import path: the async replicator and
// replaceReplica both call it. A DeviceLost failure strikes the node.
func (c *Coordinator) importKeys(name, circuitID string) error {
	c.mu.Lock()
	e := c.circuits[circuitID]
	c.mu.Unlock()
	if e == nil || e.keys == nil {
		return fmt.Errorf("cluster: no cached key bundle for circuit %s", circuitID)
	}
	if err := c.fwd.control(c.ctx, http.MethodPost, c.baseOf(name)+"/v1/circuits/import", e.keys, nil); err != nil {
		c.noteNodeError(name, err)
		return err
	}
	c.markHolds(name, circuitID)
	return nil
}

// request is one unit of work forward carries to a node: a solo job, a
// k-proof batch or a verify-batch. The kinds differ only in route and
// body, in jobs (how many admitted cluster jobs ride on it: 1, k, or 0 for
// a verify, which is not admitted) and in settle.
type request[T any] struct {
	kind, id, circuit, trace string
	jobs                     int
	path                     string
	body                     any
	job                      *Job   // solo only: forward/migrate bookkeeping
	preferred                string // solo redrive: the node to try first
	root                     telemetry.Span
	counter                  *telemetry.Counter // per-kind forward count, or nil
	// settle reads a node's 200 answer: nil when it is terminal, errMove
	// when the work must leave that node, any other error to fail Fatal.
	// A nil settle takes every 200 as terminal.
	settle func(*T) error
}

// errMove moves a request off a node without striking it: the node
// detached the sync call (202), or checkpointed a job outside a cluster
// drain.
var errMove = errors.New("cluster: move off node")

// errPlacementGap is the no-node outcome: no alive node holds the circuit
// and none took its keys. It is Transient — an import may succeed or a
// node rejoin before the budget runs out.
var errPlacementGap = &resilience.TransientError{Op: "place circuit: no alive node holds it or can import its keys"}

// forward is the coordinator's one forward loop. It picks the node (redrive
// preference, then pickNode, then replaceReplica), counts the inflight
// forward, opens the per-attempt span whose id rides in the trace headers,
// and classifies every outcome once:
//
//   - 2xx: settle decides (a 202 always moves off the node);
//   - Canceled: fail;
//   - Transient, including a placement gap: full-jitter backoff floored by
//     Retry-After, under one budget; during a cluster drain it fails with
//     ErrDraining instead (a solo job checkpoints on that);
//   - DeviceLost: strike the node, exclude it and migrate;
//   - Fatal: fail with the node's status.
//
// It returns the settled answer, or the error and the HTTP status the
// client should see.
func forward[T any](c *Coordinator, r request[T]) (*T, int, error) {
	p := c.cfg.Retry.WithDefaults()
	tried := map[string]bool{} // nodes this request moved off
	transient, attempt := 0, 0
	for {
		if err := c.ctx.Err(); err != nil {
			return nil, http.StatusServiceUnavailable, fmt.Errorf("cluster: coordinator closed: %w", err)
		}
		// A redrive's preferred node is where the dedupe key finds the
		// running prove; it is a one-shot hint.
		name := c.pickNode(r.circuit, r.preferred, tried)
		r.preferred = ""
		if name == "" {
			name = c.replaceReplica(r.circuit, tried)
		}
		var (
			out    T
			status int
			err    error = errPlacementGap
		)
		if name != "" {
			if r.job != nil {
				r.job.markForwarded(name)
				c.journalAppend(Entry{Kind: EntryJob, Job: &JobRecord{
					ID: r.id, Event: JobEventForwarded, Node: name,
				}})
			}
			attempt++
			c.addInflight(name, 1)
			r.counter.Add(1)
			fsp := r.root.Child("forward")
			fsp.SetStr("node", name)
			fsp.SetInt("attempt", int64(attempt))
			fctx := telemetry.ContextWithSpanContext(c.ctx,
				telemetry.SpanContext{TraceID: r.trace, SpanID: fsp.ID()})
			status, err = c.fwd.post(fctx, c.baseOf(name)+r.path, r.body, &out)
			fsp.End()
			c.addInflight(name, -1)
		}
		if err == nil {
			err = errMove // 202: the node saw our connection die mid-call
			if status != http.StatusAccepted {
				err = nil
				if r.settle != nil {
					err = r.settle(&out)
				}
			}
			if err == nil {
				c.noteNodeOK(name)
				return &out, http.StatusOK, nil
			}
		}

		switch class := resilience.ClassifyHTTP(status, err); {
		case errors.Is(err, errMove), class == resilience.DeviceLost:
			c.noteNodeError(name, err) // strikes DeviceLost only
			tried[name] = true
			if r.job != nil {
				r.job.markMigrated()
			}
			c.cMigrated.Add(int64(r.jobs))
			c.events.Log(telemetry.LevelWarn, "cluster", r.kind+"_migrated", map[string]any{
				r.kind: r.id, "from": name, "jobs": r.jobs, "trace_id": r.trace,
			})
			c.tracer.Emit(telemetry.TrackHost, "cluster", "migrate",
				telemetry.Str(r.kind, r.id), telemetry.Str("trace_id", r.trace))
		case class == resilience.Canceled:
			return nil, http.StatusServiceUnavailable, err
		case class == resilience.Transient:
			if c.isDraining() {
				// 503s and gaps are expected while the nodes drain: stop
				// burning the budget and let the caller checkpoint or fail.
				return nil, http.StatusServiceUnavailable, fmt.Errorf("cluster: %s %s: %w", r.kind, r.id, service.ErrDraining)
			}
			if transient++; transient >= 2*p.MaxAttempts {
				code := http.StatusServiceUnavailable
				var he *resilience.HTTPError
				if errors.As(err, &he) && he.Status == http.StatusTooManyRequests {
					code = http.StatusTooManyRequests
				}
				return nil, code, fmt.Errorf("cluster: %s %s: retries exhausted: %w", r.kind, r.id, err)
			}
			delay := p.JitterBackoff(transient-1, rand.Float64())
			if ra := retryAfterOf(err); ra > delay {
				delay = ra
			}
			if serr := p.Sleep(c.ctx, delay); serr != nil {
				return nil, http.StatusServiceUnavailable, serr
			}
		default: // Fatal: doomed on any node (400/404/500, a malformed answer)
			if status < 300 {
				status = http.StatusInternalServerError
			}
			return nil, status, err
		}
	}
}

// runJob drives one cluster job through forward and lands it in exactly
// one terminal state: done, failed, or checkpointed (a cluster drain
// stranded it, or a node checkpointed it during one). Counters move before
// finish, so they already agree with the job when Done closes.
func (c *Coordinator) runJob(j *Job, preferred string) {
	defer c.wg.Done()
	// Root span for the coordinator's view of the job. The trace_id
	// attribute is the cross-process join key: node-side spans for the
	// same job carry it too (via the injected header), so the stitcher
	// lines both processes up on one timeline.
	root := c.tracer.Root(telemetry.TrackHost, "cluster.job")
	telemetry.SpanContext{TraceID: j.TraceID}.Annotate(root)
	root.SetStr("job", j.ID)
	root.SetStr("circuit", j.CircuitID)
	defer func() {
		root.SetStr("state", j.State().String())
		root.SetInt("migrations", int64(j.migrationCount()))
		root.End()
	}()
	st, code, err := forward(c, request[service.JobStatus]{
		kind: "job", id: j.ID, circuit: j.CircuitID, trace: j.TraceID, jobs: 1,
		path: "/v1/prove", job: j, preferred: preferred, root: root,
		// ClientJobID makes re-forwards idempotent: if a new leader
		// re-drives this job to a node already proving it, the node
		// attaches to the running job instead of proving twice.
		body: service.ProveRequest{
			CircuitID: j.CircuitID, Public: j.Public, Secret: j.Secret,
			ClientJobID: j.ID,
		},
		settle: func(st *service.JobStatus) error {
			switch {
			case st.State == "done", st.State == "failed":
				return nil
			case st.State == "checkpointed" && c.isDraining():
				return nil
			case st.State == "checkpointed":
				// A single node drained outside a cluster drain: its
				// checkpoint resubmits on ITS successor; meanwhile the job
				// moves so this cluster's client still gets an answer
				// (at-least-once proving is harmless).
				return errMove
			}
			return fmt.Errorf("cluster: node %s returned non-terminal state %q on sync prove", j.nodeName(), st.State)
		},
	})
	switch {
	case errors.Is(err, service.ErrDraining):
		c.checkpointJob(j, nil, false)
	case err != nil:
		c.cFailed.Add(1)
		j.finish(service.JobFailed, nil, err, code)
	case st.State == "done":
		c.cDone.Add(1)
		j.finish(service.JobDone, st, nil, http.StatusOK)
	case st.State == "failed":
		// Any other node-side terminal failure (bad witness, recovery
		// exhausted) is deterministic for this request: migrating would
		// re-run the same doomed work.
		c.cFailed.Add(1)
		j.finish(service.JobFailed, st, fmt.Errorf("cluster: node %s: %s", j.nodeName(), st.Error), http.StatusOK)
	default:
		// The node's drain checkpoint owns this job's inputs; they ride
		// back in the merged cluster checkpoint.
		c.checkpointJob(j, st, true)
	}
}

func (c *Coordinator) checkpointJob(j *Job, remote *service.JobStatus, nodeOwned bool) {
	if nodeOwned {
		j.markNodeOwned()
	}
	c.cCheckpointed.Add(1)
	j.finish(service.JobCheckpointed, remote, service.ErrCheckpointed, http.StatusOK)
}

func (c *Coordinator) addInflight(name string, d int) {
	c.mu.Lock()
	if nd := c.nodes[name]; nd != nil {
		nd.inflight += d
		if d > 0 {
			nd.cForwarded.Add(1)
		}
	}
	c.mu.Unlock()
}

// noteNodeOK resets a node's strike count after any successful exchange.
func (c *Coordinator) noteNodeOK(name string) {
	c.mu.Lock()
	if nd := c.nodes[name]; nd != nil {
		nd.strikes = 0
	}
	c.mu.Unlock()
}

// noteNodeError strikes a node when the failure implicates the node
// itself (DeviceLost transport classes); at FailThreshold consecutive
// strikes the node is evicted. Transient and Fatal outcomes do not
// strike — they indict the request or the moment, not the node.
func (c *Coordinator) noteNodeError(name string, err error) {
	if resilience.Classify(err) != resilience.DeviceLost {
		return
	}
	c.strike(name)
}

// strike adds one failure to a node's tally, evicting at the threshold.
// Eviction queues a key import onto each ring replica that now lacks a
// circuit the dead node held: the per-job replaceReplica path already
// guarantees correctness, this restores the k-replica invariant eagerly so
// the NEXT loss also finds a warm key.
func (c *Coordinator) strike(name string) {
	c.mu.Lock()
	nd := c.nodes[name]
	if nd == nil || !nd.alive {
		c.mu.Unlock()
		return
	}
	nd.strikes++
	nd.cFailures.Add(1)
	evict := nd.strikes >= c.cfg.FailThreshold
	var repl []replTask
	if evict {
		nd.alive = false
		c.ring.remove(name)
		for id := range nd.circuits {
			for _, t := range c.ring.replicas(id, c.cfg.Replicas) {
				if tn := c.nodes[t]; tn != nil && tn.alive && !tn.circuits[id] {
					repl = append(repl, replTask{circuitID: id, node: t})
				}
			}
		}
	}
	alive := c.aliveLocked()
	c.mu.Unlock()
	if !evict {
		return
	}
	c.cEvictions.Add(1)
	c.gNodesAlive.Set(float64(alive))
	c.events.Log(telemetry.LevelWarn, "cluster", "node_evicted", map[string]any{
		"node": name, "strikes": c.cfg.FailThreshold, "nodes_alive": alive,
	})
	c.journalAppend(Entry{Kind: EntryNode, Node: &NodeRecord{Name: name, Alive: false}})
	for _, t := range repl {
		c.enqueueReplication(t.circuitID, t.node)
	}
}

// AdoptCircuits pulls circuit inventories (and key bundles) off reachable
// nodes — run at coordinator startup so a restarted coordinator fronts a
// running cluster without losing placement state. Returns adopted count.
func (c *Coordinator) AdoptCircuits() int {
	adopted := 0
	c.mu.Lock()
	names := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, name := range names {
		base := c.baseOf(name)
		var exports []service.CircuitExport
		if err := c.fwd.control(c.ctx, http.MethodGet, base+"/v1/circuits", nil, &exports); err != nil {
			c.noteNodeError(name, err)
			continue
		}
		for _, ex := range exports {
			c.markHolds(name, ex.CircuitID)
			c.mu.Lock()
			known := c.circuits[ex.CircuitID] != nil
			c.mu.Unlock()
			if known {
				continue
			}
			var kb service.KeyBundle
			if err := c.fwd.control(c.ctx, http.MethodGet, base+"/v1/circuits/"+ex.CircuitID+"/keys", nil, &kb); err != nil {
				continue
			}
			var info service.CircuitInfo
			if err := c.fwd.control(c.ctx, http.MethodGet, base+"/v1/circuits/"+ex.CircuitID, nil, &info); err != nil {
				continue
			}
			c.mu.Lock()
			fresh := c.circuits[ex.CircuitID] == nil
			if fresh {
				c.circuits[ex.CircuitID] = &circuit{id: ex.CircuitID, spec: ex.Spec, info: &info, keys: &kb}
				adopted++
			}
			c.mu.Unlock()
			if fresh {
				c.journalAppend(Entry{Kind: EntryCircuit, Circuit: &CircuitRecord{
					ID: ex.CircuitID, Spec: ex.Spec, Info: info, Keys: &kb,
				}})
			}
		}
	}
	return adopted
}

// NodeStatus is the JSON view of one node for GET /v1/nodes.
type NodeStatus struct {
	Name       string  `json:"name"`
	URL        string  `json:"url"`
	Alive      bool    `json:"alive"`
	Strikes    int     `json:"strikes,omitempty"`
	QueueDepth float64 `json:"queue_depth"`
	Inflight   int     `json:"inflight"`
	Circuits   int     `json:"circuits"`
}

// Nodes reports the cluster topology in construction order.
func (c *Coordinator) Nodes() []NodeStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStatus, 0, len(c.order))
	for _, name := range c.order {
		nd := c.nodes[name]
		out = append(out, NodeStatus{
			Name: nd.name, URL: nd.base, Alive: nd.alive, Strikes: nd.strikes,
			QueueDepth: nd.queueDepth, Inflight: nd.inflight, Circuits: len(nd.circuits),
		})
	}
	return out
}

// DrainReport summarizes a cluster drain.
type DrainReport struct {
	Finished   int64               // cluster jobs that reached done/failed
	Checkpoint *service.Checkpoint // merged restorable checkpoint (nil if none stranded)
}

// Drain stops accepting, fans out per-node drains, waits for every
// cluster job to land terminal, and merges the node checkpoints (plus any
// coordinator-stranded jobs) into one restorable checkpoint. In-flight
// forwards finish naturally: node drains complete admitted work before
// returning.
func (c *Coordinator) Drain(ctx context.Context) (*DrainReport, error) {
	c.mu.Lock()
	c.accepting = false
	admitted := c.admitted
	var alive []*node
	for _, name := range c.order {
		if nd := c.nodes[name]; nd.alive {
			alive = append(alive, nd)
		}
	}
	c.mu.Unlock()
	c.events.Log(telemetry.LevelInfo, "cluster", "drain_begin", map[string]any{
		"admitted": admitted, "nodes_alive": len(alive),
	})

	// Per-node drain budget: the configured budget, capped at 80% of the
	// drain context's remaining time so the checkpoint responses still
	// come back inside the deadline.
	nodeTimeout := c.cfg.NodeDrainTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl) * 8 / 10; rem < nodeTimeout {
			nodeTimeout = rem
		}
	}
	if nodeTimeout < 50*time.Millisecond {
		nodeTimeout = 50 * time.Millisecond
	}

	parts := map[string]*service.Checkpoint{}
	var pmu sync.Mutex
	var fan sync.WaitGroup
	for _, nd := range alive {
		fan.Add(1)
		go func(name, base string) {
			defer fan.Done()
			var resp service.DrainResponse
			url := fmt.Sprintf("%s/v1/drain?timeout=%s", base, nodeTimeout)
			if _, err := c.fwd.do(ctx, http.MethodPost, url, nil, &resp); err != nil {
				// A node that cannot drain is a node that died: its queued
				// jobs are coordinator jobs in flight, and their forward
				// errors migrate or checkpoint them. Nothing is lost.
				c.noteNodeError(name, err)
				return
			}
			pmu.Lock()
			parts[name] = resp.Checkpoint
			pmu.Unlock()
		}(nd.name, nd.base)
	}
	fan.Wait()

	// Wait for every accepted cluster job to reach a terminal state.
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.idle.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	waitDone := make(chan struct{})
	go func() {
		c.mu.Lock()
		for c.admitted > 0 && ctx.Err() == nil {
			c.idle.Wait()
		}
		c.mu.Unlock()
		close(waitDone)
	}()
	<-waitDone

	// Coordinator-owned stragglers: accepted jobs that never landed in a
	// node's checkpoint (503-bounced, no reachable replica) — plus jobs a
	// node DID checkpoint but whose drain response never made it back
	// (node died mid-drain): their inputs exist nowhere else, so the
	// coordinator re-checkpoints them rather than lose them.
	coordCp := &service.Checkpoint{Version: service.CheckpointVersion}
	seenSpec := map[string]bool{}
	c.mu.Lock()
	for _, j := range c.jobs {
		if j.State() != service.JobCheckpointed {
			continue
		}
		if j.isNodeOwned() && parts[j.nodeName()] != nil {
			continue // already inside that node's checkpoint part
		}
		if e := c.circuits[j.CircuitID]; e != nil && !seenSpec[j.CircuitID] {
			seenSpec[j.CircuitID] = true
			coordCp.Circuits = append(coordCp.Circuits, e.spec)
		}
		coordCp.Jobs = append(coordCp.Jobs, service.CheckpointEntry{
			JobID: j.ID, CircuitID: j.CircuitID,
			Public: append([]string(nil), j.Public...),
			Secret: append([]string(nil), j.Secret...),
		})
	}
	c.mu.Unlock()
	if len(coordCp.Jobs) > 0 {
		parts["coordinator"] = coordCp
	}

	rep := &DrainReport{Finished: c.cDone.Value() + c.cFailed.Value()}
	merged := service.MergeCheckpoints(parts)
	if len(merged.Jobs) > 0 || len(merged.Circuits) > 0 {
		rep.Checkpoint = merged
	}
	fields := map[string]any{"finished": rep.Finished}
	if rep.Checkpoint != nil {
		fields["checkpointed"] = len(rep.Checkpoint.Jobs)
	}
	c.events.Log(telemetry.LevelInfo, "cluster", "drain_complete", fields)
	return rep, ctx.Err()
}

// Restore replays a (merged) cluster checkpoint into this cluster:
// circuits re-register through normal placement, jobs resubmit through
// normal admission. Restoring is idempotent over checkpoint job ids —
// replaying the same checkpoint never double-submits.
func (c *Coordinator) Restore(cp *service.Checkpoint) (int, error) {
	if cp.Version != 0 && cp.Version != service.CheckpointVersion {
		return 0, &service.InputError{Msg: fmt.Sprintf(
			"checkpoint schema version %d not supported (want %d)", cp.Version, service.CheckpointVersion)}
	}
	for _, spec := range cp.Circuits {
		if _, err := c.Register(spec); err != nil {
			return 0, fmt.Errorf("cluster: restore circuit: %w", err)
		}
	}
	n := 0
	for _, e := range cp.Jobs {
		c.mu.Lock()
		if c.restored[e.JobID] {
			c.mu.Unlock()
			continue
		}
		c.restored[e.JobID] = true
		c.mu.Unlock()
		if _, err := c.Submit(e.CircuitID, e.Public, e.Secret); err != nil {
			c.mu.Lock()
			delete(c.restored, e.JobID)
			c.mu.Unlock()
			return n, fmt.Errorf("cluster: restore job %s: %w", e.JobID, err)
		}
		n++
	}
	if n > 0 || len(cp.Circuits) > 0 {
		c.events.Log(telemetry.LevelInfo, "cluster", "restore", map[string]any{
			"jobs": n, "circuits": len(cp.Circuits),
		})
	}
	return n, nil
}

// Close cancels every outstanding forward and stops the prober. Call
// Drain first for a graceful stop.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.cancel() // under mu: launch either adds to wg first or sees ctx done
	c.accepting = false
	c.mu.Unlock()
	c.wg.Wait()
}
