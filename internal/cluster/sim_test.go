package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"gzkp/internal/resilience"
	"gzkp/internal/service"
)

// The simulator runs a coordinator replica group and its prover nodes in
// one process under one seed, in the style of FoundationDB's
// deterministic simulation testing, kept to plain functions:
//
//   - every request goes through one seeded http.RoundTripper per replica
//     (simLink), which calls the target's ServeHTTP in-process and applies
//     the fault model: killed replicas, one-way or symmetric partitions,
//     one-shot dropped requests and late replies (the handler runs, the
//     caller sees a timeout);
//   - no real timer fires: the lease clock is virtual and advances one
//     tick per step, ProbeInterval is an hour, and retry backoff is a no-op;
//   - one seed yields one schedule of steps (step a replica, probe, submit
//     jobs, inject or heal a fault); after each step the simulator waits for
//     every job on a live leader to settle, so each step runs to quiescence;
//   - invariants are checked as the run goes and after the final heal.
//
// Replay one seed with its schedule and per-step trace:
//
//	GZKP_SIM_SEED=123 go test -run TestSimSweep -v ./internal/cluster
//
// GZKP_SIM_SCHEDULES sets the sweep size (default 500).

const (
	simTick   = 100 * time.Millisecond // virtual time per step
	simTTL    = time.Second            // lease TTL: ten ticks
	simNodes  = 3
	simSteps  = 40 // random steps per schedule
	simRounds = 30 // convergence bound after the final heal, in rounds of k steps
)

type opKind int

const (
	opStep     opKind = iota // step one replica
	opProbe                  // one probe round on a leader
	opSubmit                 // submit jobs to a leader
	opKill                   // stop stepping a replica and refuse its traffic
	opRestart                // bring the dead replica back with empty state
	opCutPeers               // partition replica↔replica
	opCutNode                // partition coordinator↔node
	opDrop                   // drop the next request on a link
	opLate                   // the next request on a link runs, its reply is lost
	opNotReady               // a node answers /readyz 503
	opHeal                   // heal partitions, one-shot faults and readiness
)

var opNames = [...]string{"step", "probe", "submit", "kill", "restart", "cut-peers", "cut-node", "drop", "late", "not-ready", "heal"}

// simOp is one schedule step. a and b index endpoints: replicas are
// 0..k-1, nodes k..k+simNodes-1.
type simOp struct {
	kind   opKind
	a, b   int
	oneWay bool
	n      int // jobs per submit
}

func (o simOp) String() string {
	s := opNames[o.kind]
	switch o.kind {
	case opStep, opProbe, opKill, opRestart:
		s += fmt.Sprintf(" %d", o.a)
	case opSubmit:
		s += fmt.Sprintf(" %dx%d", o.a, o.n)
	case opCutPeers, opCutNode, opDrop, opLate:
		s += fmt.Sprintf(" %d->%d", o.a, o.b)
		if o.oneWay {
			s += " one-way"
		}
	case opNotReady:
		s += fmt.Sprintf(" %d", o.b)
	}
	return s
}

// genSchedule derives a schedule from the seed alone. At most one replica
// is dead at a time: for k = 3 a second death would leave no majority to
// elect with, and for k = 2 no replica at all. Only k = 3 restarts a dead
// replica: epochs are not durable, so a k = 2 replica restarted inside a
// partition promotes to an epoch its peer may already lead (DESIGN §10).
func genSchedule(seed int64, k int) []simOp {
	rng := rand.New(rand.NewSource(seed))
	link := func() (int, int) {
		from := rng.Intn(k)
		to := rng.Intn(k + simNodes - 1)
		if to >= from {
			to++
		}
		return from, to
	}
	var ops []simOp
	dead := -1
	for len(ops) < simSteps {
		op := simOp{a: rng.Intn(k)}
		switch x := rng.Intn(100); {
		case x < 45:
			op.kind = opStep
		case x < 52:
			op.kind = opProbe
		case x < 62:
			op.kind, op.n = opSubmit, 1+rng.Intn(3)
		case x < 65:
			switch {
			case dead < 0:
				op.kind, dead = opKill, op.a
			case k >= 3:
				op.kind, op.a, dead = opRestart, dead, -1
			default:
				continue
			}
		case x < 71:
			op.kind, op.b, op.oneWay = opCutPeers, (op.a+1+rng.Intn(k-1))%k, rng.Intn(2) == 0
		case x < 77:
			op.kind, op.b, op.oneWay = opCutNode, k+rng.Intn(simNodes), rng.Intn(2) == 0
		case x < 82:
			op.kind = opDrop
			op.a, op.b = link()
		case x < 87:
			op.kind = opLate
			op.a, op.b = link()
		case x < 90:
			op.kind, op.b = opNotReady, k+rng.Intn(simNodes)
		default:
			op.kind = opHeal
		}
		ops = append(ops, op)
	}
	return ops
}

// simCoverage counts the paths a sweep reached.
type simCoverage struct {
	fired         map[string]int // fault kinds that took effect
	promoteOther  int            // promotions by a replica other than index 0
	stepdown409   int            // leaders deposed by a 409 to their heartbeat
	diverged      int            // followers that truncated a diverged tail
	refusals      int            // elections refused for want of a majority
	evictions     int
	rejoins       int
	lostAllowed   int // acked jobs lost inside the accept-before-replicate window
	nodeReexecute int // jobs proved on more than one node (allowed, counted)
}

func (c *simCoverage) add(o simCoverage) {
	if c.fired == nil {
		c.fired = map[string]int{}
	}
	for k, v := range o.fired {
		c.fired[k] += v
	}
	c.promoteOther += o.promoteOther
	c.stepdown409 += o.stepdown409
	c.diverged += o.diverged
	c.refusals += o.refusals
	c.evictions += o.evictions
	c.rejoins += o.rejoins
	c.lostAllowed += o.lostAllowed
	c.nodeReexecute += o.nodeReexecute
}

type simFault struct {
	from, to int
	late     bool
}

type ackedJob struct {
	id   string
	by   int // accepting replica
	step int
}

// sim is one schedule's world.
type sim struct {
	k       int
	clock   atomic.Int64 // virtual nanoseconds
	reps    []*Replica
	nodes   []*simNode
	targets []http.Handler // by endpoint
	hosts   map[string]int // URL host → endpoint
	spec    service.CircuitSpec

	peers     []PeerSpec
	nodeSpecs []NodeSpec

	mu         sync.Mutex
	dead       []bool
	cut        [][]bool // cut[a][b]: requests a→b never arrive
	oneShot    []simFault
	submitting bool   // one-shot faults may hit node proves only in submit steps
	saw409     []bool // per replica, this step
	leaders    map[uint64]int
	reached    map[string]map[int]bool // job id → peers holding its accepted entry
	acked      []ackedJob
	execs      map[string]int // job id → nodes that proved it
	cov        simCoverage
	err        error
	trace      []string
}

func (s *sim) now() time.Time { return time.Unix(0, s.clock.Load()) }

func (s *sim) failf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func (s *sim) failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

func (s *sim) alive(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead[i]
}

// simNode is a fake prover node: it registers, exports and imports
// circuits with stand-in keys, and proves at once, deduping on
// client_job_id as service does.
type simNode struct {
	s        *sim
	mu       sync.Mutex
	notReady bool
	keys     map[string]service.KeyBundle
	proved   map[string]bool
}

func (n *simNode) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := req.URL.Path
	switch {
	case p == "/healthz":
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case p == "/readyz" && n.notReady:
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
	case p == "/readyz", p == "/metrics":
		service.WriteJSON(w, http.StatusOK, map[string]string{})
	case p == "/v1/circuits" && req.Method == http.MethodPost:
		var spec service.CircuitSpec
		json.NewDecoder(req.Body).Decode(&spec)
		id := service.CircuitIDFor(spec)
		n.keys[id] = service.KeyBundle{CircuitID: id, Spec: spec, ProvingKey: []byte("pk"), VerifyingKey: []byte("vk")}
		service.WriteJSON(w, http.StatusCreated, service.CircuitInfo{CircuitID: id, VerifyingKey: []byte("vk")})
	case p == "/v1/circuits":
		var out []service.CircuitExport
		for id, kb := range n.keys {
			out = append(out, service.CircuitExport{CircuitID: id, Spec: kb.Spec})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].CircuitID < out[j].CircuitID })
		service.WriteJSON(w, http.StatusOK, out)
	case p == "/v1/circuits/import":
		var kb service.KeyBundle
		json.NewDecoder(req.Body).Decode(&kb)
		n.keys[kb.CircuitID] = kb
		service.WriteJSON(w, http.StatusOK, service.CircuitInfo{CircuitID: kb.CircuitID})
	case strings.HasPrefix(p, "/v1/circuits/"):
		id, wantKeys := strings.CutSuffix(strings.TrimPrefix(p, "/v1/circuits/"), "/keys")
		kb, ok := n.keys[id]
		switch {
		case !ok:
			service.WriteJSON(w, http.StatusNotFound, service.APIError{Error: "no such circuit"})
		case wantKeys:
			service.WriteJSON(w, http.StatusOK, kb)
		default:
			service.WriteJSON(w, http.StatusOK, service.CircuitInfo{CircuitID: id, VerifyingKey: kb.VerifyingKey})
		}
	case p == "/v1/prove":
		var pr service.ProveRequest
		json.NewDecoder(req.Body).Decode(&pr)
		if _, ok := n.keys[pr.CircuitID]; !ok {
			service.WriteJSON(w, http.StatusNotFound, service.APIError{Error: "no such circuit"})
			return
		}
		if !n.proved[pr.ClientJobID] {
			n.proved[pr.ClientJobID] = true
			n.s.mu.Lock()
			n.s.execs[pr.ClientJobID]++
			n.s.mu.Unlock()
		}
		service.WriteJSON(w, http.StatusOK, service.JobStatus{
			ID: "nj-" + pr.ClientJobID, CircuitID: pr.CircuitID, State: "done",
		})
	default:
		service.WriteJSON(w, http.StatusNotFound, service.APIError{Error: "no route"})
	}
}

// errLate is what a caller sees when the reply is lost: a timeout, which
// resilience classifies Transient.
var errLate = fmt.Errorf("sim: reply lost: %w", os.ErrDeadlineExceeded)

// simLink is the RoundTripper one replica's traffic goes through.
type simLink struct {
	s    *sim
	from int
}

func (l simLink) RoundTrip(req *http.Request) (*http.Response, error) {
	s := l.s
	to, ok := s.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("sim: unknown host %q", req.URL.Host)
	}
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	drop, late := s.route(l.from, to, req.URL.Path)
	if drop {
		return nil, fmt.Errorf("sim: %d->%d: %w", l.from, to, syscall.ECONNREFUSED)
	}
	in := req.Clone(req.Context())
	in.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	if req.URL.Path == "/v1/cluster/replicate" && to < s.k {
		s.replicate(l.from, to, body, in, rec)
	} else {
		s.target(to).ServeHTTP(rec, in)
	}
	if late {
		return nil, errLate
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// route applies the fault model to one request from→to.
func (s *sim) route(from, to int, path string) (drop, late bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead[from] || (to < s.k && s.dead[to]) || s.cut[from][to] {
		return true, false
	}
	late = s.cut[to][from]
	for i, f := range s.oneShot {
		if f.from != from || f.to != to {
			continue
		}
		// On node links one-shot faults hit probes, and proves only in a
		// submit step, where a single job is in flight: which request a
		// fault consumes must not depend on goroutine interleaving.
		if to >= s.k && path != "/healthz" && !(path == "/v1/prove" && s.submitting) {
			continue
		}
		s.oneShot = append(s.oneShot[:i], s.oneShot[i+1:]...)
		if f.late {
			s.cov.fired["late"]++
			late = true
		} else {
			s.cov.fired["drop"]++
			drop = true
		}
		break
	}
	return drop, late
}

// replicate delivers one replicate request and records what it did to the
// follower: a diverged-tail truncation, the accepted jobs it now holds,
// and 409s for the stepdown coverage.
func (s *sim) replicate(from, to int, body []byte, req *http.Request, rec *httptest.ResponseRecorder) {
	var in replicateRequest
	json.Unmarshal(body, &in)
	jl := s.target(to).(*Replica).journal
	jl.mu.Lock()
	var tail *Entry
	if in.FromSeq < jl.seq {
		e := jl.log[in.FromSeq]
		tail = &e
	}
	jl.mu.Unlock()
	s.target(to).ServeHTTP(rec, req)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch rec.Code {
	case http.StatusConflict:
		s.saw409[from] = true
	case http.StatusOK:
		if tail != nil && (len(in.Entries) == 0 || !sameEntry(*tail, in.Entries[0])) {
			s.cov.diverged++
		}
		for _, e := range in.Entries {
			if e.Job != nil && e.Job.Event == JobEventAccepted {
				if _, ok := jl.JobView(e.Job.ID); ok {
					if s.reached[e.Job.ID] == nil {
						s.reached[e.Job.ID] = map[int]bool{}
					}
					s.reached[e.Job.ID][to] = true
				}
			}
		}
	}
}

// sameEntry compares two entries by identity, ignoring compaction.
func sameEntry(a, b Entry) bool {
	if a.Seq != b.Seq || a.Kind != b.Kind {
		return false
	}
	switch {
	case a.Job != nil && b.Job != nil:
		return a.Job.ID == b.Job.ID && a.Job.Event == b.Job.Event && a.Job.Node == b.Job.Node
	case a.Circuit != nil && b.Circuit != nil:
		return a.Circuit.ID == b.Circuit.ID
	case a.Node != nil && b.Node != nil:
		return *a.Node == *b.Node
	}
	return false
}

// logf observes the replicas' transition log: every promotion is checked
// against invariants (i) and (ii) at the moment it happens.
func (s *sim) logf(i int) func(string, ...any) {
	return func(format string, args ...any) {
		switch {
		case strings.HasPrefix(format, "replica %s: promoting to leader"):
			s.onPromote(i, args[1].(uint64))
		case strings.HasPrefix(format, "replica %s: lease expired but only"):
			s.mu.Lock()
			s.cov.refusals++
			s.mu.Unlock()
		}
	}
}

func (s *sim) onPromote(i int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.leaders[epoch]; ok && prev != i {
		s.setErr("invariant (i): replicas %d and %d both led epoch %d", prev, i, epoch)
	}
	s.leaders[epoch] = i
	if i != 0 {
		s.cov.promoteOther++
	}
	if s.k < 3 {
		return
	}
	reach := 0
	for j := 0; j < s.k; j++ {
		if j != i && !s.dead[j] && !s.cut[i][j] && !s.cut[j][i] {
			reach++
		}
	}
	if (reach+1)*2 <= s.k {
		s.setErr("invariant (ii): replica %d promoted to epoch %d reaching %d of %d peers", i, epoch, reach, s.k-1)
	}
}

// setErr is failf for callers holding s.mu.
func (s *sim) setErr(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func newSim(k int) *sim {
	s := &sim{
		k: k, hosts: map[string]int{},
		dead: make([]bool, k), saw409: make([]bool, k),
		leaders: map[uint64]int{}, reached: map[string]map[int]bool{}, execs: map[string]int{},
		spec: service.CircuitSpec{Curve: "bn254", Source: "sim"},
	}
	s.cov.fired = map[string]int{}
	s.clock.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	ends := k + simNodes
	s.cut = make([][]bool, ends)
	for i := range s.cut {
		s.cut[i] = make([]bool, ends)
	}
	s.targets = make([]http.Handler, ends)
	var peers []PeerSpec
	for i := 0; i < k; i++ {
		name := fmt.Sprintf("r%d", i)
		s.hosts[name] = i
		peers = append(peers, PeerSpec{Name: name, URL: "http://" + name})
	}
	var nodes []NodeSpec
	for i := 0; i < simNodes; i++ {
		name := fmt.Sprintf("n%d", i)
		s.hosts[name] = k + i
		n := &simNode{s: s, keys: map[string]service.KeyBundle{}, proved: map[string]bool{}}
		s.nodes = append(s.nodes, n)
		s.targets[k+i] = n
		nodes = append(nodes, NodeSpec{Name: name, URL: "http://" + name})
	}
	s.peers, s.nodeSpecs = peers, nodes
	s.reps = make([]*Replica, k)
	for i := 0; i < k; i++ {
		s.reps[i] = s.newReplica(i)
		s.targets[i] = s.reps[i]
	}
	return s
}

// newReplica builds replica i with empty state on the virtual clock.
func (s *sim) newReplica(i int) *Replica {
	rep, err := NewReplica(ReplicaConfig{
		Self: s.peers[i].Name, Peers: s.peers,
		LeaseInterval: simTick, LeaseTTL: simTTL,
		Cluster: Config{
			Nodes: s.nodeSpecs, Replicas: simNodes, FailThreshold: 1,
			ProbeInterval: time.Hour,
			Retry:         resilience.Policy{Sleep: func(context.Context, time.Duration) error { return nil }},
			Client:        &http.Client{Transport: simLink{s: s, from: i}},
		},
		Logf: s.logf(i),
	})
	if err != nil {
		panic(err)
	}
	rep.now = s.now
	return rep
}

func (s *sim) target(i int) http.Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.targets[i]
}

// restart replaces the dead replica i with a fresh process: empty journal,
// new registry, and Start's join (without the run loop).
func (s *sim) restart(i int) {
	if s.alive(i) {
		return
	}
	s.reps[i].Close()
	rep := s.newReplica(i)
	s.mu.Lock()
	s.reps[i], s.targets[i], s.dead[i] = rep, rep, false
	for _, held := range s.reached {
		delete(held, i)
	}
	s.cov.fired["restart"]++
	s.mu.Unlock()
	rep.join()
}

// start joins every replica, index 0 first, and registers the circuit.
func (s *sim) start() {
	for _, r := range s.reps {
		r.join()
	}
	if c := s.reps[0].Coordinator(); c != nil {
		c.Register(s.spec)
	}
	s.settle()
}

func (s *sim) close() {
	for _, r := range s.reps {
		r.Close()
	}
}

// leader returns replica i if it is a live leader, else the lowest-indexed
// live leader, else nil.
func (s *sim) leader(i int) *Coordinator {
	if s.alive(i) {
		if c := s.reps[i].Coordinator(); c != nil {
			return c
		}
	}
	for j, r := range s.reps {
		if s.alive(j) {
			if c := r.Coordinator(); c != nil {
				return c
			}
		}
	}
	return nil
}

// settle waits until every job on a live leader is terminal and its async
// key imports are done: each step runs to quiescence.
func (s *sim) settle() {
	deadline := time.Now().Add(10 * time.Second)
	for i, r := range s.reps {
		c := r.Coordinator()
		if c == nil || !s.alive(i) {
			continue
		}
		c.mu.Lock()
		jobs := make([]*Job, 0, len(c.jobs))
		for _, j := range c.jobs {
			jobs = append(jobs, j)
		}
		c.mu.Unlock()
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-time.After(time.Until(deadline)):
				s.failf("job %s on replica %d never settled", j.ID, i)
				return
			}
		}
		for c.gReplPending.Value() != 0 {
			if time.Now().After(deadline) {
				s.failf("key replication on replica %d never settled", i)
				return
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// apply runs one schedule step to quiescence.
func (s *sim) apply(op simOp) {
	s.mu.Lock()
	for i := range s.saw409 {
		s.saw409[i] = false
	}
	s.mu.Unlock()
	switch op.kind {
	case opStep:
		if !s.alive(op.a) {
			break
		}
		r := s.reps[op.a]
		wasLeader := r.Role() == RoleLeader
		r.step()
		s.mu.Lock()
		if wasLeader && r.Role() == RoleStandby && s.saw409[op.a] {
			s.cov.stepdown409++
		}
		s.mu.Unlock()
	case opRestart:
		s.restart(op.a)
	case opProbe:
		if c := s.leader(op.a); c != nil {
			c.probeAll()
		}
	case opSubmit:
		c := s.leader(op.a)
		if c == nil {
			break
		}
		id := service.CircuitIDFor(s.spec)
		if _, err := c.Circuit(id); err != nil {
			c.Register(s.spec)
			s.settle()
		}
		s.mu.Lock()
		s.submitting = true
		s.mu.Unlock()
		for n := 0; n < op.n; n++ {
			j, err := c.Submit(id, []string{"35"}, []string{"3"})
			if err != nil {
				continue
			}
			by := s.indexOf(c)
			s.mu.Lock()
			s.acked = append(s.acked, ackedJob{id: j.ID, by: by, step: len(s.trace)})
			s.mu.Unlock()
			s.settle()
		}
		s.mu.Lock()
		s.submitting = false
		s.mu.Unlock()
	default:
		s.mu.Lock()
		s.inject(op)
		s.mu.Unlock()
	}
	s.clock.Add(int64(simTick))
	s.settle()
}

func (s *sim) indexOf(c *Coordinator) int {
	for i, r := range s.reps {
		if r.Coordinator() == c {
			return i
		}
	}
	return -1
}

// inject applies a fault step (s.mu held).
func (s *sim) inject(op simOp) {
	switch op.kind {
	case opKill:
		if !s.dead[op.a] {
			s.dead[op.a] = true
			s.cov.fired["kill"]++
		}
	case opCutPeers, opCutNode:
		if s.dead[op.a] {
			return
		}
		s.cut[op.a][op.b] = true
		kind := opNames[op.kind]
		if op.oneWay {
			kind += "/one-way"
		} else {
			s.cut[op.b][op.a] = true
		}
		s.cov.fired[kind]++
	case opDrop, opLate:
		s.oneShot = append(s.oneShot, simFault{from: op.a, to: op.b, late: op.kind == opLate})
	case opNotReady:
		n := s.nodes[op.b-s.k]
		n.mu.Lock()
		n.notReady = true
		n.mu.Unlock()
		s.cov.fired["not-ready"]++
	case opHeal:
		s.heal()
		s.cov.fired["heal"]++
	}
}

// heal clears every partition, one-shot fault and readiness fault (s.mu
// held). Dead replicas stay dead.
func (s *sim) heal() {
	for _, row := range s.cut {
		for j := range row {
			row[j] = false
		}
	}
	s.oneShot = nil
	for _, n := range s.nodes {
		n.mu.Lock()
		n.notReady = false
		n.mu.Unlock()
	}
}

// record appends the step's (step, replica, role, epoch) line.
func (s *sim) record(step int, op simOp) {
	var b strings.Builder
	fmt.Fprintf(&b, "%3d %-22s", step, op)
	for i, r := range s.reps {
		if !s.alive(i) {
			fmt.Fprintf(&b, " r%d:dead", i)
			continue
		}
		fmt.Fprintf(&b, " r%d:%s@%d", i, r.Role(), r.Epoch())
	}
	s.mu.Lock()
	s.trace = append(s.trace, b.String())
	s.mu.Unlock()
}

// converge steps every live replica round-robin after the final heal until
// there is exactly one leader and every live standby holds its journal —
// invariant (iii) — or the round budget runs out.
func (s *sim) converge() (leader int) {
	for round := 0; round < simRounds && !s.failed(); round++ {
		for i := 0; i < s.k; i++ {
			op := simOp{kind: opStep, a: i}
			s.apply(op)
			s.record(len(s.trace), op)
		}
		if c := s.leader(0); c != nil {
			c.probeAll()
			s.settle()
		}
		if l, ok := s.converged(); ok {
			return l
		}
	}
	l, _ := s.converged()
	s.failf("invariant (iii): no single leader with caught-up standbys %d rounds after the final heal (leader %d)", simRounds, l)
	return -1
}

func (s *sim) converged() (int, bool) {
	leader := -1
	for i, r := range s.reps {
		if !s.alive(i) || r.Role() != RoleLeader {
			continue
		}
		if leader >= 0 {
			return leader, false
		}
		leader = i
	}
	if leader < 0 {
		return -1, false
	}
	want := journalCopy(s.reps[leader].journal)
	for i, r := range s.reps {
		if i == leader || !s.alive(i) {
			continue
		}
		if r.Leader() != s.reps[leader].cfg.Self || !reflect.DeepEqual(journalCopy(r.journal), want) {
			return leader, false
		}
	}
	return leader, true
}

func journalCopy(jl *Journal) []Entry {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return append([]Entry(nil), jl.log...)
}

// audit checks invariants (iv) and (v) on the final leader.
func (s *sim) audit(leader int) {
	r := s.reps[leader]
	reg := r.Registry()
	done := reg.Counter("cluster.jobs.done").Value()
	failed := reg.Counter("cluster.jobs.failed").Value()
	ckpt := reg.Counter("cluster.jobs.checkpointed").Value()
	accepted := reg.Counter("cluster.jobs.accepted").Value()
	if done+failed+ckpt != accepted {
		s.failf("invariant (iv): replica %d books done=%d failed=%d checkpointed=%d accepted=%d",
			leader, done, failed, ckpt, accepted)
		return
	}
	if u := r.journal.UnfinishedJobs(); len(u) > 0 {
		c := r.Coordinator()
		j, _ := c.Job(u[0].ID)
		var st JobStatus
		if j != nil {
			st = j.Status()
		}
		s.failf("invariant (iv): %d jobs unfinished in the final leader's journal (first %s) DEBUG %+v journal %s", len(u), u[0].ID, st, r.journal.Summary())
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.acked {
		if _, ok := r.journal.JobView(a.id); ok {
			continue
		}
		if len(s.reached[a.id]) > 0 {
			s.setErr("invariant (v): job %s (acked by replica %d at step %d) reached a peer but is gone from the final leader's journal",
				a.id, a.by, a.step)
			return
		}
		s.cov.lostAllowed++
	}
	for _, n := range s.execs {
		if n > 1 {
			s.cov.nodeReexecute++
		}
	}
	for _, rr := range s.reps {
		s.cov.evictions += int(rr.Registry().Counter("cluster.evictions").Value())
		s.cov.rejoins += int(rr.Registry().Counter("cluster.rejoins").Value())
	}
}

// simResult is one schedule's outcome.
type simResult struct {
	ops   []simOp
	trace []string
	cov   simCoverage
	err   error
}

// runSim runs ops on a k-replica group: the schedule, a final heal, then
// convergence and the audit.
func runSim(k int, ops []simOp) simResult {
	s := newSim(k)
	defer s.close()
	s.start()
	for i, op := range ops {
		if s.failed() {
			break
		}
		s.apply(op)
		s.record(i, op)
	}
	if !s.failed() {
		s.mu.Lock()
		s.heal()
		s.mu.Unlock()
		if l := s.converge(); l >= 0 {
			s.audit(l)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return simResult{ops: ops, trace: s.trace, cov: s.cov, err: s.err}
}

// simK picks the group size for a seed: every fourth schedule runs the
// two-replica group, where the k = 2 rule (promote on lease expiry alone)
// applies.
func simK(seed int64) int {
	if seed%4 == 0 {
		return 2
	}
	return 3
}

func (r simResult) report(seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d (k=%d): %v\nreplay: GZKP_SIM_SEED=%d go test -run TestSimSweep -v ./internal/cluster\ntrace:\n",
		seed, simK(seed), r.err, seed)
	for _, line := range r.trace {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// TestSimScenarios runs named schedules before the random sweep.
func TestSimScenarios(t *testing.T) {
	t.Run("leader_kill_failover", func(t *testing.T) {
		// Two replicas: jobs replicate, the leader dies, the standby
		// promotes after its lease expires and holds every acked job.
		ops := []simOp{{kind: opSubmit, n: 3}, {kind: opStep, a: 0}, {kind: opKill, a: 0}}
		for i := 0; i < 12; i++ {
			ops = append(ops, simOp{kind: opStep, a: 1})
		}
		res := runSim(2, ops)
		if res.err != nil {
			t.Fatal(res.report(0))
		}
		last := res.trace[len(ops)-1]
		if !strings.Contains(last, "r1:leader@2") {
			t.Fatalf("standby did not take over at epoch 2: %s", last)
		}
		if res.cov.lostAllowed != 0 {
			t.Fatalf("%d acked jobs lost although they replicated before the kill", res.cov.lostAllowed)
		}
	})
	t.Run("partition_evicts_and_heals", func(t *testing.T) {
		// Coordinator↔node partition: the probe round evicts the node; after
		// the heal the next probe round rejoins it.
		ops := []simOp{
			{kind: opCutNode, a: 0, b: 3 + 1}, {kind: opProbe}, {kind: opSubmit, n: 2},
			{kind: opHeal}, {kind: opProbe}, {kind: opSubmit, n: 2},
		}
		res := runSim(3, ops)
		if res.err != nil {
			t.Fatal(res.report(0))
		}
		if res.cov.evictions < 1 || res.cov.rejoins < 1 {
			t.Fatalf("evictions=%d rejoins=%d, want the partitioned node evicted and rejoined",
				res.cov.evictions, res.cov.rejoins)
		}
	})
}

// TestSimSweep runs seeded random schedules and asserts coverage, so a
// sweep that stops reaching a path fails.
func TestSimSweep(t *testing.T) {
	if v := os.Getenv("GZKP_SIM_SEED"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("GZKP_SIM_SEED: %v", err)
		}
		res := runSim(simK(seed), genSchedule(seed, simK(seed)))
		t.Log(res.report(seed))
		if res.err != nil {
			t.Fail()
		}
		return
	}
	n := 500
	if v := os.Getenv("GZKP_SIM_SCHEDULES"); v != "" {
		var err error
		if n, err = strconv.Atoi(v); err != nil {
			t.Fatalf("GZKP_SIM_SCHEDULES: %v", err)
		}
	}
	start := time.Now()
	var cov simCoverage
	for seed := int64(1); seed <= int64(n); seed++ {
		res := runSim(simK(seed), genSchedule(seed, simK(seed)))
		if res.err != nil {
			t.Fatal(res.report(seed))
		}
		cov.add(res.cov)
	}
	t.Logf("%d schedules in %v; coverage %+v", n, time.Since(start), cov)
	for _, kind := range []string{"kill", "restart", "cut-peers", "cut-peers/one-way", "cut-node", "cut-node/one-way",
		"drop", "late", "not-ready", "heal"} {
		if cov.fired[kind] == 0 {
			t.Errorf("fault kind %s never fired", kind)
		}
	}
	for name, v := range map[string]int{
		"promotion by a replica other than index 0": cov.promoteOther,
		"409 stepdown":             cov.stepdown409,
		"diverged-tail truncation": cov.diverged,
		"majority refusal":         cov.refusals,
		"node eviction":            cov.evictions,
		"node rejoin":              cov.rejoins,
	} {
		if v == 0 {
			t.Errorf("sweep never reached: %s", name)
		}
	}
}

// TestSimDeterministic: one seed gives one fault schedule and one
// (step, replica, role, epoch) trace.
func TestSimDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		k := simK(seed)
		a, b := genSchedule(seed, k), genSchedule(seed, k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedule differs between generations", seed)
		}
		ra, rb := runSim(k, a), runSim(k, b)
		if !reflect.DeepEqual(ra.trace, rb.trace) {
			t.Fatalf("seed %d: traces differ\nfirst:\n%s\nsecond:\n%s", seed,
				strings.Join(ra.trace, "\n"), strings.Join(rb.trace, "\n"))
		}
	}
}
