package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gzkp/internal/service"
)

// testReplica is one coordinator replica behind a real HTTP listener.
// The listener outlives the replica pointer (peers need the URL before
// NewReplica can run), so the handler dereferences atomically.
type testReplica struct {
	name string
	rep  *Replica
	srv  *httptest.Server
	slot *atomic.Pointer[Replica]
}

// kill simulates process death: the listener starts refusing, then the
// replica stops heartbeating and abandons its coordinator.
func (r *testReplica) kill() {
	r.srv.CloseClientConnections()
	r.srv.Close()
	r.rep.Close()
}

func startNodes(t *testing.T, count int) ([]*testNode, []NodeSpec) {
	t.Helper()
	var nodes []*testNode
	var specs []NodeSpec
	for i := 0; i < count; i++ {
		svc := service.New(fastNodeConfig())
		srv := httptest.NewServer(service.NewHandler(svc))
		n := &testNode{name: fmt.Sprintf("node-%d", i), svc: svc, srv: srv}
		nodes = append(nodes, n)
		specs = append(specs, NodeSpec{Name: n.name, URL: srv.URL})
		t.Cleanup(func() {
			n.srv.Close()
			n.svc.Close()
		})
	}
	return nodes, specs
}

// startReplicaGroup boots len(names) coordinator replicas over the given
// nodes with test-speed leases. tune can inspect cfg.Self to customize
// one member.
func startReplicaGroup(t *testing.T, names []string, specs []NodeSpec, tune func(*ReplicaConfig)) []*testReplica {
	t.Helper()
	slots := make([]*atomic.Pointer[Replica], len(names))
	var peers []PeerSpec
	var reps []*testReplica
	for i, name := range names {
		slot := &atomic.Pointer[Replica]{}
		slots[i] = slot
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if rep := slot.Load(); rep != nil {
				rep.ServeHTTP(w, req)
				return
			}
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		t.Cleanup(srv.Close)
		peers = append(peers, PeerSpec{Name: name, URL: srv.URL})
		reps = append(reps, &testReplica{name: name, srv: srv, slot: slot})
	}
	for i, name := range names {
		cfg := ReplicaConfig{
			Self:          name,
			Peers:         peers,
			LeaseInterval: 25 * time.Millisecond,
			// A TTL of 40 intervals: under -race on two cores a beat can
			// stall for hundreds of ms, and a standby that elects on such a
			// stall flaps leadership in the middle of an assertion.
			LeaseTTL: time.Second,
			Cluster: Config{
				Nodes:         specs,
				Replicas:      2,
				ProbeInterval: 20 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
				FailThreshold: 2,
			},
			Logf: t.Logf,
		}
		cfg.Cluster.Retry.BaseDelay = time.Millisecond
		cfg.Cluster.Retry.MaxDelay = 10 * time.Millisecond
		if tune != nil {
			tune(&cfg)
		}
		rep, err := NewReplica(cfg)
		if err != nil {
			t.Fatalf("replica %s: %v", name, err)
		}
		reps[i].rep = rep
		slots[i].Store(rep)
		t.Cleanup(rep.Close)
	}
	for _, r := range reps {
		r.rep.Start()
	}
	return reps
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaFailoverMidLoad is the HA acceptance e2e: two coordinator
// replicas over three nodes, jobs in flight, leader killed. The standby
// must promote within the lease budget and every accepted job must land
// done with a verifying proof — none lost, none failed, and none
// executed twice (the node-side accepted total stays exactly one per
// cluster job, because re-forwards dedupe on the cluster job id).
func TestReplicaFailoverMidLoad(t *testing.T) {
	nodes, specs := startNodes(t, 3)
	reps := startReplicaGroup(t, []string{"coordA", "coordB"}, specs, nil)
	a, b := reps[0], reps[1]

	waitFor(t, 5*time.Second, "initial leader", func() bool { return a.rep.Role() == RoleLeader })
	coordA := a.rep.Coordinator()
	info, err := coordA.Register(slowCubicSpec(1024))
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	const jobs = 12
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := coordA.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}
	if ids[0] != "cj-coordA-00000001" {
		t.Fatalf("job id = %q, want coordinator-scoped cj-coordA-...", ids[0])
	}

	// Let replication carry every job past "accepted" into the standby's
	// journal — once each job is journaled as forwarded (or terminal),
	// the new leader's re-forwards are guaranteed to target the node
	// already holding the job, so the node-side dedupe can attach.
	waitFor(t, 10*time.Second, "standby journal to see all forwards", func() bool {
		for _, id := range ids {
			st, ok := b.rep.Journal().JobView(id)
			if !ok || st.State == "queued" {
				return false
			}
		}
		return true
	})

	unfinishedAtKill := len(b.rep.Journal().UnfinishedJobs())
	a.kill()

	waitFor(t, 5*time.Second, "standby promotion", func() bool { return b.rep.Coordinator() != nil })
	if got := b.rep.Epoch(); got != 2 {
		t.Fatalf("post-takeover epoch = %d, want 2", got)
	}
	coordB := b.rep.Coordinator()

	// Every accepted job must reach "done" — either it finished under the
	// old leader (terminal in the journal) or the new leader re-drove it.
	waitFor(t, 20*time.Second, "all jobs terminal", func() bool {
		for _, id := range ids {
			if st, ok := b.rep.Journal().JobView(id); ok && st.State == "done" {
				continue
			}
			j, err := coordB.Job(id)
			if err != nil || j.State() != service.JobDone {
				return false
			}
		}
		return true
	})

	// Proofs produced after takeover must verify client-side.
	verified := 0
	for _, id := range ids {
		j, err := coordB.Job(id)
		if err != nil {
			continue // finished under the old leader; journal says done
		}
		st := j.Status()
		if st.State != "done" {
			t.Fatalf("job %s state %s after takeover", id, st.State)
		}
		verifyProof(t, info.VerifyingKey, st.Proof)
		verified++
	}
	if unfinishedAtKill > 0 && verified == 0 {
		t.Fatalf("%d jobs were unfinished at kill but none re-driven", unfinishedAtKill)
	}
	t.Logf("unfinished at kill: %d, verified post-takeover: %d", unfinishedAtKill, verified)

	// No double execution: each cluster job was accepted by exactly one
	// node-side service exactly once; re-forwards attached via dedupe.
	var nodeAccepted, nodeDeduped int64
	for _, n := range nodes {
		nodeAccepted += n.svc.Registry().Counter("service.jobs.accepted").Value()
		nodeDeduped += n.svc.Registry().Counter("service.jobs.deduped").Value()
	}
	if nodeAccepted != jobs {
		t.Fatalf("node-side accepted = %d, want exactly %d (deduped %d)", nodeAccepted, jobs, nodeDeduped)
	}

	// The promoted leader's books balance: done+failed+checkpointed ==
	// accepted, with zero failures.
	reg := b.rep.Registry()
	done := reg.Counter("cluster.jobs.done").Value()
	failed := reg.Counter("cluster.jobs.failed").Value()
	checkpointed := reg.Counter("cluster.jobs.checkpointed").Value()
	accepted := reg.Counter("cluster.jobs.accepted").Value()
	if failed != 0 || done+failed+checkpointed != accepted {
		t.Fatalf("books: done=%d failed=%d checkpointed=%d accepted=%d", done, failed, checkpointed, accepted)
	}
	// Exactly the jobs the new leader holds were re-driven. That can be
	// fewer than the standby's journal showed just before the kill: a job
	// that finishes, and replicates, between that read and the halt is
	// terminal by takeover (a few ms per job makes the window reachable).
	if redriven := reg.Counter("cluster.jobs.redriven").Value(); redriven != int64(verified) || verified > unfinishedAtKill {
		t.Fatalf("redriven = %d, want %d (unfinished at kill %d)", redriven, verified, unfinishedAtKill)
	}
	if reg.Counter("cluster.ha.promotions").Value() != 1 {
		t.Fatal("promotion not counted")
	}
}

// TestRegisterReplicatesAsync: registration returns as soon as the
// primary holds the keys; the remaining replica targets fill in off the
// register path, tracked by the replication_pending gauge and the
// replicated counter.
func TestRegisterReplicatesAsync(t *testing.T) {
	c, _ := startCluster(t, 3, nil) // Replicas: 2
	if _, err := c.Register(cubicSpec); err != nil {
		t.Fatalf("register: %v", err)
	}
	reg := c.Registry()
	waitFor(t, 10*time.Second, "async key replication to finish", func() bool {
		return reg.Counter("cluster.circuits.replicated").Value() == 1 &&
			reg.Gauge("cluster.replication_pending").Value() == 0
	})
	holders := 0
	for _, ns := range c.Nodes() {
		if ns.Circuits > 0 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d nodes hold the circuit, want 2 (primary + async replica)", holders)
	}
}

// TestReplicaRedirectAndReadOnly: a standby answers reads from its
// journal and 307-redirects writes to the leader; Go clients follow the
// redirect transparently, so the standby's URL is a fully usable
// endpoint for the whole API.
func TestReplicaRedirectAndReadOnly(t *testing.T) {
	_, specs := startNodes(t, 2)
	reps := startReplicaGroup(t, []string{"coordA", "coordB"}, specs, nil)
	a, b := reps[0], reps[1]
	waitFor(t, 5*time.Second, "initial leader", func() bool { return a.rep.Role() == RoleLeader })
	waitFor(t, 5*time.Second, "standby adopts leader", func() bool { return b.rep.Leader() == "coordA" })

	// Raw write to the standby: a 307 pointing at the leader.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	spec, _ := json.Marshal(cubicSpec)
	resp, err := noFollow.Post(b.srv.URL+"/v1/circuits", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("standby write = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != a.srv.URL+"/v1/circuits" {
		t.Fatalf("redirect location = %q, want leader", loc)
	}

	// A default client follows the redirect: registering and proving
	// through the standby just works.
	resp, err = http.Post(b.srv.URL+"/v1/circuits", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var info service.CircuitInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register via standby = %d", resp.StatusCode)
	}
	body, _ := json.Marshal(service.ProveRequest{
		CircuitID: info.CircuitID, Public: []string{"35"}, Secret: []string{"3"},
	})
	resp, err = http.Post(b.srv.URL+"/v1/prove", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("prove via standby = %d state %q", resp.StatusCode, st.State)
	}
	verifyProof(t, info.VerifyingKey, st.Proof)

	// Standby read-only surface: /readyz says standby, /v1/nodes serves
	// from config+journal, and a replicated job resolves from the journal.
	resp, err = http.Get(b.srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("standby readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(b.srv.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodeList []NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&nodeList); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(nodeList) != 2 || !nodeList[0].Alive {
		t.Fatalf("standby /v1/nodes = %d %+v", resp.StatusCode, nodeList)
	}
	waitFor(t, 5*time.Second, "job replicated to standby journal", func() bool {
		got, ok := b.rep.Journal().JobView(st.ID)
		return ok && got.State == "done"
	})
	resp, err = http.Get(b.srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("standby job read = %d, want 200 from journal", resp.StatusCode)
	}

	// An id the journal does not hold is NOT authoritatively absent (the
	// journal lags the leader by up to a heartbeat): the standby must
	// redirect rather than 404, so a client polling a just-accepted job
	// never sees a spurious Fatal. Only the leader may say 404.
	resp, err = noFollow.Get(b.srv.URL + "/v1/jobs/cj-coordA-99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("standby unknown-job read = %d, want 307 to leader", resp.StatusCode)
	}
	resp, err = http.Get(b.srv.URL + "/v1/jobs/cj-coordA-99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("leader's answer for unknown job = %d, want authoritative 404", resp.StatusCode)
	}
	resp, err = noFollow.Get(b.srv.URL + "/v1/circuits/no-such-circuit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("standby unknown-circuit read = %d, want 307 to leader", resp.StatusCode)
	}
}

// deadURL refuses every connection instantly (reserved port).
const deadURL = "http://127.0.0.1:1"

// soloReplicaConfig builds a replica config whose peers and nodes are
// unreachable — for white-box tests that drive promote/heartbeat/elect
// directly without a live group behind them.
func soloReplicaConfig(self string, peers []PeerSpec) ReplicaConfig {
	cfg := ReplicaConfig{
		Self:             self,
		Peers:            peers,
		LeaseInterval:    10 * time.Millisecond,
		LeaseTTL:         30 * time.Millisecond,
		ReplicateTimeout: 200 * time.Millisecond,
		Cluster: Config{
			Nodes:         []NodeSpec{{Name: "n0", URL: deadURL}},
			Replicas:      1,
			ProbeInterval: 10 * time.Millisecond,
			ProbeTimeout:  50 * time.Millisecond,
			FailThreshold: 2,
		},
	}
	cfg.Cluster.Retry.BaseDelay = time.Millisecond
	cfg.Cluster.Retry.MaxDelay = 5 * time.Millisecond
	return cfg
}

// TestPromoteResetsPeerAcks: acks recorded during an earlier reign must
// not survive promotion — a peer may have truncated below them under
// another leader, and a from > peer-seq heartbeat combined with a
// raise-only ack would wedge replication to that standby forever while
// its lease kept renewing (silent durability loss on the next failover).
func TestPromoteResetsPeerAcks(t *testing.T) {
	rep, err := NewReplica(soloReplicaConfig("coordB", []PeerSpec{
		{Name: "coordA", URL: deadURL}, {Name: "coordB", URL: deadURL},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rep.mu.Lock()
	rep.acked["coordA"] = 42 // stale leftover from a previous leadership
	rep.mu.Unlock()
	rep.promote(2)
	rep.mu.Lock()
	got, present := rep.acked["coordA"]
	rep.mu.Unlock()
	if present || got != 0 {
		t.Fatalf("acked[coordA] after promote = %d (present=%v), want reset", got, present)
	}
	if rep.Role() != RoleLeader {
		t.Fatalf("role after promote = %s", rep.Role())
	}
}

// TestHeartbeatAdoptsLowerAck: the follower's ack is authoritative in
// both directions. When the leader's recorded ack exceeds the peer's
// real contiguous seq (stale state from any path), the peer acks lower
// and the leader must adopt it so the next beat resends from the truth.
func TestHeartbeatAdoptsLowerAck(t *testing.T) {
	follower := NewJournal(nil)
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var in replicateRequest
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			t.Errorf("bad replicate body: %v", err)
		}
		ack := follower.Ingest(in.FromSeq, in.Entries)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(replicateResponse{Ack: ack, Epoch: in.Epoch, Leader: in.From})
	}))
	defer peerSrv.Close()

	rep, err := NewReplica(soloReplicaConfig("coordA", []PeerSpec{
		{Name: "coordA", URL: deadURL}, {Name: "coordB", URL: peerSrv.URL},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Lead without a coordinator: heartbeatOne needs only role, epoch,
	// and the journal.
	rep.mu.Lock()
	rep.role = RoleLeader
	rep.epoch = 3
	rep.acked["coordB"] = 42 // stale: the follower actually holds nothing
	rep.mu.Unlock()
	for _, id := range []string{"j1", "j2", "j3"} {
		rep.journal.Append(acceptedEntry(id, "c1"))
	}

	peer := PeerSpec{Name: "coordB", URL: peerSrv.URL}
	rep.heartbeatOne(peer)
	rep.mu.Lock()
	got := rep.acked["coordB"]
	rep.mu.Unlock()
	if got != 0 {
		t.Fatalf("acked after stale-from heartbeat = %d, want 0 (peer's truth)", got)
	}

	// The next beat resends from 0 and replication converges.
	rep.heartbeatOne(peer)
	if follower.Seq() != 3 {
		t.Fatalf("follower seq after resync = %d, want 3", follower.Seq())
	}
	rep.mu.Lock()
	got = rep.acked["coordB"]
	rep.mu.Unlock()
	if got != 3 {
		t.Fatalf("acked after resync = %d, want 3", got)
	}
}

// TestElectRefusesWithoutMajority: in a group of three, a standby that
// can reach no peer (the symmetric-partition minority view) keeps
// running elections but never promotes — the majority gate is what
// keeps both sides of a partition from leading at once for k >= 3.
func TestElectRefusesWithoutMajority(t *testing.T) {
	cfg := soloReplicaConfig("coordC", []PeerSpec{
		{Name: "coordA", URL: deadURL}, {Name: "coordB", URL: deadURL}, {Name: "coordC", URL: deadURL},
	})
	cfg.Logf = t.Logf
	rep, err := NewReplica(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rep.Start()
	waitFor(t, 5*time.Second, "repeated election attempts", func() bool {
		return rep.Registry().Counter("cluster.ha.elections").Value() >= 3
	})
	if rep.Role() != RoleStandby {
		t.Fatalf("isolated minority replica promoted to %s", rep.Role())
	}
	if n := rep.Registry().Counter("cluster.ha.promotions").Value(); n != 0 {
		t.Fatalf("promotions = %d, want 0 without a majority", n)
	}
}

// TestReplicaEpochArbitration drives the split-brain protocol directly:
// a leader receiving a replicate from a higher epoch steps down; a stale
// sender gets 409 with the winning claim; an equal-epoch duel goes to
// the lower peer index.
func TestReplicaEpochArbitration(t *testing.T) {
	_, specs := startNodes(t, 1)
	reps := startReplicaGroup(t, []string{"coordA", "coordB"}, specs, nil)
	a := reps[0]
	waitFor(t, 5*time.Second, "initial leader", func() bool { return a.rep.Role() == RoleLeader })

	post := func(from string, epoch uint64) (*http.Response, replicateResponse) {
		t.Helper()
		body, _ := json.Marshal(replicateRequest{From: from, Epoch: epoch})
		resp, err := http.Post(a.srv.URL+"/v1/cluster/replicate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr replicateResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp, rr
	}

	// Equal-epoch duel from a higher-indexed peer: the leader keeps the
	// lease and answers 409 with its own claim.
	resp, rr := post("coordB", a.rep.Epoch())
	if resp.StatusCode != http.StatusConflict || rr.Leader != "coordA" {
		t.Fatalf("equal-epoch duel: %d %+v, want 409 leader coordA", resp.StatusCode, rr)
	}
	if a.rep.Role() != RoleLeader {
		t.Fatal("leader lost an equal-epoch duel it should win")
	}

	// A higher epoch deposes the leader on the spot.
	resp, _ = post("coordB", 7)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("higher-epoch replicate = %d, want 200", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, "leader steps down", func() bool { return a.rep.Role() == RoleStandby })
	if a.rep.Epoch() != 7 || a.rep.Leader() != "coordB" {
		t.Fatalf("post-stepdown epoch=%d leader=%q, want 7/coordB", a.rep.Epoch(), a.rep.Leader())
	}
	if a.rep.Registry().Counter("cluster.ha.stepdowns").Value() != 1 {
		t.Fatal("stepdown not counted")
	}
	if a.rep.Coordinator() != nil {
		t.Fatal("deposed leader still exposes a coordinator")
	}

	// The deposed leader now rejects claims staler than what it knows.
	resp, rr = post("coordA", 3)
	if resp.StatusCode != http.StatusConflict || rr.Epoch != 7 || rr.Leader != "coordB" {
		t.Fatalf("stale replicate: %d %+v, want 409 epoch 7 leader coordB", resp.StatusCode, rr)
	}
}
