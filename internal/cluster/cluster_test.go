package cluster

import (
	"context"
	"fmt"
	"math/big"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/service"
)

// cubicSrc is the reference e2e circuit: x^3+x+5=out, satisfied by
// (out=35, x=3).
const cubicSrc = "public out\nsecret x\nlet y = x^3 + x + 5\nassert y == out\n"

var cubicSpec = service.CircuitSpec{Curve: "bn254", Source: cubicSrc}

// slowCubicSpec is cubicSpec padded with an n-step multiplication chain that
// never reaches out: same inputs, same public value, but a proof that runs
// tens of ms on the serial node config below — long enough for the tests
// that kill a node or a leader mid-job to land the kill inside one (the
// plain cubic proves and verifies in a few ms).
func slowCubicSpec(n int) service.CircuitSpec {
	var b strings.Builder
	b.WriteString("public out\nsecret x\nlet y = x^3 + x + 5\nlet p0 = x * x\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "let p%d = p%d * x\n", i, i-1)
	}
	b.WriteString("assert y == out\n")
	return service.CircuitSpec{Curve: "bn254", Source: b.String()}
}

// fastNodeConfig keeps node-side proofs cheap and deterministic.
func fastNodeConfig() service.Config {
	return service.Config{
		QueueCapacity: 64,
		NTT:           ntt.Config{Strategy: ntt.Serial},
		MSM:           msm.Config{Strategy: msm.PippengerWindows, Workers: 0},
	}
}

type testNode struct {
	name string
	svc  *service.Service
	srv  *httptest.Server
}

// kill simulates abrupt node death: live connections reset, the port
// starts refusing. In-flight forwards see ECONNRESET/EOF; later dials see
// ECONNREFUSED — both classify DeviceLost.
func (n *testNode) kill() {
	n.srv.CloseClientConnections()
	n.srv.Close()
}

// startCluster boots count prover nodes plus a coordinator tuned for
// test-speed probing and retries.
func startCluster(t *testing.T, count int, tune func(*Config)) (*Coordinator, []*testNode) {
	t.Helper()
	var nodes []*testNode
	var specs []NodeSpec
	for i := range count {
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
	cfg := Config{
		Nodes:         specs,
		Replicas:      2,
		ProbeInterval: 30 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
	}
	cfg.Retry.BaseDelay = time.Millisecond
	cfg.Retry.MaxDelay = 10 * time.Millisecond
	if tune != nil {
		tune(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, nodes
}

// verifyProof client-side-verifies a compressed proof against a
// registration's verifying key for the cubic circuit's public input.
func verifyProof(t *testing.T, vkBytes, proofBytes []byte) {
	t.Helper()
	vk, err := groth16.UnmarshalVerifyingKeyAuto(vkBytes)
	if err != nil {
		t.Fatalf("vk decode: %v", err)
	}
	proof, err := groth16.UnmarshalProofAuto(proofBytes)
	if err != nil {
		t.Fatalf("proof decode: %v", err)
	}
	f := curve.Get(vk.CurveID).Fr
	pub := []ff.Element{f.FromBig(big.NewInt(35))}
	if err := groth16.Verify(vk, proof, pub); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
}

// TestClusterKillNodeMidLoad is the ISSUE's acceptance e2e: a 3-node
// cluster under concurrent load, one node killed while it has work in
// flight. Every accepted job must reach a verified terminal state — the
// dead node's jobs migrate to survivors, zero lost, zero failed — and the
// prober must evict the corpse.
func TestClusterKillNodeMidLoad(t *testing.T) {
	c, nodes := startCluster(t, 3, nil)
	info, err := c.Register(slowCubicSpec(1024))
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	const jobs = 24
	var accepted []*Job
	for i := 0; i < jobs; i++ {
		j, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		accepted = append(accepted, j)
	}

	// Pick a replica holder and wait until it provably has work in
	// flight, then kill it abruptly.
	var doomed *testNode
	deadline := time.Now().Add(10 * time.Second)
	for doomed == nil {
		if time.Now().After(deadline) {
			t.Fatal("no replica holder accumulated in-flight work")
		}
		for _, ns := range c.Nodes() {
			if ns.Alive && ns.Circuits > 0 && ns.Inflight > 0 {
				for _, n := range nodes {
					if n.name == ns.Name {
						doomed = n
					}
				}
				break
			}
		}
	}
	doomed.kill()
	t.Logf("killed %s mid-load", doomed.name)

	for i, j := range accepted {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d (%s) never reached a terminal state", i, j.ID)
		}
	}
	migrated := 0
	for i, j := range accepted {
		if st := j.State(); st != service.JobDone {
			t.Fatalf("job %d (%s) state %v, want done (status: %+v)", i, j.ID, st, j.Status())
		}
		st := j.Status()
		verifyProof(t, info.VerifyingKey, st.Proof)
		migrated += st.Migrations
	}
	if migrated == 0 {
		t.Fatal("killed a node with in-flight work but no job migrated")
	}

	reg := c.Registry()
	if got := reg.Counter("cluster.jobs.done").Value(); got != jobs {
		t.Fatalf("done counter %d, want %d", got, jobs)
	}
	if got := reg.Counter("cluster.jobs.failed").Value(); got != 0 {
		t.Fatalf("failed counter %d, want 0", got)
	}
	if got := reg.Counter("cluster.jobs.migrated").Value(); got == 0 {
		t.Fatal("migrated counter is 0 after node death")
	}

	// The prober must notice the corpse and evict it.
	evictDeadline := time.Now().Add(10 * time.Second)
	for c.NodesAlive() != 2 {
		if time.Now().After(evictDeadline) {
			t.Fatalf("dead node never evicted: %d alive, want 2", c.NodesAlive())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter("cluster.evictions").Value(); got < 1 {
		t.Fatalf("evictions counter %d, want >= 1", got)
	}
}

// TestClusterRegisterSurvivesKeyLoss kills a circuit's replica holders
// and proves the coordinator re-registers from its cached key bundle —
// never a cold trusted setup, and proofs still verify under the ORIGINAL
// verifying key (same CRS, which independent setups could not give).
func TestClusterRegisterSurvivesKeyLoss(t *testing.T) {
	c, nodes := startCluster(t, 3, func(cfg *Config) {
		cfg.Replicas = 1 // a single holder makes total key loss cheap to stage
	})
	info, err := c.Register(cubicSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	// Kill every node that holds the circuit's keys.
	killed := 0
	for _, ns := range c.Nodes() {
		if ns.Circuits > 0 {
			for _, n := range nodes {
				if n.name == ns.Name {
					n.kill()
					killed++
				}
			}
		}
	}
	if killed == 0 {
		t.Fatal("no node held the circuit")
	}

	j, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"})
	if err != nil {
		t.Fatalf("submit after key loss: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("job never finished after key loss")
	}
	if st := j.State(); st != service.JobDone {
		t.Fatalf("job state %v, want done (status: %+v)", st, j.Status())
	}
	// Proof from the re-registered replica verifies under the original vk:
	// the keys were replicated, not regenerated.
	verifyProof(t, info.VerifyingKey, j.Status().Proof)
	if got := c.Registry().Counter("cluster.circuits.reregistered").Value(); got < 1 {
		t.Fatalf("reregistered counter %d, want >= 1", got)
	}
}

// TestClusterDrainRestore is the second acceptance e2e: drain a loaded
// cluster on a short per-node budget, collect the single merged
// checkpoint, and restore it into a FRESH cluster which completes every
// stranded job. Replaying the checkpoint twice must not double-submit.
func TestClusterDrainRestore(t *testing.T) {
	c, _ := startCluster(t, 2, func(cfg *Config) {
		// A per-node drain budget well under the load below, so jobs are
		// stranded (a cubic proof with its verification runs ~5 ms on one
		// device; 20 of them over two nodes need tens of ms).
		cfg.NodeDrainTimeout = 2 * time.Millisecond
	})
	info, err := c.Register(cubicSpec)
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	const jobs = 20
	for i := 0; i < jobs; i++ {
		if _, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := c.Drain(ctx)
	if err != nil {
		t.Fatalf("cluster drain: %v", err)
	}
	reg := c.Registry()
	done := reg.Counter("cluster.jobs.done").Value()
	checkpointed := reg.Counter("cluster.jobs.checkpointed").Value()
	if got := reg.Counter("cluster.jobs.failed").Value(); got != 0 {
		t.Fatalf("failed counter %d, want 0", got)
	}
	if done+checkpointed != jobs {
		t.Fatalf("done %d + checkpointed %d != accepted %d: jobs lost", done, checkpointed, jobs)
	}
	if rep.Checkpoint == nil || len(rep.Checkpoint.Jobs) == 0 {
		t.Fatalf("drain stranded %d jobs but produced no checkpoint", checkpointed)
	}
	if int64(len(rep.Checkpoint.Jobs)) != checkpointed {
		t.Fatalf("checkpoint carries %d jobs, counters say %d", len(rep.Checkpoint.Jobs), checkpointed)
	}
	if _, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"}); err == nil {
		t.Fatal("submit after drain succeeded, want ErrDraining")
	}

	// A fresh cluster restores the merged checkpoint and completes it.
	fresh, _ := startCluster(t, 2, nil)
	n1, err := fresh.Restore(rep.Checkpoint)
	if err != nil {
		t.Fatalf("restore into fresh cluster: %v", err)
	}
	if int64(n1) != checkpointed {
		t.Fatalf("restore submitted %d jobs, want %d", n1, checkpointed)
	}
	n2, err := fresh.Restore(rep.Checkpoint)
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if n2 != 0 {
		t.Fatalf("second restore submitted %d jobs, want 0 (idempotent)", n2)
	}

	// Every restored job runs to completion on the fresh cluster.
	fresh.mu.Lock()
	restored := make([]*Job, 0, len(fresh.jobs))
	for _, j := range fresh.jobs {
		restored = append(restored, j)
	}
	fresh.mu.Unlock()
	for _, j := range restored {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("restored job %s never reached a terminal state", j.ID)
		}
	}
	freg := fresh.Registry()
	if got := freg.Counter("cluster.jobs.done").Value(); got != checkpointed {
		t.Fatalf("fresh cluster finished %d jobs, want %d", got, checkpointed)
	}
	if got := freg.Counter("cluster.jobs.failed").Value(); got != 0 {
		t.Fatalf("fresh cluster failed counter %d, want 0", got)
	}

	// Restored proofs verify under the fresh cluster's verifying key (a
	// fresh trusted setup: the checkpoint ships inputs, not keys).
	freshInfo, err := fresh.Circuit(service.CircuitIDFor(cubicSpec))
	if err != nil {
		t.Fatalf("fresh circuit: %v", err)
	}
	verified := 0
	for _, j := range restored {
		if j.State() != service.JobDone {
			t.Fatalf("restored job %s state %v, want done", j.ID, j.State())
		}
		verifyProof(t, freshInfo.VerifyingKey, j.Status().Proof)
		verified++
	}
	if int64(verified) != checkpointed {
		t.Fatalf("verified %d restored proofs, want %d", verified, checkpointed)
	}
}
