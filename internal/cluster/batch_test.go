package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/service"
)

// postJSON posts v as JSON and returns the response plus its full body.
func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// startFusedCluster boots nodes that group up to 8 same-circuit jobs per
// dispatch, so forwarded batches exercise node-side fusion, not just the
// route.
func startFusedCluster(t *testing.T, count int) (*Coordinator, []*testNode) {
	t.Helper()
	var nodes []*testNode
	var specs []NodeSpec
	for i := 0; i < count; i++ {
		cfg := fastNodeConfig()
		cfg.MaxBatch = 8
		svc := service.New(cfg)
		srv := httptest.NewServer(service.NewHandler(svc))
		n := &testNode{name: fmt.Sprintf("node-%d", i), svc: svc, srv: srv}
		nodes = append(nodes, n)
		specs = append(specs, NodeSpec{Name: n.name, URL: srv.URL})
		t.Cleanup(func() {
			n.srv.Close()
			n.svc.Close()
		})
	}
	ccfg := Config{
		Nodes:         specs,
		Replicas:      2,
		ProbeInterval: 30 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		FailThreshold: 2,
	}
	ccfg.Retry.BaseDelay = time.Millisecond
	ccfg.Retry.MaxDelay = 10 * time.Millisecond
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, nodes
}

// TestClusterProveBatchForwarding drives the coordinator's batch routes
// end to end: a prove-batch forwarded to one replica comes back with k
// verified proofs, verify-batch accepts them (and rejects a tampered
// set), and after the holding node dies the next batch fails over to the
// surviving replica.
func TestClusterProveBatchForwarding(t *testing.T) {
	c, nodes := startFusedCluster(t, 2)
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)

	info, err := c.Register(cubicSpec)
	if err != nil {
		t.Fatal(err)
	}
	vk, err := groth16.UnmarshalVerifyingKeyAuto(info.VerifyingKey)
	if err != nil {
		t.Fatal(err)
	}
	f := curve.Get(vk.CurveID).Fr

	batchInputs := func(xs ...int64) ([]service.ProofInput, [][]string) {
		ins := make([]service.ProofInput, len(xs))
		pubs := make([][]string, len(xs))
		for i, x := range xs {
			out := fmt.Sprint(x*x*x + x + 5)
			ins[i] = service.ProofInput{Public: []string{out}, Secret: []string{fmt.Sprint(x)}}
			pubs[i] = []string{out}
		}
		return ins, pubs
	}
	postBatch := func(inputs []service.ProofInput) *service.ProveBatchResponse {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/v1/prove-batch", service.ProveBatchRequest{
			CircuitID: info.CircuitID, Proofs: inputs,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("prove-batch: %d %s", resp.StatusCode, body)
		}
		var pb service.ProveBatchResponse
		if err := json.Unmarshal(body, &pb); err != nil {
			t.Fatal(err)
		}
		return &pb
	}
	checkProofs := func(pb *service.ProveBatchResponse, pubs [][]string) [][]byte {
		t.Helper()
		if len(pb.Jobs) != len(pubs) {
			t.Fatalf("got %d jobs, want %d", len(pb.Jobs), len(pubs))
		}
		blobs := make([][]byte, len(pb.Jobs))
		for i, js := range pb.Jobs {
			if js.State != "done" {
				t.Fatalf("job %d state %q (err %q)", i, js.State, js.Error)
			}
			proof, err := groth16.UnmarshalProofAuto(js.Proof)
			if err != nil {
				t.Fatal(err)
			}
			v := new(big.Int)
			v.SetString(pubs[i][0], 10)
			if err := groth16.Verify(vk, proof, []ff.Element{f.FromBig(v)}); err != nil {
				t.Fatalf("job %d proof rejected: %v", i, err)
			}
			blobs[i] = js.Proof
		}
		return blobs
	}

	inputs, pubs := batchInputs(2, 3, 5)
	blobs := checkProofs(postBatch(inputs), pubs)
	if got := c.Registry().Snapshot().Counters["cluster.batches.forwarded"]; got < 1 {
		t.Fatalf("batch forward not counted: %d", got)
	}

	// Batch verification through the coordinator.
	resp, body := postJSON(t, srv.URL+"/v1/verify-batch", service.VerifyBatchRequest{
		CircuitID: info.CircuitID, Proofs: blobs, Publics: pubs,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("verify-batch: %d %s", resp.StatusCode, body)
	}
	badPubs := append([][]string(nil), pubs...)
	badPubs[0] = []string{"999"}
	resp, _ = postJSON(t, srv.URL+"/v1/verify-batch", service.VerifyBatchRequest{
		CircuitID: info.CircuitID, Proofs: blobs, Publics: badPubs,
	})
	if resp.StatusCode != 400 {
		t.Fatalf("tampered verify-batch returned %d, want 400", resp.StatusCode)
	}

	// Failover: with Replicas=2 both nodes hold the circuit; kill one and
	// the next batch must land on the survivor.
	nodes[0].kill()
	inputs, pubs = batchInputs(4, 7)
	checkProofs(postBatch(inputs), pubs)
}
