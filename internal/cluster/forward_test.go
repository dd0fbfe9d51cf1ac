package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gzkp/internal/resilience"
	"gzkp/internal/service"
)

// fakeNode is a scripted prover for the forward loop's tests: the first
// call on its work route (prove, prove-batch or verify-batch) gets first,
// every later one gets ok. Key imports always succeed.
type fakeNode struct {
	srv   *httptest.Server
	calls atomic.Int32 // work-route calls
}

func newFakeNode(t *testing.T, first, ok http.HandlerFunc) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/circuits/import" {
			service.WriteJSON(w, http.StatusCreated, service.CircuitInfo{})
			return
		}
		if n.calls.Add(1) == 1 && first != nil {
			first(w, r)
			return
		}
		ok(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

func answerJSON(code int, retryAfter string, v any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		service.WriteJSON(w, code, v)
	}
}

// hangUp reads the request, then closes the connection without a response
// — a node dying mid-request.
func hangUp(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	conn, _, err := w.(http.Hijacker).Hijack()
	if err == nil {
		conn.Close()
	}
}

const fakeCircuit = "fake-circuit"

// fakeCluster fronts a and b with a coordinator whose circuit lives on a
// alone, so work reaches b only by migration (b takes the keys through
// replaceReplica). Backoff waits are recorded, not slept.
func fakeCluster(t *testing.T, a, b *fakeNode) (*Coordinator, *[]time.Duration) {
	t.Helper()
	var mu sync.Mutex
	slept := &[]time.Duration{}
	cfg := Config{
		Nodes:         []NodeSpec{{Name: "a", URL: a.srv.URL}, {Name: "b", URL: b.srv.URL}},
		Replicas:      1,
		ProbeInterval: time.Hour,
		FailThreshold: 10,
	}
	cfg.Retry.Sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*slept = append(*slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.InstallCircuit(CircuitRecord{
		ID: fakeCircuit, Info: service.CircuitInfo{CircuitID: fakeCircuit},
		Keys: &service.KeyBundle{CircuitID: fakeCircuit},
	})
	c.markHolds("a", fakeCircuit)
	return c, slept
}

// post sends one request through the coordinator's HTTP edge.
func post(t *testing.T, c *Coordinator, path string, body any) int {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewHandler(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob)))
	return rec.Code
}

var twoInputs = []service.ProofInput{
	{Public: []string{"35"}, Secret: []string{"3"}},
	{Public: []string{"35"}, Secret: []string{"3"}},
}

// TestForwardClassification pins that a solo job, a batch and a
// verify-batch take the same action on each node answer, because they run
// the same forward loop: 429 and 503 retry on the node (honoring
// Retry-After), a 202 detach moves the work to the other node without a
// strike, a dead connection moves it with one, and
// 400/404 fail with the node's status.
func TestForwardClassification(t *testing.T) {
	kinds := []struct {
		name, path string
		body       any
		jobs       int64
		ok         http.HandlerFunc
	}{
		{"solo", "/v1/prove",
			service.ProveRequest{CircuitID: fakeCircuit, Public: []string{"35"}, Secret: []string{"3"}},
			1, answerJSON(200, "", service.JobStatus{State: "done"})},
		{"batch", "/v1/prove-batch",
			service.ProveBatchRequest{CircuitID: fakeCircuit, Proofs: twoInputs},
			2, answerJSON(200, "", service.ProveBatchResponse{Jobs: []service.JobStatus{{State: "done"}, {State: "done"}}})},
		{"verify", "/v1/verify-batch",
			service.VerifyBatchRequest{CircuitID: fakeCircuit, Proofs: [][]byte{{1}, {2}}, Publics: [][]string{{"1"}, {"2"}}},
			0, answerJSON(200, "", service.VerifyBatchResponse{OK: true, Proofs: 2})},
	}
	const (
		retry = iota
		migrate
		fail
	)
	answers := []struct {
		name   string
		first  http.HandlerFunc
		action int
		strike int64
		status int // at the coordinator's edge
	}{
		{"429", answerJSON(429, "1", service.APIError{Error: "busy"}), retry, 0, 200},
		{"503", answerJSON(503, "", service.APIError{Error: "not ready"}), retry, 0, 200},
		{"202", answerJSON(202, "", service.JobStatus{State: "running"}), migrate, 0, 200},
		{"400", answerJSON(400, "", service.APIError{Error: "bad input"}), fail, 0, 400},
		{"404", answerJSON(404, "", service.APIError{Error: "unknown"}), fail, 0, 404},
		{"hangup", hangUp, migrate, 1, 200},
	}
	for _, ans := range answers {
		for _, kind := range kinds {
			t.Run(ans.name+"/"+kind.name, func(t *testing.T) {
				a := newFakeNode(t, ans.first, kind.ok)
				b := newFakeNode(t, nil, kind.ok)
				c, slept := fakeCluster(t, a, b)
				if got := post(t, c, kind.path, kind.body); got != ans.status {
					t.Fatalf("edge status %d, want %d", got, ans.status)
				}
				wantA, wantB := int32(1), int32(0)
				switch ans.action {
				case retry:
					wantA = 2
					if len(*slept) == 0 {
						t.Fatal("retried without backing off")
					}
					if ans.name == "429" && (*slept)[0] < time.Second {
						t.Fatalf("backoff %v ignores Retry-After: 1", (*slept)[0])
					}
				case migrate:
					wantB = 1
				}
				if a.calls.Load() != wantA || b.calls.Load() != wantB {
					t.Fatalf("calls a=%d b=%d, want a=%d b=%d", a.calls.Load(), b.calls.Load(), wantA, wantB)
				}
				cnt := c.Registry().Snapshot().Counters
				if got := cnt["cluster.node.a.failures"]; got != ans.strike {
					t.Fatalf("node a strikes %d, want %d", got, ans.strike)
				}
				if got, want := cnt["cluster.forwarded"], int64(wantA+wantB); got != want {
					t.Fatalf("cluster.forwarded %d, want %d", got, want)
				}
				want := map[string]int64{"accepted": kind.jobs, "done": kind.jobs}
				if ans.action == fail {
					want["done"], want["failed"] = 0, kind.jobs
				}
				if ans.action == migrate {
					want["migrated"] = kind.jobs
				}
				for _, s := range []string{"accepted", "done", "failed", "checkpointed", "migrated"} {
					if got := cnt["cluster.jobs."+s]; got != want[s] {
						t.Fatalf("cluster.jobs.%s %d, want %d", s, got, want[s])
					}
				}
			})
		}
	}
}

// TestProveBatchChecksNodeAnswer pins the batch accounting against a node
// answer: a 200 with fewer than k jobs is a failed forward (not k−1
// successes), and a node-side checkpointed member counts as checkpointed,
// so done + failed + checkpointed == accepted either way.
func TestProveBatchChecksNodeAnswer(t *testing.T) {
	cases := []struct {
		name                       string
		jobs                       []service.JobStatus
		status                     int
		done, failed, checkpointed int64
	}{
		{"short", []service.JobStatus{{State: "done"}}, 500, 0, 2, 0},
		{"checkpointed", []service.JobStatus{{State: "done"}, {State: "checkpointed"}}, 200, 1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok := answerJSON(200, "", service.ProveBatchResponse{Jobs: tc.jobs})
			a := newFakeNode(t, nil, ok)
			b := newFakeNode(t, nil, ok)
			c, _ := fakeCluster(t, a, b)
			req := service.ProveBatchRequest{CircuitID: fakeCircuit, Proofs: twoInputs}
			if got := post(t, c, "/v1/prove-batch", req); got != tc.status {
				t.Fatalf("edge status %d, want %d", got, tc.status)
			}
			cnt := c.Registry().Snapshot().Counters
			if cnt["cluster.jobs.done"] != tc.done || cnt["cluster.jobs.failed"] != tc.failed ||
				cnt["cluster.jobs.checkpointed"] != tc.checkpointed {
				t.Fatalf("done/failed/checkpointed = %d/%d/%d, want %d/%d/%d",
					cnt["cluster.jobs.done"], cnt["cluster.jobs.failed"], cnt["cluster.jobs.checkpointed"],
					tc.done, tc.failed, tc.checkpointed)
			}
			if cnt["cluster.jobs.accepted"] != 2 {
				t.Fatalf("accepted %d, want 2", cnt["cluster.jobs.accepted"])
			}
		})
	}
}

// TestPlacementGapWaits drives a solo job and a batch into a placement
// gap: the only holder is dead and the survivor rejects key imports for
// longer than one control call retries. Both must wait the gap out under
// the transient budget and finish with proofs that verify.
func TestPlacementGapWaits(t *testing.T) {
	var rejects atomic.Int32 // imports still to refuse, on every node
	var specs []NodeSpec
	var nodes []*testNode
	for i := 0; i < 2; i++ {
		svc := service.New(fastNodeConfig())
		h := service.NewHandler(svc)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/circuits/import" && rejects.Add(-1) >= 0 {
				service.WriteJSON(w, http.StatusServiceUnavailable, service.APIError{Error: "not yet"})
				return
			}
			h.ServeHTTP(w, r)
		}))
		n := &testNode{name: []string{"n0", "n1"}[i], svc: svc, srv: srv}
		nodes = append(nodes, n)
		specs = append(specs, NodeSpec{Name: n.name, URL: srv.URL})
		t.Cleanup(func() {
			n.srv.Close()
			n.svc.Close()
		})
	}
	cfg := Config{Nodes: specs, Replicas: 1, ProbeInterval: time.Hour, FailThreshold: 100}
	cfg.Retry.BaseDelay = time.Millisecond
	cfg.Retry.MaxDelay = 10 * time.Millisecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	info, err := c.Register(cubicSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range c.Nodes() {
		for _, n := range nodes {
			if ns.Circuits > 0 && n.name == ns.Name {
				n.kill()
			}
		}
	}
	// Three control calls' worth of refusals: each request meets at least
	// one failed placement, which would fail it if the gap were not waited
	// out.
	rejects.Store(int32(3 * resilience.Policy{}.WithDefaults().MaxAttempts))

	j, err := c.Submit(info.CircuitID, []string{"35"}, []string{"3"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.ProveBatch("", info.CircuitID, twoInputs)
	if err != nil {
		t.Fatalf("batch into the gap: %v", err)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("solo job never finished")
	}
	if j.State() != service.JobDone {
		t.Fatalf("solo job %v, want done (status %+v)", j.State(), j.Status())
	}
	verifyProof(t, info.VerifyingKey, j.Status().Proof)
	for i, js := range out.Jobs {
		if js.State != "done" {
			t.Fatalf("batch job %d %q, want done (%s)", i, js.State, js.Error)
		}
		verifyProof(t, info.VerifyingKey, js.Proof)
	}
	if rejects.Load() >= 0 {
		t.Fatal("the import refusals were never consumed: no gap was crossed")
	}
	if got := c.Registry().Counter("cluster.jobs.failed").Value(); got != 0 {
		t.Fatalf("failed counter %d, want 0", got)
	}
}
