package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/r1cs"
)

// cubicSrc is the tiny reference circuit every e2e test proves: x^3+x+5=out,
// satisfied by (out=35, x=3).
const cubicSrc = "public out\nsecret x\nlet y = x^3 + x + 5\nassert y == out\n"

// fastConfig keeps e2e proofs cheap: tiny circuit, serial strategies.
func fastConfig() Config {
	return Config{
		NTT: ntt.Config{Strategy: ntt.Serial},
		MSM: msm.Config{Strategy: msm.PippengerWindows, Workers: 1},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func registerCubic(t *testing.T, base string) *CircuitInfo {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/circuits", CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var info CircuitInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return &info
}

// verifyStatus client-side-verifies the compressed proof in a job status.
func verifyStatus(t *testing.T, info *CircuitInfo, st *JobStatus) {
	t.Helper()
	vk, err := groth16.UnmarshalVerifyingKeyAuto(info.VerifyingKey)
	if err != nil {
		t.Fatalf("vk decode: %v", err)
	}
	proof, err := groth16.UnmarshalProofAuto(st.Proof)
	if err != nil {
		t.Fatalf("proof decode: %v", err)
	}
	f := curve.Get(vk.CurveID).Fr
	pub := []ff.Element{f.FromBig(big.NewInt(35))}
	if err := groth16.Verify(vk, proof, pub); err != nil {
		t.Fatalf("returned proof does not verify: %v", err)
	}
}

// TestServiceEndToEnd is the ISSUE's admission-control e2e: 64 concurrent
// sync requests against a deliberately small queue must split into verified
// successes and 429 rejections with Retry-After — no accepted job dropped,
// no other outcome — and a drain afterwards finishes in-flight work.
func TestServiceEndToEnd(t *testing.T) {
	cfg := fastConfig()
	cfg.QueueCapacity = 8
	svc, srv := newTestServer(t, cfg)
	info := registerCubic(t, srv.URL)

	// Re-registration must be a cache hit, not a second setup.
	resp, _ := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register status %d, want 200 (cached)", resp.StatusCode)
	}

	const clients = 64
	var ok, rejected, other atomic.Int64
	var mu sync.Mutex
	var statuses []JobStatus
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := ProveRequest{CircuitID: info.CircuitID, Public: []string{"35"}, Secret: []string{"3"}}
			b, _ := json.Marshal(req)
			resp, err := http.Post(srv.URL+"/v1/prove", "application/json", bytes.NewReader(b))
			if err != nil {
				other.Add(1)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var st JobStatus
				if json.Unmarshal(body, &st) == nil && st.State == "done" && len(st.Proof) > 0 {
					ok.Add(1)
					mu.Lock()
					statuses = append(statuses, st)
					mu.Unlock()
				} else {
					other.Add(1)
				}
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After header")
				}
				rejected.Add(1)
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				other.Add(1)
			}
		}()
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Fatalf("%d requests ended in neither success nor 429", other.Load())
	}
	if ok.Load()+rejected.Load() != clients {
		t.Fatalf("accounted %d+%d of %d requests", ok.Load(), rejected.Load(), clients)
	}
	if ok.Load() == 0 {
		t.Fatal("every request was rejected; capacity admitted nothing")
	}
	if rejected.Load() == 0 {
		t.Fatalf("no 429s from %d clients against capacity %d", clients, cfg.QueueCapacity)
	}
	for i := range statuses {
		verifyStatus(t, info, &statuses[i])
	}
	// Zero accepted jobs dropped: accepted == done, failed == 0.
	reg := svc.Registry()
	if got, want := reg.Counter("service.jobs.done").Value(), ok.Load(); got != want {
		t.Fatalf("done counter %d != verified successes %d", got, want)
	}
	if failed := reg.Counter("service.jobs.failed").Value(); failed != 0 {
		t.Fatalf("%d accepted jobs failed", failed)
	}

	// Latency histograms observed every job.
	snap := reg.Snapshot()
	if h, okh := snap.Histograms["service.e2e_ns"]; !okh || h.Count != ok.Load() {
		t.Fatalf("e2e histogram count %d, want %d", h.Count, ok.Load())
	}

	// Drain with work still in flight: async submissions must finish, not
	// be dropped, and the service must then refuse new jobs with a 503.
	var async []string
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, srv.URL+"/v1/prove?async=1",
			ProveRequest{CircuitID: info.CircuitID, Public: []string{"35"}, Secret: []string{"3"}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: %d %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		async = append(async, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := svc.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Checkpointed != nil {
		t.Fatalf("drain checkpointed %d jobs instead of finishing them", len(rep.Checkpointed.Jobs))
	}
	for _, id := range async {
		resp, body := getJSON(t, srv.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s: %d", id, resp.StatusCode)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %s state %q after drain, want done (err=%s)", id, st.State, st.Error)
		}
		verifyStatus(t, info, &st)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/prove",
		ProveRequest{CircuitID: info.CircuitID, Public: []string{"35"}, Secret: []string{"3"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	// Readiness must reflect the drain.
	resp, _ = getJSON(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz %d while draining, want 503", resp.StatusCode)
	}
}

// slowCubicSrc is cubicSrc padded with an n-step multiplication chain that
// never reaches out: same inputs and public value, but a proof that runs
// tens of ms on fastConfig.
func slowCubicSrc(n int) string {
	var b strings.Builder
	b.WriteString("public out\nsecret x\nlet y = x^3 + x + 5\nlet p0 = x * x\n")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "let p%d = p%d * x\n", i, i-1)
	}
	b.WriteString("assert y == out\n")
	return b.String()
}

// TestIdleDispatcherTakesQueuedJob: job B arrives on A's circuit while A
// proves. The idle dispatcher must take B at once rather than leave it
// queued behind A.
func TestIdleDispatcherTakesQueuedJob(t *testing.T) {
	svc := New(fastConfig())
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: slowCubicSrc(1024)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Submit(info.CircuitID, []string{"35"}, []string{"3"})
	if err != nil {
		t.Fatal(err)
	}
	for wait := time.Now().Add(10 * time.Second); a.State() == JobQueued; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(wait) {
			t.Fatal("job A never started")
		}
	}
	b, err := svc.Submit(info.CircuitID, []string{"35"}, []string{"3"})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{a, b} {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s did not finish", j.ID)
		}
		if j.State() != JobDone {
			t.Fatalf("job %s state %v: %s", j.ID, j.State(), j.Snapshot().Error)
		}
	}
	as, bs := a.Snapshot(), b.Snapshot()
	if bs.QueueNS >= as.ProveNS/2 {
		t.Fatalf("B queued %v while A proved for %v: B waited for A",
			time.Duration(bs.QueueNS), time.Duration(as.ProveNS))
	}
}

// TestServiceDrainCheckpointRestore covers the drain deadline path: jobs
// still queued when the deadline fires are checkpointed (not dropped) and a
// successor service restores and finishes them.
func TestServiceDrainCheckpointRestore(t *testing.T) {
	cfg := fastConfig()
	cfg.QueueCapacity = 16
	svc := New(cfg)
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := svc.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Expired context: the drain must checkpoint whatever was not scheduled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, _ := svc.Drain(ctx)
	if rep.Checkpointed == nil || len(rep.Checkpointed.Jobs) == 0 {
		t.Skip("all jobs finished before the drain deadline; nothing to checkpoint")
	}
	cp := rep.Checkpointed
	if len(cp.Circuits) != 1 {
		t.Fatalf("checkpoint carries %d circuits, want 1", len(cp.Circuits))
	}
	checkpointed := 0
	for _, j := range jobs {
		if j.State() == JobCheckpointed {
			checkpointed++
		}
	}
	if checkpointed != len(cp.Jobs) {
		t.Fatalf("%d jobs marked checkpointed, checkpoint has %d", checkpointed, len(cp.Jobs))
	}

	// The checkpoint must survive a JSON round trip (it is written to disk).
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(blob, &cp2); err != nil {
		t.Fatal(err)
	}

	succ := New(cfg)
	defer succ.Close()
	n, err := succ.Restore(&cp2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != len(cp.Jobs) {
		t.Fatalf("restored %d jobs, want %d", n, len(cp.Jobs))
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if _, err := succ.Drain(ctx2); err != nil {
		t.Fatalf("successor drain: %v", err)
	}
	if done := succ.Registry().Counter("service.jobs.done").Value(); done != int64(n) {
		t.Fatalf("successor finished %d of %d restored jobs", done, n)
	}
}

// TestServiceValidation covers the 400/404 paths and the health endpoints.
func TestServiceValidation(t *testing.T) {
	cfg := fastConfig()
	_, srv := newTestServer(t, cfg)
	info := registerCubic(t, srv.URL)

	cases := []struct {
		name string
		req  ProveRequest
		want int
	}{
		{"unknown circuit", ProveRequest{CircuitID: "nope", Public: []string{"35"}, Secret: []string{"3"}}, 404},
		{"bad arity", ProveRequest{CircuitID: info.CircuitID, Public: []string{"35", "36"}, Secret: []string{"3"}}, 400},
		{"non-decimal input", ProveRequest{CircuitID: info.CircuitID, Public: []string{"0x23"}, Secret: []string{"3"}}, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/prove", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "secp256k1", Source: cubicSrc}); resp.StatusCode != 400 {
		t.Errorf("unsupported curve: status %d want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "bn254", Source: "garbage !"}); resp.StatusCode != 400 {
		t.Errorf("uncompilable source: status %d want 400", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/job-99999999"); resp.StatusCode != 404 {
		t.Errorf("unknown job: status %d want 404", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/healthz"); resp.StatusCode != 200 {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/readyz"); resp.StatusCode != 200 {
		t.Errorf("readyz: %d", resp.StatusCode)
	}
	resp, body := getJSON(t, srv.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
}

// TestServiceAsyncLifecycle submits async and polls to completion.
func TestServiceAsyncLifecycle(t *testing.T) {
	cfg := fastConfig()
	_, srv := newTestServer(t, cfg)
	info := registerCubic(t, srv.URL)

	resp, body := postJSON(t, srv.URL+"/v1/prove?async=1",
		ProveRequest{CircuitID: info.CircuitID, Public: []string{"35"}, Secret: []string{"3"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, srv.URL+"/v1/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != "done" {
		t.Fatalf("job failed: %s", st.Error)
	}
	verifyStatus(t, info, &st)
	if st.TotalNS <= 0 || st.ProveNS <= 0 {
		t.Fatalf("missing latency accounting: total=%d prove=%d", st.TotalNS, st.ProveNS)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRegisterRejectsOversizedSynthetic: a synthetic circuit whose proving
// key points overrun the MSM memory budget (1 GiB by default) is refused
// with a 400 before the service builds anything.
func TestRegisterRejectsOversizedSynthetic(t *testing.T) {
	_, srv := newTestServer(t, fastConfig())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp, body := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "bn254", SyntheticSize: 1 << 30})
	runtime.ReadMemStats(&m1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register 2^30 constraints: %d %s, want 400", resp.StatusCode, body)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("the refused registration allocated %d bytes", got)
	}
}

// TestRegisterRejectsOversizedSource: a source circuit is priced by the
// same MSM memory budget as a synthetic one while it compiles. 64 KiB
// allows 170 BN254 constraints, so one 200-bit range check (201
// constraints) gets a 400, and a 2,000-line source of them is refused
// after its first line, with the same bounded allocation.
func TestRegisterRejectsOversizedSource(t *testing.T) {
	cfg := fastConfig()
	cfg.MSM.MemoryBudget = 64 << 10
	_, srv := newTestServer(t, cfg)
	for _, lines := range []int{1, 2000} {
		src := "secret x\n" + strings.Repeat("assert bits(x, 200)\n", lines)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		resp, body := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "bn254", Source: src})
		runtime.ReadMemStats(&m1)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %d range checks under a 64 KiB budget: %d %s, want 400", lines, resp.StatusCode, body)
		}
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 4<<20 {
			t.Fatalf("the refused %d-line registration allocated %d bytes", lines, got)
		}
	}
}

// TestRegisterRejectsSecretAfterWire: a secret declared after a let that
// made a wire gets a 400 at registration, not a key whose every prove
// fails with an unassigned wire.
func TestRegisterRejectsSecretAfterWire(t *testing.T) {
	_, srv := newTestServer(t, fastConfig())
	src := "secret x\nlet y = x*x\nsecret z\nlet q = z*x\nassert q == y\n"
	resp, body := postJSON(t, srv.URL+"/v1/circuits", CircuitSpec{Curve: "bn254", Source: src})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("register a secret after a wire: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestDrainCountsOnlyItsWindow: DrainReport.Finished counts the jobs that
// finished during the drain, not those finished before it began.
func TestDrainCountsOnlyItsWindow(t *testing.T) {
	svc := New(fastConfig())
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		j, err := svc.Submit(info.CircuitID, []string{"35"}, []string{"3"})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := svc.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Finished != 0 {
		t.Fatalf("drain reports %d finished jobs; both finished before it began", rep.Finished)
	}
}

// breakProver makes every prove of a registered circuit panic in the prover
// itself: the circuit's system gains constraints its key's NTT domain cannot
// hold, so the POLY stage writes past the domain. Solving still works.
func breakProver(svc *Service, id string) {
	svc.mu.Lock()
	e := svc.circuits[id]
	svc.mu.Unlock()
	e.sys.Constraints = append(e.sys.Constraints, make([]r1cs.Constraint, e.pk.DomainN)...)
}

// TestPanicFailsOnlyItsJob: two circuits, one whose every prove panics in
// the prover, with solo jobs of both interleaved so that two dispatches,
// one of each, are in flight on a two-worker task list. A panic fails only
// its own dispatch's scope: the broken circuit's jobs fail with the panic,
// and the other circuit's jobs finish.
func TestPanicFailsOnlyItsJob(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBatch = 1
	cfg.MSM.Workers = 2
	svc := New(cfg)
	defer svc.Close()
	good, err := svc.Register(CircuitSpec{Curve: "bn254", Source: slowCubicSrc(4)})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	breakProver(svc, bad.CircuitID)
	var jobs []*Job
	for range 2 {
		for _, id := range []string{bad.CircuitID, good.CircuitID} {
			j, err := svc.Submit(id, []string{"35"}, []string{"3"})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	var done, failed int
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s stuck in state %v", j.ID, j.State())
		}
		switch st := j.Snapshot(); {
		case j.CircuitID == good.CircuitID && st.State == "done":
			done++
		case j.CircuitID == bad.CircuitID && st.State == "failed":
			if !strings.Contains(st.Error, "worker panic") {
				t.Fatalf("job %s failed with %q, want the prover's panic", j.ID, st.Error)
			}
			failed++
		default:
			t.Fatalf("job %s of circuit %s ended %s %q", j.ID, j.CircuitID, st.State, st.Error)
		}
	}
	if done != 2 || failed != 2 {
		t.Fatalf("%d done, %d failed; want 2 and 2", done, failed)
	}
}
