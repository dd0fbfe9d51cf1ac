package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/telemetry"
)

// cubicBatchInputs builds k valid cubic-circuit inputs with distinct x.
func cubicBatchInputs(xs ...int64) ([]ProofInput, [][]string) {
	inputs := make([]ProofInput, len(xs))
	publics := make([][]string, len(xs))
	for i, x := range xs {
		out := fmt.Sprint(x*x*x + x + 5)
		inputs[i] = ProofInput{Public: []string{out}, Secret: []string{fmt.Sprint(x)}}
		publics[i] = []string{out}
	}
	return inputs, publics
}

// TestProveBatchHTTP drives the fused batch path end to end over HTTP:
// one POST /v1/prove-batch?sync=1 must come back with k verified proofs,
// the fused-pipeline counters must show the batch went through
// groth16.ProveBatch, and POST /v1/verify-batch must accept the proofs
// (and reject a tampered set).
func TestProveBatchHTTP(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBatch = 8
	svc, srv := newTestServer(t, cfg)
	info := registerCubic(t, srv.URL)

	inputs, publics := cubicBatchInputs(2, 3, 4, 5)
	resp, body := postJSON(t, srv.URL+"/v1/prove-batch?sync=1", ProveBatchRequest{
		CircuitID: info.CircuitID, Proofs: inputs, ClientBatchID: "batch-http-1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove-batch: %d %s", resp.StatusCode, body)
	}
	var pb ProveBatchResponse
	if err := json.Unmarshal(body, &pb); err != nil {
		t.Fatal(err)
	}
	if len(pb.Jobs) != len(inputs) {
		t.Fatalf("got %d jobs, want %d", len(pb.Jobs), len(inputs))
	}
	vk, err := groth16.UnmarshalVerifyingKeyAuto(info.VerifyingKey)
	if err != nil {
		t.Fatal(err)
	}
	f := curve.Get(vk.CurveID).Fr
	var blobs [][]byte
	for i, js := range pb.Jobs {
		if js.State != "done" {
			t.Fatalf("job %d state %q (err %q)", i, js.State, js.Error)
		}
		proof, err := groth16.UnmarshalProofAuto(js.Proof)
		if err != nil {
			t.Fatal(err)
		}
		var pubFF []ff.Element
		for _, v := range publics[i] {
			var el ff.Element
			el, err = parseOne(f, v)
			if err != nil {
				t.Fatal(err)
			}
			pubFF = append(pubFF, el)
		}
		if err := groth16.Verify(vk, proof, pubFF); err != nil {
			t.Fatalf("job %d proof rejected: %v", i, err)
		}
		blobs = append(blobs, js.Proof)
	}

	// The dispatch must have gone through the fused pipeline and recorded
	// its batch size.
	snap := svc.Registry().Snapshot()
	if snap.Counters["service.batches.fused"] < 1 {
		t.Fatalf("no fused batch recorded: %+v", snap.Counters)
	}
	if h, ok := snap.Histograms["service.batch_size"]; !ok || h.Count < 1 || h.Max < 2 {
		t.Fatalf("batch_size histogram missing or trivial: %+v", h)
	}
	// Batch verification over the returned proofs.
	resp, body = postJSON(t, srv.URL+"/v1/verify-batch", VerifyBatchRequest{
		CircuitID: info.CircuitID, Proofs: blobs, Publics: publics,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify-batch: %d %s", resp.StatusCode, body)
	}
	// Tampered publics must reject.
	badPublics := append([][]string(nil), publics...)
	badPublics[1] = []string{"999"}
	resp, _ = postJSON(t, srv.URL+"/v1/verify-batch", VerifyBatchRequest{
		CircuitID: info.CircuitID, Proofs: blobs, Publics: badPublics,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered verify-batch returned %d, want 400", resp.StatusCode)
	}
}

func parseOne(f *ff.Field, v string) (ff.Element, error) {
	out, err := parseInputs(f, []string{v}, 1, "public")
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// TestSubmitBatchAdmission covers the batch admission contract: atomic
// all-or-nothing against the queue bound, per-batch idempotency, and
// validation failures before any slot is consumed.
func TestSubmitBatchAdmission(t *testing.T) {
	cfg := fastConfig()
	cfg.QueueCapacity = 3
	svc := New(cfg)
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}

	// A batch bigger than the whole queue must be rejected atomically.
	big4, _ := cubicBatchInputs(2, 3, 4, 5)
	if _, err := svc.SubmitBatch(info.CircuitID, big4); err == nil {
		t.Fatal("over-capacity batch admitted")
	} else if _, ok := err.(*OverloadError); !ok {
		t.Fatalf("want OverloadError, got %v", err)
	}
	if got := svc.Registry().Snapshot().Counters["service.jobs.accepted"]; got != 0 {
		t.Fatalf("partial admission leaked %d jobs", got)
	}

	// Validation errors surface with the offending proof index.
	bad := []ProofInput{{Public: []string{"35"}, Secret: []string{"3"}}, {Public: []string{"x"}, Secret: []string{"3"}}}
	if _, err := svc.SubmitBatch(info.CircuitID, bad); err == nil {
		t.Fatal("malformed batch admitted")
	}
	if _, err := svc.SubmitBatch(info.CircuitID, nil); err == nil {
		t.Fatal("empty batch admitted")
	}
	if _, err := svc.SubmitBatch("nope", big4[:1]); err == nil {
		t.Fatal("unknown circuit admitted")
	}

	// Idempotency: the same batch key returns the originally admitted jobs.
	two, _ := cubicBatchInputs(2, 3)
	jobs, err := svc.SubmitBatchTraced("batch-key", info.CircuitID, two, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("batch job did not finish")
		}
	}
	again, err := svc.SubmitBatchTraced("batch-key", info.CircuitID, two, telemetry.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].ID != again[i].ID {
			t.Fatalf("dedupe returned different job %d: %s vs %s", i, jobs[i].ID, again[i].ID)
		}
	}
	if svc.Registry().Snapshot().Counters["service.jobs.deduped"] < 1 {
		t.Fatal("batch dedupe not counted")
	}
}

// TestRunBatchFallback: one witness of a k = 3 dispatch fails to solve
// (division by zero fails at solve time). A solve error fails its own job
// only: the bad job fails with the solve error, and the good jobs still
// prove together, with no fallback to singletons.
func TestRunBatchFallback(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBatch = 4
	svc := New(cfg)
	defer svc.Close()
	divSrc := "public out\nsecret x\nlet y = 10 / x\nassert y == out\n"
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: divSrc})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []ProofInput{
		{Public: []string{"5"}, Secret: []string{"2"}},
		{Public: []string{"2"}, Secret: []string{"5"}},
		{Public: []string{"1"}, Secret: []string{"0"}}, // divides by zero: solve fails
	}
	jobs, err := svc.SubmitBatch(info.CircuitID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("job did not finish")
		}
	}
	if jobs[0].State() != JobDone || jobs[1].State() != JobDone {
		t.Fatalf("good jobs states: %v / %v", jobs[0].State(), jobs[1].State())
	}
	if jobs[2].State() != JobFailed {
		t.Fatalf("bad-witness job state %v, want failed", jobs[2].State())
	}
	c := svc.Registry().Snapshot().Counters
	if c["service.batches.fallback"] != 0 || c["service.batches.fused"] != 1 {
		t.Fatalf("fallback=%d fused=%d, want 0 and 1", c["service.batches.fallback"], c["service.batches.fused"])
	}
}

// TestRunBatchBadWitnessIsolation: a witness that solves but does not
// satisfy the circuit stays on the fused path (Solve does not check
// constraints), so one proof of the four reaches server-side verification
// invalid. The dispatch's one BatchVerify rejects, the per-proof pass
// attributes the failure: three done, one failed, nothing re-proved.
func TestRunBatchBadWitnessIsolation(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBatch = 4
	svc := New(cfg)
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := cubicBatchInputs(2, 3, 4, 5)
	// out does not match x³+x+5: solves fine, fails verification.
	const bad = 2
	inputs[bad] = ProofInput{Public: []string{"1"}, Secret: []string{"3"}}
	jobs, err := svc.SubmitBatch(info.CircuitID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("job did not finish")
		}
		want := JobDone
		if i == bad {
			want = JobFailed
		}
		if j.State() != want {
			t.Fatalf("job %d state %v, want %v: %s", i, j.State(), want, j.Snapshot().Error)
		}
		// verify_ns is the dispatch's verification wall time ÷ k.
		if i != bad && (j.Snapshot().VerifyNS <= 0 || j.Snapshot().VerifyNS != jobs[0].Snapshot().VerifyNS) {
			t.Fatalf("job %d verify_ns %d, job 0 %d: want one shared positive value",
				i, j.Snapshot().VerifyNS, jobs[0].Snapshot().VerifyNS)
		}
	}
	c := svc.Registry().Snapshot().Counters
	if c["service.batches.fused"] != 1 || c["service.batches.fallback"] != 0 ||
		c["service.jobs.done"] != 3 || c["service.jobs.failed"] != 1 {
		t.Fatalf("fused=%d fallback=%d done=%d failed=%d, want 1 0 3 1", c["service.batches.fused"],
			c["service.batches.fallback"], c["service.jobs.done"], c["service.jobs.failed"])
	}
}

// TestBatchFallbackAfterProverError: the prover fails a k = 4 dispatch
// with an error of its own — the registered key's A query is cut short of
// the circuit's wires — so the prove fails without a job to pin the
// failure on. The dispatch re-runs its jobs as singletons, each of which
// fails with the prover's error, and the batch counts as one fallback.
func TestBatchFallbackAfterProverError(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxBatch = 4
	svc := New(cfg)
	defer svc.Close()
	info, err := svc.Register(CircuitSpec{Curve: "bn254", Source: cubicSrc})
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	pk := svc.circuits[info.CircuitID].pk
	svc.mu.Unlock()
	pk.A = pk.A[:1]
	inputs, _ := cubicBatchInputs(2, 3, 4, 5)
	jobs, err := svc.SubmitBatch(info.CircuitID, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatal("job did not finish")
		}
		if st := j.Snapshot(); st.State != "failed" || !strings.Contains(st.Error, "scalars vs 1 points") {
			t.Fatalf("job %d ended %s %q, want failed with the prover's error", i, st.State, st.Error)
		}
	}
	c := svc.Registry().Snapshot().Counters
	if c["service.batches.fallback"] != 1 || c["service.batches.fused"] != 0 || c["service.jobs.failed"] != 4 {
		t.Fatalf("fallback=%d fused=%d failed=%d, want 1 0 4", c["service.batches.fallback"],
			c["service.batches.fused"], c["service.jobs.failed"])
	}
}
