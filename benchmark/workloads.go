package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// workloadDef is one set of inputs and the path they take into the program.
type workloadDef struct {
	name  string
	sizes []int // constraint counts of the circuits
	// srv is the service configuration for workloads that go through the
	// HTTP API; nil means the library path (Solve + Prove, one caller).
	srv   *service.Config
	batch int // proofs per request (service only; 1 = POST /v1/prove)
}

// The library circuit is the largest that still gives 100 proofs inside the
// measured window; the service mix is gzkp-loadgen's small-circuit traffic.
// BENCHMARK.json and README.md record why each workload exists.
var (
	serviceMix = []int{64, 128, 256}
	workloads  = []workloadDef{
		{name: "prove_large", sizes: []int{1024}, batch: 1},
		{name: "serve_warm", sizes: serviceMix, batch: 1,
			srv: &service.Config{Preprocess: true, FusedBatch: true}},
		{name: "serve_batch", sizes: serviceMix, batch: 4,
			srv: &service.Config{Preprocess: true, FusedBatch: true}},
		// What gzkp-serve starts with when given no flags: tables are not
		// built at registration, so every proof rebuilds them.
		{name: "serve_default", sizes: serviceMix, batch: 1,
			srv: &service.Config{FusedBatch: true}},
	}
)

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// The prover strategies every workload runs: the service's defaults.
var (
	nttConfig = ntt.Config{Strategy: ntt.GZKP}
	msmConfig = msm.Config{Strategy: msm.GZKP, SignedBuckets: true}
)

// proven is one proof the program returned, kept for the correctness gate.
type proven struct {
	req, circuit, witness int
	proof                 *groth16.Proof // library path
	blob                  []byte         // service path: compressed wire form, decoded in the gate
}

// reply is what one request brought back.
type reply struct {
	proofs []proven
	jobs   []service.JobStatus // per-job timings reported by the service
}

// target is the program under test behind one of its two entry points.
type target interface {
	// prove requests one proof per witness index of circuit ci and returns
	// when they are in hand. tr/parent/req/lane place the call's spans.
	prove(tr *tracer, parent, req, lane, ci int, wits []int) (reply, error)
	verifyingKey(ci int) *groth16.VerifyingKey
	close()
}

// ---- library path

type libTarget struct {
	in *inputs
	pk *groth16.ProvingKey
	vk *groth16.VerifyingKey
}

func newLibTarget(in *inputs) (*libTarget, error) {
	pk, vk, err := groth16.Setup(in.circuits[0].sys, in.curve, nil)
	if err != nil {
		return nil, err
	}
	if err := pk.Preprocess(msmConfig); err != nil {
		return nil, err
	}
	return &libTarget{in: in, pk: pk, vk: vk}, nil
}

func (t *libTarget) prove(tr *tracer, parent, req, lane, ci int, wits []int) (reply, error) {
	ck := &t.in.circuits[ci]
	var rep reply
	for _, wi := range wits {
		t0 := time.Now()
		w, err := ck.sys.Solve(ck.wits[wi].pub, ck.wits[wi].sec)
		if err != nil {
			return rep, err
		}
		t1 := time.Now()
		proof, _, err := groth16.Prove(t.pk, ck.sys, w, groth16.ProveConfig{NTT: nttConfig, MSM: msmConfig}, nil)
		if err != nil {
			return rep, err
		}
		tr.add("r1cs.solve", parent, req, lane, t0, t1, "")
		tr.add("groth16.prove", parent, req, lane, t1, time.Now(), "")
		rep.proofs = append(rep.proofs, proven{req: req, circuit: ci, witness: wi, proof: proof})
	}
	return rep, nil
}

func (t *libTarget) verifyingKey(int) *groth16.VerifyingKey { return t.vk }
func (t *libTarget) close()                                 {}

// ---- service path

type svcTarget struct {
	in     *inputs
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	ids    []string
	vks    []*groth16.VerifyingKey
}

// newSvcTarget starts the service in-process behind a loopback HTTP server
// and registers every circuit over the API, as a client would.
func newSvcTarget(in *inputs, cfg service.Config) (*svcTarget, error) {
	svc := service.New(cfg)
	srv := httptest.NewServer(service.NewHandler(svc))
	t := &svcTarget{in: in, svc: svc, srv: srv, client: srv.Client()}
	for _, ck := range in.circuits {
		var info service.CircuitInfo
		spec := service.CircuitSpec{Curve: "bn254", SyntheticSize: ck.size, SyntheticSeed: ck.seed}
		if err := t.post("/v1/circuits", spec, &info); err != nil {
			t.close()
			return nil, fmt.Errorf("register %d: %w", ck.size, err)
		}
		vk, err := groth16.UnmarshalVerifyingKeyAuto(info.VerifyingKey)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("register %d: verifying key: %w", ck.size, err)
		}
		t.ids = append(t.ids, info.CircuitID)
		t.vks = append(t.vks, vk)
	}
	return t, nil
}

// post sends one JSON request; any status other than 200/201 (so every 429
// or 503 refusal, and a 202 for a job that did not finish) is an error.
func (t *svcTarget) post(path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.client.Post(t.srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

func (t *svcTarget) prove(tr *tracer, parent, req, lane, ci int, wits []int) (reply, error) {
	ck := &t.in.circuits[ci]
	var rep reply
	t0 := time.Now()
	if len(wits) == 1 {
		var st service.JobStatus
		w := ck.wits[wits[0]]
		err := t.post("/v1/prove", service.ProveRequest{CircuitID: t.ids[ci], Public: w.pubS, Secret: w.secS}, &st)
		if err != nil {
			return rep, err
		}
		rep.jobs = []service.JobStatus{st}
	} else {
		breq := service.ProveBatchRequest{CircuitID: t.ids[ci]}
		for _, wi := range wits {
			breq.Proofs = append(breq.Proofs, service.ProofInput{Public: ck.wits[wi].pubS, Secret: ck.wits[wi].secS})
		}
		var bresp service.ProveBatchResponse
		if err := t.post("/v1/prove-batch?sync=1", breq, &bresp); err != nil {
			return rep, err
		}
		rep.jobs = bresp.Jobs
	}
	t1 := time.Now()
	if len(rep.jobs) != len(wits) {
		return rep, fmt.Errorf("asked for %d proofs, got %d jobs", len(wits), len(rep.jobs))
	}
	call := tr.add("http.prove", parent, req, lane, t0, t1, "")
	for i, st := range rep.jobs {
		if st.State != "done" || len(st.Proof) == 0 {
			return rep, fmt.Errorf("job %s: state %s: %s", st.ID, st.State, st.Error)
		}
		rep.proofs = append(rep.proofs, proven{req: req, circuit: ci, witness: wits[i], blob: st.Proof})
		// The service's own account of the job, laid end to end from the
		// moment the request left; the remainder of the round trip is HTTP
		// and JSON on both sides.
		at := t0
		for _, part := range []struct {
			name string
			ns   int64
		}{{"service.queue", st.QueueNS}, {"service.prove", st.ProveNS}, {"service.verify", st.VerifyNS}} {
			end := at.Add(time.Duration(part.ns))
			tr.add(part.name, call, req, lane, at, end, "reported by service")
			at = end
		}
	}
	return rep, nil
}

func (t *svcTarget) verifyingKey(ci int) *groth16.VerifyingKey { return t.vks[ci] }

func (t *svcTarget) close() {
	t.srv.Close()
	t.svc.Close()
}

// scrape reads the service's counters and histograms from GET /metrics.
func (t *svcTarget) scrape() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := t.client.Get(t.srv.URL + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

func newTarget(w workloadDef, in *inputs) (target, error) {
	if w.srv == nil {
		return newLibTarget(in)
	}
	return newSvcTarget(in, *w.srv)
}

// ---- the measured window

// window is what one closed-loop run of a workload produced.
type window struct {
	attempted, failed int       // proofs asked for / not delivered
	span              interval  // first request out to last reply in
	requests          []request // the delivered ones
	overheadMS        []float64 // round trip minus the service's own total, per request
	proofs            []proven
	jobs              []service.JobStatus
	firstErr          error
}

// request is one round trip and the number of proofs it delivered.
type request struct {
	interval
	proofs int
}

// runWindow drives the target closed-loop: each of the clients sends its
// next request when the previous reply arrives, for dur, or until maxProofs
// were asked for (0 = no cap). Every client walks the circuits round-robin
// and cycles through the witnesses, starting at its seeded offset.
func runWindow(t target, in *inputs, clients, batch int, dur time.Duration, maxProofs int, tr *tracer) *window {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		win = &window{}
	)
	start := time.Now()
	deadline := start.Add(dur)
	last := start
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := in.order[c]; time.Now().Before(deadline); i++ {
				mu.Lock()
				if maxProofs > 0 && win.attempted+batch > maxProofs {
					mu.Unlock()
					return
				}
				req := win.attempted/batch + 1
				win.attempted += batch
				mu.Unlock()

				ci := i % len(in.circuits)
				wits := make([]int, batch)
				for k := range wits {
					wits[k] = (i/len(in.circuits)*batch + k) % witnessesPerCircuit
				}
				t0 := time.Now()
				root := tr.add("request", 0, req, c, t0, t0, "") // end patched below
				rep, err := t.prove(tr, root, req, c, ci, wits)
				t1 := time.Now()
				tr.extend(root, t1)

				mu.Lock()
				if err != nil {
					win.failed += batch
					if win.firstErr == nil {
						win.firstErr = err
					}
				} else {
					win.requests = append(win.requests, request{interval{t0, t1}, len(rep.proofs)})
					win.proofs = append(win.proofs, rep.proofs...)
					win.jobs = append(win.jobs, rep.jobs...)
					if len(rep.jobs) > 0 {
						var total int64
						for _, j := range rep.jobs {
							total = max(total, j.TotalNS)
						}
						win.overheadMS = append(win.overheadMS, float64(t1.Sub(t0).Nanoseconds()-total)/1e6)
					}
				}
				if t1.After(last) {
					last = t1
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.span = interval{start, last}
	return win
}

// ---- the correctness gate

const gateChunk = 16 // proofs per BatchVerify call

// gate checks every proof of a window against the verifying key the target
// handed out at setup. nSingle of them are verified one by one, single
// caller, and timed (verify_p50_ms): half before and half after the rest go
// through BatchVerify in chunks, so that one slow spell of the machine does
// not cover every timed sample. It returns when each single verify ran and
// how many proofs failed.
func gate(t target, in *inputs, proofs []proven, nSingle int, tr *tracer) (verifies []interval, bad int) {
	decoded := make([]*groth16.Proof, len(proofs))
	for i, p := range proofs {
		decoded[i] = p.proof
		if p.proof == nil {
			pr, err := groth16.UnmarshalProofAuto(p.blob)
			if err != nil {
				bad++
				continue
			}
			decoded[i] = pr
		}
	}
	public := func(i int) []ff.Element { return in.circuits[proofs[i].circuit].wits[proofs[i].witness].pub }
	nSingle = min(nSingle, len(proofs))
	head, tail := nSingle/2, len(proofs)-(nSingle-nSingle/2)
	single := func(from, to int) {
		for i := from; i < to; i++ {
			if decoded[i] == nil {
				continue
			}
			t0 := time.Now()
			err := groth16.Verify(t.verifyingKey(proofs[i].circuit), decoded[i], public(i))
			t1 := time.Now()
			tr.add("groth16.verify", 0, proofs[i].req, 0, t0, t1, "client-side check after the window")
			verifies = append(verifies, interval{t0, t1})
			if err != nil {
				bad++
			}
		}
	}
	single(0, head)

	// Batch verification needs one key per call: chunk per circuit.
	var chunks [][]int
	open := map[int]int{} // circuit → index of its unfilled chunk
	for i := head; i < tail; i++ {
		if decoded[i] == nil {
			continue
		}
		ci := proofs[i].circuit
		k, ok := open[ci]
		if !ok || len(chunks[k]) == gateChunk {
			chunks = append(chunks, nil)
			k = len(chunks) - 1
			open[ci] = k
		}
		chunks[k] = append(chunks[k], i)
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan []int)
	)
	for w := 0; w < clientCount(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range next {
				ps := make([]*groth16.Proof, len(chunk))
				pubs := make([][]ff.Element, len(chunk))
				for k, i := range chunk {
					ps[k], pubs[k] = decoded[i], public(i)
				}
				vk := t.verifyingKey(proofs[chunk[0]].circuit)
				if groth16.BatchVerify(vk, ps, pubs) == nil {
					continue
				}
				// Attribute the failure: count the proofs that fail alone.
				n := 0
				for k := range ps {
					if groth16.Verify(vk, ps[k], pubs[k]) != nil {
						n++
					}
				}
				mu.Lock()
				bad += max(n, 1)
				mu.Unlock()
			}
		}()
	}
	for _, chunk := range chunks {
		next <- chunk
	}
	close(next)
	wg.Wait()
	single(tail, len(proofs))
	return verifies, bad
}

// negativeControl proves the gate can fail: a verifier optimised into a
// no-op must lose the run, not win it. One good proof is checked three
// ways that must all be rejected — its wire form with one byte flipped,
// and the intact proof against the wrong statement through both Verify and
// BatchVerify (the two calls the gate relies on).
func negativeControl(t target, in *inputs, p proven) error {
	proof := p.proof
	if proof == nil {
		var err error
		if proof, err = groth16.UnmarshalProofAuto(p.blob); err != nil {
			return fmt.Errorf("negative control: proof does not decode: %w", err)
		}
	}
	vk := t.verifyingKey(p.circuit)
	wits := in.circuits[p.circuit].wits
	pub := wits[p.witness].pub
	if err := groth16.Verify(vk, proof, pub); err != nil {
		return fmt.Errorf("negative control: the untampered proof fails: %w", err)
	}
	blob, err := proof.MarshalCompressed()
	if err != nil {
		return err
	}
	blob[len(blob)/2] ^= 0x01
	if tampered, err := groth16.UnmarshalProofAuto(blob); err == nil && groth16.Verify(vk, tampered, pub) == nil {
		return fmt.Errorf("negative control: a proof with a flipped byte was accepted")
	}
	wrong := wits[(p.witness+1)%len(wits)].pub
	if groth16.Verify(vk, proof, wrong) == nil {
		return fmt.Errorf("negative control: Verify accepted a proof for the wrong public input")
	}
	if groth16.BatchVerify(vk, []*groth16.Proof{proof}, [][]ff.Element{wrong}) == nil {
		return fmt.Errorf("negative control: BatchVerify accepted a proof for the wrong public input")
	}
	return nil
}
