// Package service is the proving service layer: it turns the library +
// CLI prover into a long-running system that accepts concurrent proof
// requests over HTTP, admits them into a bounded queue (overload sheds
// load with 429 + Retry-After instead of growing memory), takes them from
// one FIFO in same-circuit dispatches, up to two in flight, each one scope
// on the process's task list (internal/par) that runs its solves, one
// k-wide prove and its verify as tasks, and drains gracefully on SIGTERM —
// stop accepting, finish in-flight work, checkpoint whatever the deadline
// strands.
//
// The layer composes everything below it: circuits compile through
// internal/frontend or internal/workload, keys come from internal/groth16
// setup and travel compressed (internal/curve point compression), proving
// runs the paper's NTT/MSM strategies, and every stage records spans,
// counters, gauges and latency histograms through internal/telemetry.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/frontend"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/par"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
	"gzkp/internal/workload"
)

// Config sizes and wires one Service. The zero value of every field has a
// usable default.
type Config struct {
	// QueueCapacity bounds admitted-but-unfinished jobs (queued + running).
	// Submissions beyond it are rejected with a Retry-After estimate —
	// admission control is what keeps overload from becoming OOM
	// (default 64).
	QueueCapacity int
	// MaxBatch caps how many same-circuit jobs one dispatch groups
	// (default 4).
	MaxBatch int
	// FusedBatch is ignored: every dispatch proves its jobs as one k-wide
	// prove.
	FusedBatch bool
	// MaxCircuits bounds the registered-circuit cache — each registration
	// runs a trusted setup and pins a proving key in memory (default 16).
	MaxCircuits int
	// Preprocess builds the GZKP MSM tables at registration and import
	// (per key, built once, off the proving path): table memory for MSMs
	// about 1.3× faster. Off, each MSM runs on the key's points directly
	// and builds no table.
	Preprocess bool
	// NTT/MSM select the prover strategies (default: the paper's GZKP
	// configuration).
	NTT ntt.Config
	MSM msm.Config
	// Registry receives counters, gauges and latency histograms (default: a
	// fresh registry; never nil after New).
	Registry *telemetry.Registry
	// Tracer, when set, records per-request spans (queue/prove/verify). Span storage grows with traffic, so attach one for
	// bounded runs (tests, load experiments), not unbounded serving.
	Tracer *telemetry.Tracer
	// Events, when set, receives structured control-plane events (drain,
	// restore, batch fallback) and backs the GET /v1/events endpoint. Nil
	// disables event logging (the ring is bounded, so unlike Tracer it is
	// safe for unbounded serving).
	Events *telemetry.EventLog
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity < 1 {
		c.QueueCapacity = 64
	}
	if c.MaxBatch < 1 {
		c.MaxBatch = 4
	}
	if c.MaxCircuits < 1 {
		c.MaxCircuits = 16
	}
	if c.NTT.Strategy == 0 && c.MSM.Strategy == 0 {
		c.NTT = ntt.Config{Strategy: ntt.GZKP}
		c.MSM = msm.Config{Strategy: msm.GZKP, SignedBuckets: true}
	}
	if c.Registry == nil {
		if c.Tracer != nil {
			c.Registry = c.Tracer.Registry()
		} else {
			c.Registry = telemetry.NewRegistry()
		}
	}
	return c
}

// CircuitSpec describes a circuit to register: either frontend source or a
// synthetic workload (size+seed), bound to a curve. It doubles as the
// registration request body and the checkpoint record, so a successor
// process can rebuild the registry.
type CircuitSpec struct {
	Curve  string `json:"curve"`            // "bn254" | "bls12381"
	Source string `json:"source,omitempty"` // frontend mini-language
	// SyntheticSize/SyntheticSeed select a workload.SyntheticR1CS circuit
	// instead of Source.
	SyntheticSize int   `json:"synthetic_size,omitempty"`
	SyntheticSeed int64 `json:"synthetic_seed,omitempty"`
}

// CircuitInfo is the registration response: the content-addressed id, the
// circuit shape, and the compressed verifying key so clients can verify
// proofs locally.
type CircuitInfo struct {
	CircuitID    string   `json:"circuit_id"`
	Constraints  int      `json:"constraints"`
	PublicNames  []string `json:"public_names"`
	SecretNames  []string `json:"secret_names"`
	VerifyingKey []byte   `json:"verifying_key"` // compressed, base64 via JSON
	Cached       bool     `json:"cached"`
}

type circuitEntry struct {
	id          string
	spec        CircuitSpec
	curveID     curve.ID
	sys         *r1cs.System
	pk          *groth16.ProvingKey
	vk          *groth16.VerifyingKey
	vkBytes     []byte
	publicNames []string
	secretNames []string
}

func (e *circuitEntry) info(cached bool) *CircuitInfo {
	return &CircuitInfo{
		CircuitID:    e.id,
		Constraints:  len(e.sys.Constraints),
		PublicNames:  append([]string(nil), e.publicNames...),
		SecretNames:  append([]string(nil), e.secretNames...),
		VerifyingKey: append([]byte(nil), e.vkBytes...),
		Cached:       cached,
	}
}

// OverloadError is the admission-control rejection: the queue is full and
// the client should retry after the estimated drain time.
type OverloadError struct {
	Depth      int
	Capacity   int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("service: overloaded (%d/%d jobs admitted), retry after %s",
		e.Depth, e.Capacity, e.RetryAfter)
}

// InputError is a malformed request (unknown arity, unparsable value).
type InputError struct{ Msg string }

func (e *InputError) Error() string { return "service: " + e.Msg }

// NotFoundError reports an unknown circuit or job id.
type NotFoundError struct{ What, ID string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("service: unknown %s %q", e.What, e.ID) }

// ErrDraining rejects submissions after drain began.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// ErrCheckpointed marks jobs the drain deadline stranded; their inputs are
// in the drain checkpoint.
var ErrCheckpointed = errors.New("service: drained before scheduling; job checkpointed")

// Service is the proving service. Construct with New, serve it over HTTP
// with NewHandler, stop it with Drain + Close.
type Service struct {
	cfg    Config
	reg    *telemetry.Registry
	events *telemetry.EventLog
	sched  *scheduler
	ctx    context.Context // base context for dispatches (carries the tracer)

	mu       sync.Mutex
	idle     *sync.Cond // admitted == 0, for Drain
	circuits map[string]*circuitEntry
	jobs     map[string]*Job
	restored map[string]bool // checkpoint job ids already resubmitted
	// clientJobs maps a caller-chosen idempotency key to the job it
	// admitted: re-submitting the same key attaches to the running (or
	// finished) job instead of proving twice. This is what makes a new
	// cluster leader's re-forwards exactly-once from the node's view.
	clientJobs map[string]*Job
	admitted   int
	accepting  bool
	jobSeq     uint64

	inflight atomic.Int64

	// Cached metric handles (hot path: one atomic op each).
	cAccepted, cRejected, cDone, cFailed *telemetry.Counter
	cBatches, cDeduped                   *telemetry.Counter
	cFusedBatches, cBatchFall            *telemetry.Counter
	gQueueDepth, gInflight               *telemetry.Gauge
	hQueueWait, hProve, hE2E             *telemetry.Histogram
	hBatchSize                           *telemetry.Histogram
}

// New builds the service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	if cfg.Tracer != nil {
		ctx = telemetry.NewContext(ctx, cfg.Tracer)
		for d := 0; d < dispatchers; d++ {
			cfg.Tracer.NameTrack(telemetry.DeviceTrack(d), fmt.Sprintf("dispatch slot %d", d))
		}
	}
	s := &Service{
		cfg:        cfg,
		reg:        cfg.Registry,
		events:     cfg.Events,
		sched:      newScheduler(cfg.MaxBatch),
		ctx:        ctx,
		circuits:   map[string]*circuitEntry{},
		jobs:       map[string]*Job{},
		restored:   map[string]bool{},
		clientJobs: map[string]*Job{},
		accepting:  true,
	}
	s.idle = sync.NewCond(&s.mu)
	r := s.reg
	s.cAccepted = r.Counter("service.jobs.accepted")
	s.cRejected = r.Counter("service.jobs.rejected")
	s.cDone = r.Counter("service.jobs.done")
	s.cFailed = r.Counter("service.jobs.failed")
	s.cDeduped = r.Counter("service.jobs.deduped")
	s.cBatches = r.Counter("service.batches")
	s.cFusedBatches = r.Counter("service.batches.fused")
	s.cBatchFall = r.Counter("service.batches.fallback")
	s.gQueueDepth = r.Gauge("service.queue_depth")
	s.gInflight = r.Gauge("service.inflight")
	s.hQueueWait = r.Histogram("service.queue_wait_ns")
	s.hProve = r.Histogram("service.prove_ns")
	s.hE2E = r.Histogram("service.e2e_ns")
	// Batch-size distribution, recorded at every dispatch: makes the
	// scheduler's same-circuit batching observable (the serve smoke
	// asserts p50 > 1 under -batch load). Small explicit bounds — batch
	// sizes are tiny integers, not latencies.
	s.hBatchSize = r.HistogramWithBounds("service.batch_size", []int64{1, 2, 4, 8, 16, 32, 64})
	return s
}

// Registry exposes the metrics registry (for /metrics and tests).
func (s *Service) Registry() *telemetry.Registry { return s.reg }

// Events exposes the structured event log (nil when disabled).
func (s *Service) Events() *telemetry.EventLog { return s.events }

// Ready reports whether the service accepts work: it is not draining.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepting
}

// CircuitIDFor returns the content-hash id Register assigns spec: same
// curve + same definition = same id, so re-registration is a cache hit,
// not a second trusted setup. The cluster coordinator computes
// consistent-hash placement from it before any node has seen the spec.
func CircuitIDFor(spec CircuitSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", spec.Curve, spec.Source, spec.SyntheticSize, spec.SyntheticSeed)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func curveByName(name string) (curve.ID, error) {
	switch name {
	case "bn254":
		return curve.BN254, nil
	case "bls12381":
		return curve.BLS12381, nil
	}
	return 0, &InputError{Msg: fmt.Sprintf("unsupported curve %q (want bn254 or bls12381)", name)}
}

// compileSpec builds the circuit entry (system + wire names) for a spec;
// shared by Register (which then runs its own setup) and RegisterImported
// (which installs keys produced elsewhere). budget is the MSM memory
// budget (0 = 1 GiB) that bounds a circuit's size: the proving key holds
// four G1 vectors and one G2 vector of about n points each, so a circuit
// whose points alone overrun the budget is refused before it is built
// further.
func compileSpec(spec CircuitSpec, budget int64) (*circuitEntry, error) {
	cid, err := curveByName(spec.Curve)
	if err != nil {
		return nil, err
	}
	c := curve.Get(cid)
	e := &circuitEntry{id: CircuitIDFor(spec), spec: spec, curveID: cid}
	if budget <= 0 {
		budget = 1 << 30
	}
	maxN := budget / int64(16*(4*c.G1.K.Words()+c.G2.K.Words()))
	switch {
	case spec.Source != "":
		prog, err := frontend.Compile(c.Fr, spec.Source, int(max(maxN, 1)))
		if err != nil {
			return nil, &InputError{Msg: fmt.Sprintf("compile: %v", err)}
		}
		e.sys = prog.System
		e.publicNames = prog.PublicNames
		e.secretNames = prog.SecretNames
	case spec.SyntheticSize > 0:
		if int64(spec.SyntheticSize) > maxN {
			return nil, &InputError{Msg: fmt.Sprintf("synthetic_size %d: the proving key's points overrun the %d-byte MSM memory budget",
				spec.SyntheticSize, budget)}
		}
		sys, _, _, err := workload.SyntheticR1CS(c.Fr, spec.SyntheticSize, spec.SyntheticSeed)
		if err != nil {
			return nil, &InputError{Msg: fmt.Sprintf("synthetic circuit: %v", err)}
		}
		e.sys = sys
		// SyntheticR1CS declares one public output and three secrets.
		e.publicNames = []string{"out"}
		e.secretNames = []string{"x", "y", "rv"}
	default:
		return nil, &InputError{Msg: "circuit spec needs source or synthetic_size"}
	}
	return e, nil
}

// checkCircuitCapacity rejects a new registration when the cache is full.
func (s *Service) checkCircuitCapacity(id string) (*CircuitInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.circuits[id]; ok {
		return e.info(true), nil
	}
	if len(s.circuits) >= s.cfg.MaxCircuits {
		return nil, &OverloadError{
			Depth: s.cfg.MaxCircuits, Capacity: s.cfg.MaxCircuits,
			RetryAfter: time.Minute,
		}
	}
	return nil, nil
}

// install caches a fully built entry (first writer wins under races).
func (s *Service) install(e *circuitEntry, counter string) *CircuitInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.circuits[e.id]; ok {
		return prev.info(true)
	}
	s.circuits[e.id] = e
	s.reg.Counter(counter).Add(1)
	return e.info(false)
}

// Register compiles the circuit, runs the trusted setup, optionally builds
// the GZKP tables, and caches everything under the spec's content hash.
// Registering an already-known spec returns the cached entry.
func (s *Service) Register(spec CircuitSpec) (*CircuitInfo, error) {
	if info, err := s.checkCircuitCapacity(CircuitIDFor(spec)); info != nil || err != nil {
		return info, err
	}
	e, err := compileSpec(spec, s.cfg.MSM.MemoryBudget)
	if err != nil {
		return nil, err
	}

	sp, ctx := telemetry.StartSpan(s.ctx, "register")
	sp.SetStr("circuit", e.id)
	defer sp.End()
	pk, vk, err := groth16.Setup(e.sys, curve.Get(e.curveID), nil)
	if err != nil {
		return nil, fmt.Errorf("service: setup: %w", err)
	}
	if s.cfg.Preprocess && s.cfg.MSM.Strategy == msm.GZKP {
		if err := pk.PreprocessCtx(ctx, s.cfg.MSM); err != nil {
			return nil, fmt.Errorf("service: preprocess: %w", err)
		}
	}
	e.pk, e.vk = pk, vk
	if e.vkBytes, err = vk.MarshalCompressed(); err != nil {
		return nil, err
	}
	return s.install(e, "service.circuits.registered"), nil
}

// KeyBundle is a circuit's portable key material: the spec that rebuilds
// the constraint system plus the serialized proving and verifying keys.
// It is both the GET /v1/circuits/{id}/keys response and the POST
// /v1/circuits/import request — the cluster coordinator replicates a
// circuit by exporting the bundle from the node that ran the trusted
// setup and importing it on the other replicas, so every replica proves
// under the same CRS (setups are randomized; two independent Setup runs
// would yield incompatible keys).
type KeyBundle struct {
	CircuitID    string      `json:"circuit_id"`
	Spec         CircuitSpec `json:"spec"`
	ProvingKey   []byte      `json:"proving_key"`   // groth16 binary encoding
	VerifyingKey []byte      `json:"verifying_key"` // compressed wire encoding
	// FixedBase carries the proof-assembly fixed-base tables built at
	// register time, so replicas install bit-identical tables instead of
	// recomputing (or silently falling back to the generic ladder). Empty
	// in bundles from older nodes; importers then fall back and count it.
	FixedBase []byte `json:"fixed_base,omitempty"`
}

// ExportKeys serializes a cached circuit's key material for replication.
func (s *Service) ExportKeys(id string) (*KeyBundle, error) {
	s.mu.Lock()
	e, ok := s.circuits[id]
	s.mu.Unlock()
	if !ok {
		return nil, &NotFoundError{What: "circuit", ID: id}
	}
	pkBytes, err := e.pk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("service: export keys: %w", err)
	}
	var fbBytes []byte
	if e.pk.HasAssemblyTables() {
		if fbBytes, err = e.pk.MarshalAssemblyTables(); err != nil {
			return nil, fmt.Errorf("service: export fixed-base tables: %w", err)
		}
	}
	return &KeyBundle{
		CircuitID: id, Spec: e.spec,
		ProvingKey:   pkBytes,
		VerifyingKey: append([]byte(nil), e.vkBytes...),
		FixedBase:    fbBytes,
	}, nil
}

// RegisterImported installs a circuit with keys produced elsewhere
// (another node's trusted setup) instead of sampling a fresh CRS: the
// system is recompiled locally from the spec, the keys are decoded and
// curve-checked, and GZKP preprocessing runs if configured. The caller is
// trusted to pair spec and keys correctly — this is the cluster's
// internal replication hook, not a public registration path.
func (s *Service) RegisterImported(kb KeyBundle) (*CircuitInfo, error) {
	id := CircuitIDFor(kb.Spec)
	if info, err := s.checkCircuitCapacity(id); info != nil || err != nil {
		return info, err
	}
	e, err := compileSpec(kb.Spec, s.cfg.MSM.MemoryBudget)
	if err != nil {
		return nil, err
	}
	pk := &groth16.ProvingKey{}
	if err := pk.UnmarshalBinary(kb.ProvingKey); err != nil {
		return nil, &InputError{Msg: fmt.Sprintf("import: bad proving key: %v", err)}
	}
	vk, err := groth16.UnmarshalVerifyingKeyAuto(kb.VerifyingKey)
	if err != nil {
		return nil, &InputError{Msg: fmt.Sprintf("import: bad verifying key: %v", err)}
	}
	if pk.CurveID != e.curveID || vk.CurveID != e.curveID {
		return nil, &InputError{Msg: "import: key curve does not match spec curve"}
	}
	if len(kb.FixedBase) > 0 {
		if err := pk.UnmarshalAssemblyTables(kb.FixedBase); err != nil {
			return nil, &InputError{Msg: fmt.Sprintf("import: bad fixed-base tables: %v", err)}
		}
	} else {
		// Older bundle without tables: the prover falls back to the
		// generic ladder; surface that so operators can spot stale peers.
		s.reg.Counter("service.fixedbase.missing").Add(1)
	}
	if s.cfg.Preprocess && s.cfg.MSM.Strategy == msm.GZKP {
		if err := pk.PreprocessCtx(s.ctx, s.cfg.MSM); err != nil {
			return nil, fmt.Errorf("service: preprocess imported: %w", err)
		}
	}
	e.pk, e.vk = pk, vk
	if e.vkBytes, err = vk.MarshalCompressed(); err != nil {
		return nil, err
	}
	return s.install(e, "service.circuits.imported"), nil
}

// Circuit returns the registration info of a cached circuit.
func (s *Service) Circuit(id string) (*CircuitInfo, error) {
	s.mu.Lock()
	e, ok := s.circuits[id]
	s.mu.Unlock()
	if !ok {
		return nil, &NotFoundError{What: "circuit", ID: id}
	}
	return e.info(true), nil
}

// parseInputs turns decimal strings into field elements, validating arity
// against the circuit's declared inputs.
func parseInputs(f *ff.Field, vals []string, want int, kind string) ([]ff.Element, error) {
	if len(vals) != want {
		return nil, &InputError{Msg: fmt.Sprintf("want %d %s inputs, got %d", want, kind, len(vals))}
	}
	out := make([]ff.Element, len(vals))
	for i, v := range vals {
		b, ok := new(big.Int).SetString(v, 10)
		if !ok {
			return nil, &InputError{Msg: fmt.Sprintf("%s input %d: not a decimal value", kind, i)}
		}
		out[i] = f.FromBig(b)
	}
	return out, nil
}

// Submit admits one prove request. It validates the inputs up front (so a
// malformed request costs nothing downstream), then either admits the job
// into the bounded queue or rejects with an OverloadError carrying the
// Retry-After estimate. Accepted jobs always reach a terminal state.
func (s *Service) Submit(circuitID string, public, secret []string) (*Job, error) {
	return s.SubmitTraced("", circuitID, public, secret, telemetry.SpanContext{})
}

// SubmitTraced is Submit with an optional caller-chosen idempotency key and
// a propagated trace context. When clientKey is non-empty and a job with
// the same key was already admitted, the existing job is returned instead
// of admitting a second one: a failed-over cluster coordinator re-forwards
// accepted jobs under their cluster ids, and the dedupe turns those
// re-forwards into attaches, so a leader change never proves the same job
// twice. The admitted job's spans get the trace id as an attribute, so a
// coordinator-forwarded job's node-side work joins the coordinator-side
// trace when the per-process JSONL logs are stitched; a dedupe hit keeps
// the trace the job was born with.
func (s *Service) SubmitTraced(clientKey, circuitID string, public, secret []string, sc telemetry.SpanContext) (*Job, error) {
	var keys []string
	if clientKey != "" {
		keys = []string{clientKey}
	}
	jobs, err := s.admit(keys, circuitID, []ProofInput{{Public: public, Secret: secret}}, sc)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// admit is the one admission path, for a solo submission (k = 1) and a
// batch alike. keys, when non-nil, holds one idempotency key per input; if
// every key already names an admitted job those jobs are returned instead
// of admitting again. Admission is atomic: either all k jobs fit the queue
// bound (each proof counts as one admitted job) or the whole submission is
// rejected with an OverloadError — partial admission would hand the caller
// an unpredictable mix of accepted and shed work. The jobs are enqueued as
// one contiguous group so the scheduler's same-circuit extraction hands
// them to one dispatch together, and a dispatch starts if a slot is free.
func (s *Service) admit(keys []string, circuitID string, inputs []ProofInput, sc telemetry.SpanContext) ([]*Job, error) {
	k := len(inputs)
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if jobs := s.jobsForKeysLocked(keys); jobs != nil {
		s.mu.Unlock()
		s.cDeduped.Add(1)
		return jobs, nil
	}
	e, ok := s.circuits[circuitID]
	s.mu.Unlock()
	if !ok {
		s.cRejected.Add(int64(k))
		return nil, &NotFoundError{What: "circuit", ID: circuitID}
	}
	f := curve.Get(e.curveID).Fr
	pubs, secs := make([][]ff.Element, k), make([][]ff.Element, k)
	for i, in := range inputs {
		var err error
		pubs[i], err = parseInputs(f, in.Public, e.sys.NumPublic, "public")
		if err == nil {
			secs[i], err = parseInputs(f, in.Secret, e.sys.NumSecret, "secret")
		}
		if err != nil {
			s.cRejected.Add(int64(k))
			if k > 1 {
				err = &InputError{Msg: fmt.Sprintf("batch proof %d: %v", i, err)}
			}
			return nil, err
		}
	}

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Re-check the keys under the admission lock: two concurrent
	// re-forwards of the same submission must collapse to one admission.
	if jobs := s.jobsForKeysLocked(keys); jobs != nil {
		s.mu.Unlock()
		s.cDeduped.Add(1)
		return jobs, nil
	}
	if s.admitted+k > s.cfg.QueueCapacity {
		depth := s.admitted
		s.mu.Unlock()
		s.cRejected.Add(int64(k))
		return nil, &OverloadError{
			Depth: depth, Capacity: s.cfg.QueueCapacity,
			RetryAfter: s.retryAfterEstimate(depth + k),
		}
	}
	s.admitted += k
	jobs := make([]*Job, k)
	for i, in := range inputs {
		s.jobSeq++
		id := fmt.Sprintf("job-%08d", s.jobSeq)
		j := newJob(id, circuitID, in.Public, in.Secret, s.jobDone)
		j.trace, j.circuit, j.pub, j.sec = sc, e, pubs[i], secs[i]
		s.jobs[id] = j
		if keys != nil {
			s.clientJobs[keys[i]] = j
		}
		jobs[i] = j
	}
	s.mu.Unlock()

	s.cAccepted.Add(int64(k))
	if err := s.sched.enqueue(jobs...); err != nil {
		// Closed since the check above: the jobs are admitted, so they
		// fail rather than vanish.
		for _, j := range jobs {
			s.fail(j, err)
		}
		return jobs, nil
	}
	s.gQueueDepth.Set(float64(s.sched.depth()))
	s.pump()
	return jobs, nil
}

// jobsForKeysLocked returns the jobs previously admitted under keys, or nil
// when there are no keys or any of them is unknown. Caller holds s.mu.
func (s *Service) jobsForKeysLocked(keys []string) []*Job {
	if keys == nil {
		return nil
	}
	jobs := make([]*Job, len(keys))
	for i, key := range keys {
		if jobs[i] = s.clientJobs[key]; jobs[i] == nil {
			return nil
		}
	}
	return jobs
}

// retryAfterEstimate sizes the 429 Retry-After header: the time for the
// dispatches in flight to chew through the current backlog at the observed
// mean prove latency, clamped to [1s, 60s].
func (s *Service) retryAfterEstimate(depth int) time.Duration {
	mean := int64(100 * time.Millisecond) // prior before any observation
	if snap := s.hProve.Snapshot(); snap.Count > 0 {
		mean = snap.Mean()
	}
	est := time.Duration(int64(depth) * mean / dispatchers)
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Job looks up an accepted job by id.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, &NotFoundError{What: "job", ID: id}
	}
	return j, nil
}

// jobDone releases the admission slot when a job reaches a terminal state.
func (s *Service) jobDone(j *Job) {
	s.mu.Lock()
	s.admitted--
	if s.admitted == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	s.gQueueDepth.Set(float64(s.sched.depth()))
}

// pump starts dispatches while jobs are queued and fewer than dispatchers
// are in flight: at admission, and (in dispatch) when one completes.
func (s *Service) pump() {
	for batch, slot := s.sched.take(); batch != nil; batch, slot = s.sched.take() {
		go s.dispatch(slot, batch)
	}
}

// dispatch runs batch in slot, then the next dispatch the queue has for the
// slot, until it has none.
func (s *Service) dispatch(slot int, batch []*Job) {
	for batch != nil {
		k := int64(len(batch))
		s.cBatches.Add(1)
		s.hBatchSize.Record(k)
		for _, j := range batch {
			j.markRunning()
			s.hQueueWait.Record(j.queueNS)
		}
		s.gInflight.Set(float64(s.inflight.Add(k)))
		s.gQueueDepth.Set(float64(s.sched.depth()))
		s.run(s.ctx, slot, batch)
		s.gInflight.Set(float64(s.inflight.Add(-k)))
		s.sched.release(slot)
		batch, slot = s.sched.take()
	}
}

// run drives k same-circuit jobs in dispatch slot slot as one scope on the
// task list (par.Run on Config.MSM.Workers): each job's witness solve is a
// task, and a solve error fails that job alone; the jobs that solved are
// proved together in one k-wide groth16.ProveTasks, and the proofs are
// verified server-side (as one batch) in a task that finishes the jobs.
//
// An error that fails the scope at k > 1 cannot be attributed to a job, so
// the unfinished jobs are re-run as singletons: the healthy ones still
// prove and the failure lands on the right job. At k = 1 it fails the job.
func (s *Service) run(ctx context.Context, slot int, jobs []*Job) {
	k, e := len(jobs), jobs[0].circuit

	dsp, ctx := telemetry.StartSpanOn(ctx, telemetry.DeviceTrack(slot), "dispatch")
	dsp.SetStr("circuit", e.id)
	dsp.SetInt("jobs", int64(k))
	defer dsp.End()
	for _, j := range jobs { // one span per job, open for the whole dispatch
		sp, _ := telemetry.StartSpan(ctx, "job")
		sp.SetStr("id", j.ID)
		j.trace.Annotate(sp)
		sp.SetInt("queue_ns", j.queueNS)
		defer sp.End()
	}

	cfg := groth16.ProveConfig{NTT: s.cfg.NTT, MSM: s.cfg.MSM}
	wits := make([][]ff.Element, k)
	t0 := time.Now()
	var ssp telemetry.Span // ended by the join, or below if the scope fails first
	err := par.Run(ctx, s.cfg.MSM.Workers, func(ctx context.Context, l *par.List) error {
		ssp, _ = telemetry.StartSpan(ctx, "solve")
		solve := func(_, i int) error {
			var err error
			if wits[i], err = e.sys.Solve(jobs[i].pub, jobs[i].sec); err != nil {
				s.fail(jobs[i], err) // wits[i] stays nil
			}
			return nil
		}
		l.Fan(k, func(int) int64 { return 0 }, solve, func(int) error {
			ssp.End()
			var ok []*Job
			var okWits, okPubs [][]ff.Element
			for i, w := range wits {
				if w != nil {
					ok, okWits, okPubs = append(ok, jobs[i]), append(okWits, w), append(okPubs, jobs[i].pub)
				}
			}
			if len(ok) == 0 {
				return nil
			}
			// ProveTasks opens the dispatch's "prove" span.
			return groth16.ProveTasks(ctx, l, e.pk, e.sys, okWits, cfg, nil, func(proofs []*groth16.Proof, _ *groth16.BatchStats) {
				// The one definition of prove_ns, for every k: the dispatch's
				// solve + prove wall time, shared equally by the jobs proved.
				proveNS := time.Since(t0).Nanoseconds() / int64(len(ok))
				if len(ok) > 1 {
					s.cFusedBatches.Add(1)
				}
				l.Push(0, func(int) error {
					s.verify(ctx, e, ok, proofs, okPubs, proveNS)
					return nil
				})
			})
		})
		return nil
	})
	ssp.End()
	if err == nil {
		return
	}
	var rest []*Job // the jobs the failed scope left unfinished
	for _, j := range jobs {
		if j.State() == JobRunning {
			rest = append(rest, j)
		}
	}
	switch {
	case len(rest) > 1:
		s.cBatchFall.Add(1)
		s.events.Log(telemetry.LevelWarn, "service", "batch_fallback", map[string]any{
			"slot": slot, "jobs": len(rest), "error": err.Error(),
		})
		for _, j := range rest {
			s.run(ctx, slot, []*Job{j})
		}
	case len(rest) == 1:
		s.fail(rest[0], err)
	}
}

// verify is a dispatch's server-side verification: the service never
// returns a proof it has not checked (catching miscompiled circuits and
// recovery bugs at the boundary instead of at the client). A k-wide
// dispatch is checked by one random-linear-combination BatchVerify; only
// if that rejects are the proofs checked one by one, so the failure lands
// on the job that owns it and on no other. verify_ns, like prove_ns, is
// the wall time shared equally by the jobs. It finishes the jobs.
func (s *Service) verify(ctx context.Context, e *circuitEntry, jobs []*Job, proofs []*groth16.Proof, pubs [][]ff.Element, proveNS int64) {
	k := len(jobs)
	vsp, _ := telemetry.StartSpan(ctx, "verify")
	tv := time.Now()
	verrs := make([]error, k)
	if k == 1 || groth16.BatchVerify(e.vk, proofs, pubs) != nil {
		for i := range jobs {
			verrs[i] = groth16.Verify(e.vk, proofs[i], pubs[i])
		}
	}
	verifyNS := time.Since(tv).Nanoseconds() / int64(k)
	vsp.End()
	for i, j := range jobs {
		if verrs[i] != nil {
			s.fail(j, fmt.Errorf("service: produced proof failed verification: %w", verrs[i]))
			continue
		}
		blob, merr := proofs[i].MarshalCompressed()
		if merr != nil {
			s.fail(j, merr)
			continue
		}
		j.mu.Lock()
		j.proveNS = proveNS
		j.verifyNS = verifyNS
		j.mu.Unlock()
		// Count before finishing: finish releases the admission slot, and
		// a Drain woken by the last slot reads these counters.
		s.cDone.Add(1)
		s.hProve.Record(proveNS)
		s.hE2E.Record(time.Since(j.enqueued).Nanoseconds())
		j.finish(JobDone, blob, nil)
	}
}

// fail moves a job to its terminal failed state (counted first, see run).
func (s *Service) fail(j *Job, err error) {
	s.cFailed.Add(1)
	s.hE2E.Record(time.Since(j.enqueued).Nanoseconds())
	j.finish(JobFailed, nil, err)
}

// CheckpointEntry is one stranded job in a drain checkpoint.
type CheckpointEntry struct {
	JobID     string   `json:"job_id"`
	CircuitID string   `json:"circuit_id"`
	Public    []string `json:"public"`
	Secret    []string `json:"secret"`
}

// CheckpointVersion is the current checkpoint schema version. Version 0
// (the field absent) is the legacy schema and is accepted everywhere;
// any other mismatch is rejected rather than misread.
const CheckpointVersion = 1

// Checkpoint is the drain artifact: the circuit specs (so a successor can
// rebuild the registry deterministically — ids are content hashes) and the
// jobs that were admitted but never scheduled before the deadline.
type Checkpoint struct {
	Version  int               `json:"version,omitempty"`
	Circuits []CircuitSpec     `json:"circuits"`
	Jobs     []CheckpointEntry `json:"jobs"`
}

// versionOK reports whether a checkpoint's schema version is readable by
// this build (current, or the pre-versioning 0).
func (cp *Checkpoint) versionOK() bool {
	return cp.Version == 0 || cp.Version == CheckpointVersion
}

// DrainReport summarizes a drain.
type DrainReport struct {
	Finished     int64       // jobs that reached done/failed during the drain window
	Checkpointed *Checkpoint // nil when everything finished in time
}

// Drain stops accepting work and waits for every admitted job to finish.
// If ctx expires first, still-queued jobs are pulled off the scheduler,
// marked checkpointed, and returned for persistence. Call Close afterwards.
func (s *Service) Drain(ctx context.Context) (*DrainReport, error) {
	s.mu.Lock()
	s.accepting = false
	admitted := s.admitted
	s.mu.Unlock()
	finished0 := s.cDone.Value() + s.cFailed.Value()
	s.events.Log(telemetry.LevelInfo, "service", "drain_begin", map[string]any{
		"admitted": admitted,
	})

	stop := context.AfterFunc(ctx, func() {
		// Wake the idle wait below so it notices the deadline.
		s.mu.Lock()
		s.idle.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	for s.admitted > 0 && ctx.Err() == nil {
		s.idle.Wait()
	}
	s.mu.Unlock()

	rep := &DrainReport{Finished: s.cDone.Value() + s.cFailed.Value() - finished0}
	if ctx.Err() == nil {
		s.events.Log(telemetry.LevelInfo, "service", "drain_complete", map[string]any{
			"finished": rep.Finished,
		})
		return rep, nil
	}
	// Deadline: checkpoint whatever never got scheduled.
	pending := s.sched.drainPending()
	if len(pending) == 0 {
		s.events.Log(telemetry.LevelInfo, "service", "drain_complete", map[string]any{
			"finished": rep.Finished, "deadline": true,
		})
		return rep, ctx.Err()
	}
	cp := &Checkpoint{Version: CheckpointVersion}
	seen := map[string]bool{}
	s.mu.Lock()
	for _, j := range pending {
		if e, ok := s.circuits[j.CircuitID]; ok && !seen[j.CircuitID] {
			seen[j.CircuitID] = true
			cp.Circuits = append(cp.Circuits, e.spec)
		}
	}
	s.mu.Unlock()
	for _, j := range pending {
		cp.Jobs = append(cp.Jobs, CheckpointEntry{
			JobID: j.ID, CircuitID: j.CircuitID,
			Public: append([]string(nil), j.Public...),
			Secret: append([]string(nil), j.Secret...),
		})
		j.finish(JobCheckpointed, nil, ErrCheckpointed)
	}
	rep.Checkpointed = cp
	s.events.Log(telemetry.LevelWarn, "service", "drain_checkpointed", map[string]any{
		"finished": rep.Finished, "checkpointed": len(cp.Jobs),
	})
	return rep, nil
}

// Restore re-registers a checkpoint's circuits and resubmits its jobs —
// run at startup by a successor process. Returns the restored job count.
// Restoring is idempotent over checkpoint job ids: a job id already
// resubmitted by an earlier Restore is skipped, so replaying the same
// checkpoint (or a merged cluster checkpoint carrying a duplicate) never
// double-submits work.
func (s *Service) Restore(cp *Checkpoint) (int, error) {
	if !cp.versionOK() {
		return 0, &InputError{Msg: fmt.Sprintf(
			"checkpoint schema version %d not supported (want %d)", cp.Version, CheckpointVersion)}
	}
	for _, spec := range cp.Circuits {
		if _, err := s.Register(spec); err != nil {
			return 0, fmt.Errorf("service: restore circuit: %w", err)
		}
	}
	n := 0
	for _, e := range cp.Jobs {
		s.mu.Lock()
		if s.restored[e.JobID] {
			s.mu.Unlock()
			continue
		}
		s.restored[e.JobID] = true
		s.mu.Unlock()
		if _, err := s.Submit(e.CircuitID, e.Public, e.Secret); err != nil {
			// The submit failed (overload, drain): un-claim the id so a
			// later replay of the checkpoint can try again.
			s.mu.Lock()
			delete(s.restored, e.JobID)
			s.mu.Unlock()
			return n, fmt.Errorf("service: restore job %s: %w", e.JobID, err)
		}
		n++
	}
	if n > 0 {
		s.events.Log(telemetry.LevelInfo, "service", "restore", map[string]any{
			"jobs": n, "circuits": len(cp.Circuits),
		})
	}
	return n, nil
}

// CircuitExport names one cached circuit: its content-hash id plus the
// spec that rebuilds it. A cluster coordinator reads these off nodes to
// re-register circuits on survivors after a node loss.
type CircuitExport struct {
	CircuitID string      `json:"circuit_id"`
	Spec      CircuitSpec `json:"spec"`
}

// ExportCircuits lists every registered circuit as (id, spec) pairs, in
// registration-stable (id-sorted) order.
func (s *Service) ExportCircuits() []CircuitExport {
	s.mu.Lock()
	out := make([]CircuitExport, 0, len(s.circuits))
	for id, e := range s.circuits {
		out = append(out, CircuitExport{CircuitID: id, Spec: e.spec})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].CircuitID < out[j].CircuitID })
	return out
}

// Close stops starting dispatches and waits for those in flight. Pending
// jobs are abandoned — call Drain first for a graceful stop.
func (s *Service) Close() {
	s.sched.close()
}
