package service

import (
	"fmt"
	"sync"
	"time"

	"gzkp/internal/ff"
	"gzkp/internal/telemetry"
)

// JobState is the lifecycle of one accepted prove request.
type JobState int

const (
	// JobQueued: admitted, waiting for a dispatch.
	JobQueued JobState = iota
	// JobRunning: a dispatch is proving it.
	JobRunning
	// JobDone: proved and verified; the compressed proof is available.
	JobDone
	// JobFailed: proving failed terminally (bad witness, a prover error or
	// panic, a proof that failed verification). Admission was still honored — a failed job is
	// reported, never silently dropped.
	JobFailed
	// JobCheckpointed: drain ran out of time before the job was scheduled;
	// its inputs were written to the drain checkpoint for a successor
	// process to resubmit.
	JobCheckpointed
)

var stateNames = [...]string{"queued", "running", "done", "failed", "checkpointed"}

func (s JobState) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Job is one admitted prove request moving through the queue → schedule →
// prove → verify pipeline. Mutable fields are guarded by mu; Done() closes
// when the job reaches a terminal state.
type Job struct {
	ID        string
	CircuitID string
	// Public and Secret are the decimal input assignments, in the circuit's
	// declaration order (witness solving happens at dispatch).
	Public, Secret []string
	// trace is the propagated distributed-trace context (zero when the
	// request arrived untraced); circuit, pub and sec are the job's circuit
	// and inputs as admission found them. Immutable after admission.
	trace    telemetry.SpanContext
	circuit  *circuitEntry
	pub, sec []ff.Element

	mu    sync.Mutex
	state JobState
	err   error
	proof []byte // compressed wire encoding (groth16.MarshalCompressed)

	enqueued   time.Time
	finished   time.Time
	queueNS    int64 // enqueue → dispatch
	proveNS    int64 // witness solve + prove
	verifyNS   int64 // server-side verification of the produced proof
	doneOnce   sync.Once
	doneCh     chan struct{}
	notifyDone func(*Job) // service hook: admission slot release
}

func newJob(id, circuitID string, public, secret []string, notify func(*Job)) *Job {
	return &Job{
		ID: id, CircuitID: circuitID,
		Public: public, Secret: secret,
		doneCh: make(chan struct{}), notifyDone: notify,
		enqueued: time.Now(),
	}
}

// Done closes when the job reaches a terminal state (done, failed, or
// checkpointed).
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// State reports the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot copies the externally visible job status.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		CircuitID: j.CircuitID,
		State:     j.state.String(),
		TraceID:   j.trace.TraceID,
		QueueNS:   j.queueNS,
		ProveNS:   j.proveNS,
		VerifyNS:  j.verifyNS,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if len(j.proof) > 0 {
		st.Proof = append([]byte(nil), j.proof...)
	}
	if !j.finished.IsZero() {
		st.TotalNS = j.finished.Sub(j.enqueued).Nanoseconds()
	}
	return st
}

// JobStatus is the JSON-facing view of a job.
type JobStatus struct {
	ID        string `json:"job_id"`
	CircuitID string `json:"circuit_id"`
	State     string `json:"state"`
	TraceID   string `json:"trace_id,omitempty"`
	Proof     []byte `json:"proof,omitempty"` // compressed, base64 via encoding/json
	Error     string `json:"error,omitempty"`
	QueueNS   int64  `json:"queue_ns,omitempty"`
	ProveNS   int64  `json:"prove_ns,omitempty"`
	VerifyNS  int64  `json:"verify_ns,omitempty"`
	TotalNS   int64  `json:"total_ns,omitempty"`
}

// markRunning stamps the dispatch and the job's queue latency.
func (j *Job) markRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.queueNS = time.Since(j.enqueued).Nanoseconds()
	j.mu.Unlock()
}

func (j *Job) finish(state JobState, proof []byte, err error) {
	j.mu.Lock()
	j.state = state
	j.proof = proof
	j.err = err
	j.finished = time.Now()
	j.mu.Unlock()
	j.doneOnce.Do(func() {
		close(j.doneCh)
		if j.notifyDone != nil {
			j.notifyDone(j)
		}
	})
}
