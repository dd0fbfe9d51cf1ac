package cluster

import (
	"sync"
	"time"

	"gzkp/internal/service"
)

// Job is one accepted cluster prove request. The coordinator owns it for
// its whole life: a forwarding goroutine carries it to a node, migrates
// it to survivors when that node dies, and lands it in exactly one
// terminal state — done (proof attached), failed (with the node's error),
// or checkpointed (cluster drain stranded it; it rides in the merged
// checkpoint). Zero accepted jobs are ever silently dropped.
type Job struct {
	ID        string
	CircuitID string
	Public    []string
	Secret    []string
	// TraceID is the cluster-wide distributed-trace id: generated at
	// admission (or adopted from the client's X-Gzkp-Trace-Id header),
	// journaled with the accepted record so a redrive after failover keeps
	// it, and injected on every forward hop. Immutable after admission.
	TraceID string

	mu         sync.Mutex
	state      service.JobState
	node       string // node currently (or last) running it
	remote     service.JobStatus
	migrations int // times the job moved off a failed node
	err        error
	httpCode   int // status to propagate on the sync path (0 = derive from state)
	// nodeOwned marks a checkpointed job whose inputs are already inside a
	// node's drain checkpoint — the coordinator must not checkpoint it a
	// second time or a restore would double-submit.
	nodeOwned bool

	enqueued   time.Time
	finished   time.Time
	doneOnce   sync.Once
	doneCh     chan struct{}
	notifyDone func(*Job)
}

func newJob(id, circuitID string, public, secret []string, notify func(*Job)) *Job {
	return &Job{
		ID: id, CircuitID: circuitID, Public: public, Secret: secret,
		state: service.JobQueued, doneCh: make(chan struct{}),
		notifyDone: notify, enqueued: time.Now(),
	}
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// State reports the current lifecycle state.
func (j *Job) State() service.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// markForwarded notes which node is running the job now.
func (j *Job) markForwarded(node string) {
	j.mu.Lock()
	j.state = service.JobRunning
	j.node = node
	j.mu.Unlock()
}

// markMigrated counts a move off a failed node.
func (j *Job) markMigrated() {
	j.mu.Lock()
	j.migrations++
	j.mu.Unlock()
}

func (j *Job) migrationCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.migrations
}

// finish lands the job in a terminal state exactly once. remote, err and
// httpCode are optional context (the node's final status, the terminal
// error, and the HTTP status the sync path should propagate).
func (j *Job) finish(state service.JobState, remote *service.JobStatus, err error, httpCode int) {
	j.mu.Lock()
	j.state = state
	if remote != nil {
		j.remote = *remote
	}
	j.err = err
	j.httpCode = httpCode
	j.finished = time.Now()
	j.mu.Unlock()
	// notifyDone (admission release, the terminal journal entry) runs
	// before Done closes, so a caller woken by Done sees both.
	j.doneOnce.Do(func() {
		if j.notifyDone != nil {
			j.notifyDone(j)
		}
		close(j.doneCh)
	})
}

// markNodeOwned flags the job's checkpoint inputs as living inside a
// node's drain checkpoint (the coordinator must not duplicate them).
func (j *Job) markNodeOwned() {
	j.mu.Lock()
	j.nodeOwned = true
	j.mu.Unlock()
}

func (j *Job) isNodeOwned() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nodeOwned
}

// nodeName reports the node that ran (or last ran) the job.
func (j *Job) nodeName() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.node
}

// syncCode reports the HTTP status the sync prove path returns for a
// terminal job (200 unless a forward-time error pinned something else).
func (j *Job) syncCode() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.httpCode != 0 {
		return j.httpCode
	}
	return 200
}

// JobStatus is the JSON view of a cluster job: the node-side status
// fields (proof, error, timings) plus where it ran and how often it had
// to move.
type JobStatus struct {
	service.JobStatus
	Node       string `json:"node,omitempty"`
	Migrations int    `json:"migrations,omitempty"`
}

// Status snapshots the externally visible job state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{JobStatus: j.remote, Node: j.node, Migrations: j.migrations}
	// Cluster identity and state override whatever the node reported: the
	// node's job id is an implementation detail, and a migrated job may
	// carry a stale remote state.
	st.ID = j.ID
	st.CircuitID = j.CircuitID
	st.State = j.state.String()
	st.TraceID = j.TraceID
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if !j.finished.IsZero() {
		st.TotalNS = j.finished.Sub(j.enqueued).Nanoseconds()
	}
	return st
}
