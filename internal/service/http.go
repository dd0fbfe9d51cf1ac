package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"gzkp/internal/telemetry"
)

// HTTP API of the proving service (stdlib net/http, Go 1.22 pattern mux):
//
//	POST /v1/circuits      register/compile a circuit, cache the proving key
//	GET  /v1/circuits      export registered circuits as (id, spec) pairs
//	POST /v1/prove         submit a job; ?async=1 returns 202 + job id,
//	                       otherwise blocks for the proof (or client timeout)
//	POST /v1/prove-batch   submit k same-circuit jobs atomically; ?sync=1
//	                       blocks for all proofs, otherwise 202 + job ids
//	POST /v1/verify-batch  RLC batch-verify k compressed proofs under one
//	                       registered circuit's verifying key
//	GET  /v1/jobs/{id}     poll an async job
//	POST /v1/drain         stop accepting, finish admitted jobs within
//	                       ?timeout=, return the checkpoint of whatever the
//	                       deadline strands (cluster-coordinator admin hook)
//	GET  /v1/events        structured control-plane events (?since=, ?max=)
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while draining)
//	GET  /metrics          JSON metrics snapshot (counters/gauges/histograms);
//	                       ?format=prom renders Prometheus text exposition
//
// Distributed tracing: POST /v1/prove reads X-Gzkp-Trace-Id (and
// X-Gzkp-Parent-Span) so a coordinator-forwarded job's node-side spans
// carry the cluster-wide trace id; the response echoes the trace id
// back in the same header.
//
// Error mapping: malformed input → 400, unknown id → 404, admission-control
// rejection → 429 with Retry-After, draining → 503 with Retry-After.

// maxBodyBytes bounds request bodies — another face of the same
// reject-don't-grow policy the job queue applies. Key imports carry a
// serialized proving key (dominated by the per-wire query points), so
// that one route gets a larger cap.
const (
	maxBodyBytes    = 1 << 20
	maxKeyBodyBytes = 64 << 20
	// MaxBatchBodyBytes bounds batch routes, which carry k proofs/input
	// sets per request (the cluster coordinator's edge shares it).
	MaxBatchBodyBytes = 8 << 20
)

// batchResponse snapshots every job of a batch submission.
func batchResponse(jobs []*Job) ProveBatchResponse {
	resp := ProveBatchResponse{Jobs: make([]JobStatus, len(jobs))}
	for i, j := range jobs {
		resp.Jobs[i] = j.Snapshot()
	}
	return resp
}

// ProveRequest is the body of POST /v1/prove. ClientJobID is an optional
// idempotency key: requests sharing one attach to one job (a cluster
// coordinator sets it to the cluster job id so leader-failover
// re-forwards never prove twice).
type ProveRequest struct {
	CircuitID   string   `json:"circuit_id"`
	Public      []string `json:"public"`
	Secret      []string `json:"secret"`
	ClientJobID string   `json:"client_job_id,omitempty"`
}

// ProveBatchRequest is the body of POST /v1/prove-batch: k same-circuit
// proofs admitted atomically (all-or-nothing against the queue bound).
// ClientBatchID dedupes the whole batch across re-submissions.
type ProveBatchRequest struct {
	CircuitID     string       `json:"circuit_id"`
	Proofs        []ProofInput `json:"proofs"`
	ClientBatchID string       `json:"client_batch_id,omitempty"`
}

// ProveBatchResponse reports every admitted job. Per-proof results arrive
// through the job records (poll GET /v1/jobs/{id}, or wait with ?sync=1).
type ProveBatchResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// VerifyBatchRequest is the body of POST /v1/verify-batch: k compressed
// proofs (base64 via JSON) plus their public inputs, checked with one RLC
// pairing check under the circuit's verifying key.
type VerifyBatchRequest struct {
	CircuitID string     `json:"circuit_id"`
	Proofs    [][]byte   `json:"proofs"`
	Publics   [][]string `json:"publics"`
}

// VerifyBatchResponse reports a successful batch verification.
type VerifyBatchResponse struct {
	OK     bool `json:"ok"`
	Proofs int  `json:"proofs"`
}

// DrainResponse is the body of POST /v1/drain: how many jobs finished
// during the window, plus the checkpoint of jobs the deadline stranded
// (nil when everything finished).
type DrainResponse struct {
	Finished   int64       `json:"finished"`
	Checkpoint *Checkpoint `json:"checkpoint,omitempty"`
}

// APIError is the JSON body of every error response (service and cluster).
type APIError struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// WriteJSON writes v as an indented JSON response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError maps service error types onto HTTP semantics.
func WriteError(w http.ResponseWriter, err error) {
	var (
		over     *OverloadError
		input    *InputError
		notFound *NotFoundError
	)
	switch {
	case errors.As(err, &over):
		secs := int(over.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, http.StatusTooManyRequests, APIError{Error: err.Error(), RetryAfter: secs})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		WriteJSON(w, http.StatusServiceUnavailable, APIError{Error: err.Error(), RetryAfter: 10})
	case errors.As(err, &input):
		WriteJSON(w, http.StatusBadRequest, APIError{Error: err.Error()})
	case errors.As(err, &notFound):
		WriteJSON(w, http.StatusNotFound, APIError{Error: err.Error()})
	default:
		WriteJSON(w, http.StatusInternalServerError, APIError{Error: err.Error()})
	}
}

// DecodeBody decodes a JSON request body (at most 1 MiB, unknown fields
// rejected) into v; a bad body comes back as an *InputError.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return DecodeBodyLimit(w, r, v, maxBodyBytes)
}

// DecodeBodyLimit is DecodeBody with an explicit size limit.
func DecodeBodyLimit(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return &InputError{Msg: fmt.Sprintf("bad request body: %v", err)}
	}
	return nil
}

// reply writes a call's result: v with code, or err as WriteError maps it.
func reply(w http.ResponseWriter, code int, v any, err error) {
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, code, v)
}

// registered replies to a registration: 201 for a new circuit, 200 for a
// cached one.
func registered(w http.ResponseWriter, info *CircuitInfo, err error) {
	code := http.StatusCreated
	if err == nil && info.Cached {
		code = http.StatusOK
	}
	reply(w, code, info, err)
}

// NewHandler mounts the service API on a fresh mux.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/circuits", func(w http.ResponseWriter, r *http.Request) {
		var spec CircuitSpec
		if err := DecodeBody(w, r, &spec); err != nil {
			WriteError(w, err)
			return
		}
		info, err := s.Register(spec)
		registered(w, info, err)
	})

	mux.HandleFunc("GET /v1/circuits", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.ExportCircuits())
	})

	mux.HandleFunc("GET /v1/circuits/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := s.Circuit(r.PathValue("id"))
		reply(w, http.StatusOK, info, err)
	})

	mux.HandleFunc("GET /v1/circuits/{id}/keys", func(w http.ResponseWriter, r *http.Request) {
		kb, err := s.ExportKeys(r.PathValue("id"))
		reply(w, http.StatusOK, kb, err)
	})

	mux.HandleFunc("POST /v1/circuits/import", func(w http.ResponseWriter, r *http.Request) {
		var kb KeyBundle
		if err := DecodeBodyLimit(w, r, &kb, maxKeyBodyBytes); err != nil {
			WriteError(w, err)
			return
		}
		info, err := s.RegisterImported(kb)
		registered(w, info, err)
	})

	mux.HandleFunc("POST /v1/prove", func(w http.ResponseWriter, r *http.Request) {
		var req ProveRequest
		if err := DecodeBody(w, r, &req); err != nil {
			WriteError(w, err)
			return
		}
		j, err := s.SubmitTraced(req.ClientJobID, req.CircuitID, req.Public, req.Secret,
			telemetry.ExtractTrace(r.Header))
		if err != nil {
			WriteError(w, err)
			return
		}
		if tid := j.Snapshot().TraceID; tid != "" {
			w.Header().Set(telemetry.TraceIDHeader, tid)
		}
		if r.URL.Query().Get("async") != "" {
			WriteJSON(w, http.StatusAccepted, j.Snapshot())
			return
		}
		select {
		case <-j.Done():
			WriteJSON(w, http.StatusOK, j.Snapshot())
		case <-r.Context().Done():
			// The client went away; the job still runs to completion and
			// stays pollable under its id.
			WriteJSON(w, http.StatusAccepted, j.Snapshot())
		}
	})

	mux.HandleFunc("POST /v1/prove-batch", func(w http.ResponseWriter, r *http.Request) {
		var req ProveBatchRequest
		if err := DecodeBody(w, r, &req); err != nil {
			WriteError(w, err)
			return
		}
		jobs, err := s.SubmitBatchTraced(req.ClientBatchID, req.CircuitID, req.Proofs,
			telemetry.ExtractTrace(r.Header))
		if err != nil {
			WriteError(w, err)
			return
		}
		if tid := jobs[0].Snapshot().TraceID; tid != "" {
			w.Header().Set(telemetry.TraceIDHeader, tid)
		}
		if r.URL.Query().Get("sync") != "" {
			// Block until every job in the batch reaches a terminal state
			// (or the client goes away — jobs keep running and stay
			// pollable, mirroring POST /v1/prove).
			code := http.StatusOK
		wait:
			for _, j := range jobs {
				select {
				case <-j.Done():
				case <-r.Context().Done():
					code = http.StatusAccepted
					break wait
				}
			}
			WriteJSON(w, code, batchResponse(jobs))
			return
		}
		WriteJSON(w, http.StatusAccepted, batchResponse(jobs))
	})

	mux.HandleFunc("POST /v1/verify-batch", func(w http.ResponseWriter, r *http.Request) {
		var req VerifyBatchRequest
		if err := DecodeBodyLimit(w, r, &req, MaxBatchBodyBytes); err != nil {
			WriteError(w, err)
			return
		}
		err := s.VerifyBatch(req.CircuitID, req.Proofs, req.Publics)
		reply(w, http.StatusOK, VerifyBatchResponse{OK: true, Proofs: len(req.Proofs)}, err)
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := s.Job(r.PathValue("id"))
		if err != nil {
			WriteError(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, j.Snapshot())
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		timeout := 30 * time.Second
		if v := r.URL.Query().Get("timeout"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				WriteError(w, &InputError{Msg: fmt.Sprintf("bad drain timeout %q", v)})
				return
			}
			timeout = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rep, err := s.Drain(ctx)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			WriteError(w, err)
			return
		}
		// A deadline is not a failure: the stranded jobs ride back in the
		// checkpoint instead of being dropped.
		WriteJSON(w, http.StatusOK, DrainResponse{Finished: rep.Finished, Checkpoint: rep.Checkpointed})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not ready"})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		WriteEvents(w, r, s.Events())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteMetrics(w, r, s.Registry().Snapshot())
	})

	return mux
}

// WriteMetrics serves a registry snapshot: JSON by default (the cluster
// prober and existing tooling decode it as telemetry.Snapshot), or
// Prometheus text exposition with ?format=prom.
func WriteMetrics(w http.ResponseWriter, r *http.Request, snap telemetry.Snapshot) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w)
		return
	}
	WriteJSON(w, http.StatusOK, snap)
}

// EventsResponse is the body of GET /v1/events (service and cluster).
type EventsResponse struct {
	Events []telemetry.EventRecord `json:"events"`
	// Seq is the newest sequence number in the log (not just this page);
	// pass it back as ?since= to poll incrementally.
	Seq uint64 `json:"seq"`
}

// WriteEvents serves a ring-buffered event log with ?since= / ?max=
// paging. A nil log means event logging is disabled — the endpoint then
// reports an empty log rather than 404, so scrapers can probe for it
// uniformly.
func WriteEvents(w http.ResponseWriter, r *http.Request, log *telemetry.EventLog) {
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			WriteError(w, &InputError{Msg: fmt.Sprintf("bad since %q", v)})
			return
		}
		since = n
	}
	max := 256
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			WriteError(w, &InputError{Msg: fmt.Sprintf("bad max %q", v)})
			return
		}
		max = n
	}
	resp := EventsResponse{Events: log.Since(since, max), Seq: log.Seq()}
	if resp.Events == nil {
		resp.Events = []telemetry.EventRecord{}
	}
	WriteJSON(w, http.StatusOK, resp)
}
