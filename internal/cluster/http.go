package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// HTTP API of the coordinator — deliberately the same shape as one node's
// API (internal/service), so clients and the load generator point at a
// cluster exactly as they would a single prover:
//
//	POST /v1/circuits      register a circuit on its ring replicas
//	GET  /v1/circuits/{id} describe a registered circuit
//	POST /v1/prove         submit a job; ?async=1 returns 202 + job id
//	POST /v1/prove-batch   forward k same-circuit proofs to one replica's
//	                       fused batch pipeline (synchronous)
//	POST /v1/verify-batch  forward an RLC batch verification to a replica
//	GET  /v1/jobs/{id}     poll a cluster job
//	GET  /v1/nodes         cluster topology and per-node health
//	POST /v1/drain         cluster-wide drain; returns the merged checkpoint
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while draining or no node alive)
//	GET  /metrics          coordinator metrics snapshot (JSON; ?format=prom
//	                       renders Prometheus text exposition)
//	GET  /v1/cluster/metrics  federated metrics: every live node's /metrics
//	                       scraped and merged with the coordinator's own —
//	                       Prometheus text by default, ?format=json for the
//	                       structured Federation view
//	GET  /v1/cluster/events   structured control-plane event log
//	                       (?since=, ?max=)
//
// Distributed tracing: POST /v1/prove adopts the client's X-Gzkp-Trace-Id
// (generating one when absent), echoes it back in the same header, and
// injects it on every node forward so one trace id spans coordinator and
// node processes. Responses, error mapping and body decoding are the
// node's own (service.WriteJSON and friends), so both edges answer alike.

// NewHandler mounts the coordinator API on a fresh mux.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/circuits", func(w http.ResponseWriter, r *http.Request) {
		var spec service.CircuitSpec
		if err := service.DecodeBody(w, r, &spec); err != nil {
			service.WriteError(w, err)
			return
		}
		info, err := c.Register(spec)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		code := http.StatusCreated
		if info.Cached {
			code = http.StatusOK
		}
		service.WriteJSON(w, code, info)
	})

	mux.HandleFunc("GET /v1/circuits/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, err := c.Circuit(r.PathValue("id"))
		if err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /v1/prove", func(w http.ResponseWriter, r *http.Request) {
		var req service.ProveRequest
		if err := service.DecodeBody(w, r, &req); err != nil {
			service.WriteError(w, err)
			return
		}
		j, err := c.SubmitTraced(telemetry.ExtractTrace(r.Header).TraceID,
			req.CircuitID, req.Public, req.Secret)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		if j.TraceID != "" {
			w.Header().Set(telemetry.TraceIDHeader, j.TraceID)
		}
		if r.URL.Query().Get("async") != "" {
			service.WriteJSON(w, http.StatusAccepted, j.Status())
			return
		}
		select {
		case <-j.Done():
			service.WriteJSON(w, j.syncCode(), j.Status())
		case <-r.Context().Done():
			// The client went away; the job keeps running (or migrating)
			// and stays pollable under its cluster id.
			service.WriteJSON(w, http.StatusAccepted, j.Status())
		}
	})

	mux.HandleFunc("POST /v1/prove-batch", func(w http.ResponseWriter, r *http.Request) {
		var req service.ProveBatchRequest
		if err := service.DecodeBodyLimit(w, r, &req, service.MaxBatchBodyBytes); err != nil {
			service.WriteError(w, err)
			return
		}
		trace := telemetry.ExtractTrace(r.Header).TraceID
		resp, err := c.ProveBatch(trace, req.CircuitID, req.Proofs)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		if trace != "" {
			w.Header().Set(telemetry.TraceIDHeader, trace)
		}
		service.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/verify-batch", func(w http.ResponseWriter, r *http.Request) {
		var req service.VerifyBatchRequest
		if err := service.DecodeBodyLimit(w, r, &req, service.MaxBatchBodyBytes); err != nil {
			service.WriteError(w, err)
			return
		}
		if err := c.VerifyBatch(req.CircuitID, req.Proofs, req.Publics); err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, service.VerifyBatchResponse{OK: true, Proofs: len(req.Proofs)})
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, err := c.Job(r.PathValue("id"))
		if err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, c.Nodes())
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		timeout := 60 * time.Second
		if v := r.URL.Query().Get("timeout"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				service.WriteError(w, &service.InputError{Msg: fmt.Sprintf("bad drain timeout %q", v)})
				return
			}
			timeout = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		rep, err := c.Drain(ctx)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, service.DrainResponse{Finished: rep.Finished, Checkpoint: rep.Checkpoint})
	})

	mux.HandleFunc("POST /v1/restore", func(w http.ResponseWriter, r *http.Request) {
		var cp service.Checkpoint
		if err := service.DecodeBody(w, r, &cp); err != nil {
			service.WriteError(w, err)
			return
		}
		n, err := c.Restore(&cp)
		if err != nil {
			service.WriteError(w, err)
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]int{"restored": n})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		code, status := http.StatusOK, "ready"
		if !c.Ready() {
			code, status = http.StatusServiceUnavailable, "not ready"
		}
		service.WriteJSON(w, code, map[string]any{"status": status, "nodes_alive": c.NodesAlive()})
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		service.WriteMetrics(w, r, c.Registry().Snapshot())
	})

	mux.HandleFunc("GET /v1/cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
		defer cancel()
		fed := c.FederateMetrics(ctx)
		if r.URL.Query().Get("format") == "json" {
			service.WriteJSON(w, http.StatusOK, fed)
			return
		}
		w.Header().Set("Content-Type", telemetry.PromContentType)
		w.WriteHeader(http.StatusOK)
		_ = fed.WritePrometheus(w)
	})

	mux.HandleFunc("GET /v1/cluster/events", func(w http.ResponseWriter, r *http.Request) {
		service.WriteEvents(w, r, c.Events())
	})

	return mux
}
