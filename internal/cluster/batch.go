package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"gzkp/internal/resilience"
	"gzkp/internal/service"
	"gzkp/internal/telemetry"
)

// Batch forwarding: a batch prove is one synchronous node round-trip for
// k same-circuit proofs, so the coordinator forwards the whole request to
// a single replica (splitting it would forfeit the node-side fusion the
// batch exists for). It rides the same forward loop as a solo job, k jobs
// wide; the node-side batch idempotency key makes a re-forward attach
// instead of proving twice on a node that already started.

// ProveBatch forwards a k-proof batch to the best replica of its circuit
// and returns the node's per-proof job statuses. The batch counts k jobs
// against the coordinator's MaxInflight admission bound for its duration.
func (c *Coordinator) ProveBatch(traceID, circuitID string, inputs []service.ProofInput) (*service.ProveBatchResponse, error) {
	k := len(inputs)
	if k == 0 {
		return nil, &service.InputError{Msg: "empty batch"}
	}
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	key, err := c.admit("cb", circuitID, k, true)
	if err != nil {
		return nil, err
	}
	defer c.release(k)
	c.events.Log(telemetry.LevelDebug, "cluster", "batch_accepted", map[string]any{
		"batch": key, "circuit": circuitID, "jobs": k, "trace_id": traceID,
	})
	root := c.tracer.Root(telemetry.TrackHost, "cluster.prove_batch")
	telemetry.SpanContext{TraceID: traceID}.Annotate(root)
	root.SetStr("circuit", circuitID)
	root.SetInt("jobs", int64(k))
	defer root.End()

	out, _, err := forward(c, request[service.ProveBatchResponse]{
		kind: "batch", id: key, circuit: circuitID, trace: traceID, jobs: k,
		path: "/v1/prove-batch?sync=1", root: root,
		counter: c.reg.Counter("cluster.batches.forwarded"),
		body:    service.ProveBatchRequest{CircuitID: circuitID, Proofs: inputs, ClientBatchID: key},
		settle: func(out *service.ProveBatchResponse) error {
			if len(out.Jobs) != k {
				return fmt.Errorf("cluster: batch %s: node answered %d jobs, want %d", key, len(out.Jobs), k)
			}
			return nil
		},
	})
	if err != nil {
		c.cFailed.Add(int64(k))
		return nil, mapNodeError(err)
	}
	for _, js := range out.Jobs {
		switch js.State {
		case "done":
			c.cDone.Add(1)
		case "checkpointed":
			c.cCheckpointed.Add(1)
		default:
			c.cFailed.Add(1)
		}
	}
	return out, nil
}

// VerifyBatch forwards one RLC batch-verification request to a replica of
// the circuit through the same forward loop (no jobs ride on it).
func (c *Coordinator) VerifyBatch(circuitID string, proofs [][]byte, publics [][]string) error {
	if _, err := c.Circuit(circuitID); err != nil {
		return err
	}
	if len(proofs) == 0 {
		return &service.InputError{Msg: "empty batch"}
	}
	_, _, err := forward(c, request[service.VerifyBatchResponse]{
		kind: "verify", id: circuitID, circuit: circuitID, path: "/v1/verify-batch",
		counter: c.reg.Counter("cluster.batch_verifies.forwarded"),
		body:    service.VerifyBatchRequest{CircuitID: circuitID, Proofs: proofs, Publics: publics},
	})
	return mapNodeError(err)
}

// mapNodeError lifts a node HTTP status back into the service error
// vocabulary so the coordinator's own edge re-serializes it with the
// right status code (the message keeps the node's error text).
func mapNodeError(err error) error {
	var he *resilience.HTTPError
	if !errors.As(err, &he) {
		return err
	}
	switch he.Status {
	case http.StatusTooManyRequests:
		ra := he.RetryAfter
		if ra <= 0 {
			ra = 2 * time.Second
		}
		return &service.OverloadError{RetryAfter: ra}
	case http.StatusBadRequest:
		return &service.InputError{Msg: err.Error()}
	case http.StatusNotFound:
		return &service.NotFoundError{What: "resource", ID: err.Error()}
	default:
		return err
	}
}
