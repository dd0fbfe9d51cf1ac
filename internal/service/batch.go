package service

import (
	"fmt"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/telemetry"
)

// ProofInput is one proof's input assignment inside a batch submission.
type ProofInput struct {
	Public []string `json:"public"`
	Secret []string `json:"secret"`
}

// SubmitBatch admits k same-circuit prove requests as one atomic batch (see
// admit). Admitted jobs get individual job records, so polling,
// checkpointing, and failover treat them exactly like solo submissions.
func (s *Service) SubmitBatch(circuitID string, inputs []ProofInput) ([]*Job, error) {
	return s.SubmitBatchTraced("", circuitID, inputs, telemetry.SpanContext{})
}

// SubmitBatchTraced is SubmitBatch with an idempotency key and a propagated
// trace context. A non-empty clientKey dedupes the whole batch (member i is
// keyed clientKey#i): a re-submit of the same key returns the originally
// admitted jobs, so cluster leader re-forwards attach instead of proving
// twice.
func (s *Service) SubmitBatchTraced(clientKey, circuitID string, inputs []ProofInput, sc telemetry.SpanContext) ([]*Job, error) {
	if len(inputs) == 0 {
		return nil, &InputError{Msg: "empty batch"}
	}
	var keys []string
	if clientKey != "" {
		keys = make([]string, len(inputs))
		for i := range keys {
			keys[i] = fmt.Sprintf("%s#%d", clientKey, i)
		}
	}
	return s.admit(keys, circuitID, inputs, sc)
}

// VerifyBatch checks k compressed proofs against a registered circuit's
// verifying key with one RLC pairing check (groth16.BatchVerify,
// crypto/rand weights). publics[i] are proof i's public inputs in decimal.
func (s *Service) VerifyBatch(circuitID string, proofBlobs [][]byte, publics [][]string) error {
	s.mu.Lock()
	e, ok := s.circuits[circuitID]
	s.mu.Unlock()
	if !ok {
		return &NotFoundError{What: "circuit", ID: circuitID}
	}
	if len(proofBlobs) == 0 {
		return &InputError{Msg: "empty batch"}
	}
	if len(proofBlobs) != len(publics) {
		return &InputError{Msg: fmt.Sprintf("%d proofs vs %d public-input sets", len(proofBlobs), len(publics))}
	}
	f := curve.Get(e.curveID).Fr
	proofs := make([]*groth16.Proof, len(proofBlobs))
	pubs := make([][]ff.Element, len(proofBlobs))
	for i, blob := range proofBlobs {
		p, err := groth16.UnmarshalProofAuto(blob)
		if err != nil {
			return &InputError{Msg: fmt.Sprintf("proof %d: %v", i, err)}
		}
		proofs[i] = p
		if pubs[i], err = parseInputs(f, publics[i], e.sys.NumPublic, "public"); err != nil {
			return &InputError{Msg: fmt.Sprintf("proof %d: %v", i, err)}
		}
	}
	sp, _ := telemetry.StartSpan(s.ctx, "verify_batch")
	sp.SetStr("circuit", circuitID)
	sp.SetInt("k", int64(len(proofs)))
	defer sp.End()
	t0 := time.Now()
	err := groth16.BatchVerify(e.vk, proofs, pubs)
	s.reg.Counter("service.batch_verifies").Add(1)
	s.reg.Histogram("service.batch_verify_ns").Record(time.Since(t0).Nanoseconds())
	if err != nil {
		s.reg.Counter("service.batch_verify_failures").Add(1)
		return &InputError{Msg: fmt.Sprintf("batch verification failed: %v", err)}
	}
	return nil
}
