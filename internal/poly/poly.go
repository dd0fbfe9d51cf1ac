// Package poly implements the POLY stage of proof generation (§2.1, §3):
// given the per-constraint evaluation vectors ā, b̄, c̄ of the witness, it
// computes the coefficients of H(x) = (A(x)·B(x) - C(x)) / Z(x) with the
// paper's seven-NTT schedule — three INTTs to coefficient form, three
// coset-NTTs, a pointwise divide by the (constant-on-coset) vanishing
// polynomial, and one coset-INTT back.
//
// Both the Groth16 prover and the core engine's pipeline delegate here, so
// the "seven NTT operations" accounting of §5.2 lives in exactly one place.
package poly

import (
	"context"
	"fmt"

	"gzkp/internal/ff"
	"gzkp/internal/ntt"
)

// Result carries H's coefficients and the per-NTT stats.
type Result struct {
	// H has length n-1: deg H ≤ n-2 for a satisfied system.
	H     []ff.Element
	Stats []ntt.Stats
}

// ComputeHCtx consumes a, b, c (length = domain size; overwritten as
// scratch) and returns the quotient coefficients: ComputeHStridedCtx of
// one proof. cfg selects the NTT execution strategy; on cancellation the
// scratch vectors are left in an unspecified state.
func ComputeHCtx(ctx context.Context, dom *ntt.Domain, a, b, c []ff.Element, cfg ntt.Config) (*Result, error) {
	n := dom.N
	if len(a) != n || len(b) != n || len(c) != n {
		return nil, fmt.Errorf("poly: vector lengths (%d,%d,%d) != domain %d", len(a), len(b), len(c), n)
	}
	res, err := ComputeHStridedCtx(ctx, dom, a, b, c, 1, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{H: res.H[0], Stats: res.Stats}, nil
}

// ComputeH is ComputeHCtx without cancellation.
func ComputeH(dom *ntt.Domain, a, b, c []ff.Element, cfg ntt.Config) (*Result, error) {
	return ComputeHCtx(context.Background(), dom, a, b, c, cfg)
}

// NTTCount is the §5.2 constant: transforms per proof.
const NTTCount = 7
