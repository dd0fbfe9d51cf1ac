// Package groth16 implements the zkSNARK protocol GZKP accelerates
// (Groth, EUROCRYPT'16), end to end: trusted setup over an R1CS/QAP,
// proof generation structured exactly as the paper measures it — a POLY
// stage of seven NTT operations and an MSM stage of five multi-scalar
// multiplications (§5.2) — and pairing-based verification.
//
// The prover's NTT and MSM strategies are injected via ProveConfig, which
// is how callers swap GZKP's optimized kernels for the baselines.
package groth16

import (
	"context"
	"fmt"
	"io"
	"sync"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/pairing"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
)

// ProvingKey carries the per-wire query points of the Groth16 CRS.
type ProvingKey struct {
	CurveID curve.ID
	DomainN int

	// Per-wire queries (length NumVars).
	A  []curve.Affine // u_i(τ)·G1
	B1 []curve.Affine // v_i(τ)·G1
	B2 []curve.Affine // v_i(τ)·G2
	// K holds ((β·u_i + α·v_i + w_i)/δ)·G1 for private wires only
	// (wire index NumPublic+1 ... NumVars-1).
	K []curve.Affine
	// H holds (τ^i·Z(τ)/δ)·G1 for i < DomainN-1.
	H []curve.Affine

	Alpha1, Beta1, Delta1 curve.Affine
	Beta2, Delta2         curve.Affine

	// Cached GZKP preprocessing tables (Algorithm 1), built on demand.
	tables map[string]*msm.Table

	// Fixed-base windows over the CRS deltas for proof assembly (see
	// assembly.go), built with the key (Setup, UnmarshalBinary) and never
	// serialized: they are a pure function of Delta1 and Delta2.
	fbDelta1, fbDelta2 *curve.FixedBase

	// dom is the POLY stage's NTT domain of size DomainN, built with the
	// key (Setup, UnmarshalBinary) and read-only afterwards, so concurrent
	// provers share it.
	dom *ntt.Domain
	// bufs is the free list of prove buffers (batch.go), made with dom.
	bufs chan *proveBuf
}

// domain returns the key's NTT domain; a key built by neither Setup nor
// UnmarshalBinary gets a fresh one per call.
func (pk *ProvingKey) domain() (*ntt.Domain, error) {
	if pk.dom != nil {
		return pk.dom, nil
	}
	return ntt.NewDomain(curve.Get(pk.CurveID).Fr, pk.DomainN)
}

// VerifyingKey is the short verification CRS.
type VerifyingKey struct {
	CurveID               curve.ID
	Alpha1                curve.Affine
	Beta2, Gamma2, Delta2 curve.Affine
	// IC[i] = ((β·u_i + α·v_i + w_i)/γ)·G1 for the ONE wire and publics.
	IC []curve.Affine

	// prep is the pairing-ready form of the key, built by the first
	// verification and read-only until a decode into the key resets it;
	// it is never serialized, and a key must not be copied once it has
	// verified.
	prep struct {
		once sync.Once
		key  *preparedKey
		err  error
	}
}

// preparedKey holds what every verification under one key shares: e(α, β)
// and the Miller-loop line coefficients of -β, -γ and -δ (negated so the
// G1 side of each pair is used as computed).
type preparedKey struct {
	eng                         *pairing.Engine
	alphaBeta                   pairing.GT
	negBeta, negGamma, negDelta *pairing.Lines
}

func (vk *VerifyingKey) prepared() (*preparedKey, error) {
	vk.prep.once.Do(func() {
		c := curve.Get(vk.CurveID)
		eng, err := pairing.New(c)
		if err != nil {
			vk.prep.err = err
			return
		}
		neg := func(q curve.Affine) *pairing.Lines { return eng.Prepare(c.G2.NegAffine(q)) }
		vk.prep.key = &preparedKey{
			eng: eng, alphaBeta: eng.Pair(vk.Alpha1, vk.Beta2),
			negBeta: neg(vk.Beta2), negGamma: neg(vk.Gamma2), negDelta: neg(vk.Delta2),
		}
	})
	return vk.prep.key, vk.prep.err
}

// Proof is the three-element Groth16 proof (≈200 B on BN254).
type Proof struct {
	CurveID curve.ID
	A, C    curve.Affine // G1
	B       curve.Affine // G2
}

// ProveConfig selects the execution strategies for both prover stages.
type ProveConfig struct {
	NTT ntt.Config
	MSM msm.Config
	// CheckSatisfied verifies the witness against the system first.
	CheckSatisfied bool
}

// Provers names the prover presets: gzkp is the paper's full
// configuration, baseline the bellperson-like one, cpu the single-threaded
// reference plan.
var Provers = map[string]ProveConfig{
	"gzkp":     {NTT: ntt.Config{Strategy: ntt.GZKP}, MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true}},
	"baseline": {NTT: ntt.Config{Strategy: ntt.ShuffleBaseline}, MSM: msm.Config{Strategy: msm.PippengerWindows}},
	"cpu":      {NTT: ntt.Config{Strategy: ntt.Serial}, MSM: msm.Config{Strategy: msm.PippengerWindows, Workers: 1}},
}

// stageTrack is the trace track the prover's stage spans go on: the
// enclosing span's when that is a device track (a service dispatch on slot
// d's track), device 0's for a standalone prove.
func stageTrack(ctx context.Context) int {
	if tr := telemetry.SpanFromContext(ctx).Track(); tr != telemetry.TrackHost {
		return tr
	}
	return telemetry.DeviceTrack(0)
}

// ProveStats reports the stage breakdown the paper's Tables 2-4 use for one
// proof; Prove derives it from the BatchStats of its one-witness batch.
type ProveStats struct {
	// PolyNS and MSMNS are overlapping stage wall times, as in BatchStats:
	// POLY runs on the MSM stage's task list.
	PolyNS, MSMNS int64
	NTTOps        int // 7
	MSMOps        int // 5
	NTTStats      []ntt.Stats
	MSMStats      []msm.Stats
}

// MSMTotals aggregates the five MSM executions of one proof into the
// whole-proof operation counts the paper's tables quote.
type MSMTotals struct {
	PointAdds    int64
	Doubles      int64
	TableBytes   int64
	TrafficBytes int64
}

// Totals sums the per-query MSM stats. The per-query breakdown in MSMStats
// was previously recorded but never aggregated, so callers wanting the
// whole-proof PADD count or table footprint had to fold it themselves.
func (st *ProveStats) Totals() MSMTotals {
	var t MSMTotals
	if st == nil {
		return t
	}
	for _, ms := range st.MSMStats {
		t.PointAdds += ms.PointAdds
		t.Doubles += ms.Doubles
		t.TableBytes += ms.TableBytes
		t.TrafficBytes += ms.TrafficBytes
	}
	return t
}

// Setup runs the trusted setup for sys over curve c. rand is the toxic-
// waste entropy source (nil = crypto/rand).
func Setup(sys *r1cs.System, c *curve.Curve, rand io.Reader) (*ProvingKey, *VerifyingKey, error) {
	if !c.PairingSupported() {
		return nil, nil, fmt.Errorf("groth16: %s has no pairing; use the core pipeline for timing-only runs", c.Name)
	}
	if sys.F != c.Fr {
		return nil, nil, fmt.Errorf("groth16: system field %s != curve scalar field %s", sys.F.Name(), c.Fr.Name())
	}
	if len(sys.Constraints) == 0 {
		return nil, nil, fmt.Errorf("groth16: empty constraint system")
	}
	f := c.Fr
	n := 2
	for n < len(sys.Constraints) {
		n <<= 1
	}
	if uint(log2(n)) > f.TwoAdicity() {
		return nil, nil, fmt.Errorf("groth16: %d constraints exceed the field's 2^%d NTT domain", len(sys.Constraints), f.TwoAdicity())
	}

	sample := func() (ff.Element, error) {
		for {
			v, err := f.RandReader(rand)
			if err != nil {
				return nil, err
			}
			if !f.IsZero(v) {
				return v, nil
			}
		}
	}
	tau, err := sample()
	if err != nil {
		return nil, nil, err
	}
	alpha, err := sample()
	if err != nil {
		return nil, nil, err
	}
	beta, err := sample()
	if err != nil {
		return nil, nil, err
	}
	gamma, err := sample()
	if err != nil {
		return nil, nil, err
	}
	delta, err := sample()
	if err != nil {
		return nil, nil, err
	}

	// Z(τ) = τ^n - 1 (resample τ in the astronomically unlikely root case).
	zTau := f.ExpUint64(tau, uint64(n))
	f.Sub(zTau, zTau, f.One())
	if f.IsZero(zTau) {
		return Setup(sys, c, rand)
	}

	// Lagrange values L_j(τ) = Z(τ)·ω^j / (n·(τ - ω^j)), under one
	// inversion (Montgomery's trick): lag[j] first holds its numerator
	// times Π_{i<j} dens[i], and the backward pass divides it by
	// Π_{i≤j} dens[i].
	omega, err := f.RootOfUnity(uint(log2(n)))
	if err != nil {
		return nil, nil, err
	}
	lag, dens := f.NewVector(n), f.NewVector(n)
	zn := f.Mul(f.New(), zTau, f.Inverse(f.FromUint64(uint64(n)))) // Z(τ)/n
	wj, acc := f.One(), f.One()
	for j := 0; j < n; j++ {
		f.Sub(dens[j], tau, wj)
		f.Mul(lag[j], zn, wj)
		f.Mul(lag[j], lag[j], acc)
		f.Mul(acc, acc, dens[j])
		f.Mul(wj, wj, omega)
	}
	f.InverseTo(acc, acc)
	for j := n - 1; j >= 0; j-- {
		f.Mul(lag[j], lag[j], acc)
		f.Mul(acc, acc, dens[j])
	}

	// Per-wire QAP evaluations u_i(τ), v_i(τ), w_i(τ).
	nv := sys.NumVars
	u, v, w := f.NewVector(nv), f.NewVector(nv), f.NewVector(nv)
	t := f.New()
	for j, cons := range sys.Constraints {
		for _, term := range cons.A {
			f.Mul(t, term.Coeff, lag[j])
			f.Add(u[term.V], u[term.V], t)
		}
		for _, term := range cons.B {
			f.Mul(t, term.Coeff, lag[j])
			f.Add(v[term.V], v[term.V], t)
		}
		for _, term := range cons.C {
			f.Mul(t, term.Coeff, lag[j])
			f.Add(w[term.V], w[term.V], t)
		}
	}

	gammaInv := f.Inverse(gamma)
	deltaInv := f.Inverse(delta)

	fb1 := c.G1.NewFixedBase(c.G1.Generator())
	fb2 := c.G2.NewFixedBase(c.G2.Generator())
	ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
	mulG1 := func(s ff.Element) curve.Jacobian { return fb1.MulElement(ops1, s) }

	pk := &ProvingKey{CurveID: c.ID, DomainN: n, bufs: make(chan *proveBuf, maxBufs)}
	if pk.dom, err = ntt.NewDomain(f, n); err != nil {
		return nil, nil, err
	}
	vk := &VerifyingKey{CurveID: c.ID}

	aJac := make([]curve.Jacobian, nv)
	b1Jac := make([]curve.Jacobian, nv)
	b2Jac := make([]curve.Jacobian, nv)
	for i := 0; i < nv; i++ {
		aJac[i] = mulG1(u[i])
		b1Jac[i] = mulG1(v[i])
		b2Jac[i] = fb2.MulElement(ops2, v[i])
	}
	pk.A = c.G1.BatchToAffine(aJac)
	pk.B1 = c.G1.BatchToAffine(b1Jac)
	pk.B2 = c.G2.BatchToAffine(b2Jac)

	// K (private wires, /δ) and IC (ONE + publics, /γ).
	comb := func(i int, inv ff.Element) ff.Element {
		s := f.Mul(f.New(), beta, u[i])
		f.Mul(t, alpha, v[i])
		f.Add(s, s, t)
		f.Add(s, s, w[i])
		f.Mul(s, s, inv)
		return s
	}
	icJac := make([]curve.Jacobian, sys.NumPublic+1)
	for i := 0; i <= sys.NumPublic; i++ {
		icJac[i] = mulG1(comb(i, gammaInv))
	}
	vk.IC = c.G1.BatchToAffine(icJac)
	kJac := make([]curve.Jacobian, nv-sys.NumPublic-1)
	for i := sys.NumPublic + 1; i < nv; i++ {
		kJac[i-sys.NumPublic-1] = mulG1(comb(i, deltaInv))
	}
	pk.K = c.G1.BatchToAffine(kJac)

	// H query: (τ^i·Z(τ)/δ)·G1 for i < n-1.
	hJac := make([]curve.Jacobian, n-1)
	s := f.Mul(f.New(), zTau, deltaInv)
	for i := 0; i < n-1; i++ {
		hJac[i] = mulG1(s)
		f.Mul(s, s, tau)
	}
	pk.H = c.G1.BatchToAffine(hJac)

	a1 := mulG1(alpha)
	pk.Alpha1 = ops1.ToAffine(&a1)
	bt1 := mulG1(beta)
	pk.Beta1 = ops1.ToAffine(&bt1)
	dl1 := mulG1(delta)
	pk.Delta1 = ops1.ToAffine(&dl1)
	b2 := fb2.MulElement(ops2, beta)
	pk.Beta2 = ops2.ToAffine(&b2)
	d2 := fb2.MulElement(ops2, delta)
	pk.Delta2 = ops2.ToAffine(&d2)

	vk.Alpha1 = pk.Alpha1
	vk.Beta2 = pk.Beta2
	g2j := fb2.MulElement(ops2, gamma)
	vk.Gamma2 = ops2.ToAffine(&g2j)
	vk.Delta2 = pk.Delta2
	pk.buildAssemblyTables()
	return pk, vk, nil
}

// Preprocess is PreprocessCtx without cancellation.
func (pk *ProvingKey) Preprocess(cfg msm.Config) error {
	return pk.PreprocessCtx(context.Background(), cfg)
}

// PreprocessCtx builds and caches the GZKP MSM tables (Algorithm 1) for
// every proving-key query. Mirrors the paper's deployment: the point
// vectors are fixed at setup, so preprocessing happens once, off the
// proving path.
func (pk *ProvingKey) PreprocessCtx(ctx context.Context, cfg msm.Config) error {
	c := curve.Get(pk.CurveID)
	pk.tables = map[string]*msm.Table{}
	for _, q := range []struct {
		name string
		g    *curve.Group
		pts  []curve.Affine
	}{
		{"A", c.G1, pk.A}, {"B1", c.G1, pk.B1}, {"B2", c.G2, pk.B2},
		{"K", c.G1, pk.K}, {"H", c.G1, pk.H},
	} {
		if len(q.pts) == 0 {
			continue
		}
		t, err := msm.PreprocessCtx(ctx, q.g, q.pts, cfg)
		if err != nil {
			return fmt.Errorf("groth16: preprocess %s: %w", q.name, err)
		}
		pk.tables[q.name] = t
	}
	return nil
}

// Prove is ProveCtx without cancellation.
func Prove(pk *ProvingKey, sys *r1cs.System, w []ff.Element, cfg ProveConfig, rand io.Reader) (*Proof, *ProveStats, error) {
	return ProveCtx(context.Background(), pk, sys, w, cfg, rand)
}

// ProveCtx generates a proof for witness w (as produced by System.Solve):
// ProveBatchCtx with one witness. rand supplies the blinding factors r, s
// (nil = crypto/rand).
func ProveCtx(ctx context.Context, pk *ProvingKey, sys *r1cs.System, w []ff.Element, cfg ProveConfig, rand io.Reader) (*Proof, *ProveStats, error) {
	proofs, bst, err := ProveBatchCtx(ctx, pk, sys, [][]ff.Element{w}, cfg, rand)
	if err != nil {
		return nil, nil, err
	}
	return proofs[0], &ProveStats{
		PolyNS: bst.PolyNS, MSMNS: bst.MSMNS,
		NTTOps: len(bst.NTTStats), MSMOps: len(bst.MSMStats),
		NTTStats: bst.NTTStats, MSMStats: bst.MSMStats,
	}, nil
}

// Verify checks a proof against public inputs (excluding the ONE wire):
// e(A,B)·e(Σ pubᵢ·ICᵢ, -γ)·e(C, -δ) = e(α,β) — one Miller loop over B's
// lines and the key's prepared ones, one final exponentiation.
func Verify(vk *VerifyingKey, proof *Proof, public []ff.Element) error {
	if proof.CurveID != vk.CurveID {
		return fmt.Errorf("groth16: proof curve %v != key curve %v", proof.CurveID, vk.CurveID)
	}
	if len(public)+1 != len(vk.IC) {
		return fmt.Errorf("groth16: want %d public inputs, got %d", len(vk.IC)-1, len(public))
	}
	c := curve.Get(vk.CurveID)
	if !c.G1.IsOnCurve(proof.A) || !c.G1.IsOnCurve(proof.C) || !c.G2.IsOnCurve(proof.B) {
		return fmt.Errorf("groth16: proof contains off-curve points")
	}
	ops1 := c.G1.NewOps()
	var acc curve.Jacobian
	ops1.FromAffine(&acc, vk.IC[0])
	for i, p := range public {
		ops1.AddAssign(&acc, ops1.ScalarMulElement(vk.IC[i+1], p))
	}
	vkx := ops1.ToAffine(&acc)

	pk, err := vk.prepared()
	if err != nil {
		return err
	}
	f := pk.eng.MillerLoopLines(
		[]curve.Affine{proof.A, vkx, proof.C},
		[]*pairing.Lines{pk.eng.Prepare(proof.B), pk.negGamma, pk.negDelta})
	if !pk.eng.GTEqual(pk.eng.FinalExp(f), pk.alphaBeta) {
		return fmt.Errorf("groth16: pairing check failed")
	}
	return nil
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}
