package groth16

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"runtime/debug"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/pairing"
	"gzkp/internal/par"
	"gzkp/internal/poly"
	"gzkp/internal/r1cs"
	"gzkp/internal/resilience"
	"gzkp/internal/telemetry"
)

// weightBits sizes the random batch-verification weights: 2^-120 soundness
// error per proof is far below the curves' ~2^-100 generic-attack floor
// while keeping the rᵢ·point multiplications ~half the cost of full-width
// scalars.
const weightBits = 120

// BatchVerify checks many proofs under one verifying key with a single
// final exponentiation: each proof is weighted by a random 120-bit scalar
// rᵢ and the combined equation
//
//	∏ e(rᵢ·Aᵢ, Bᵢ) · e(Σ rᵢ·α, -β) · e(Σ rᵢ·vkxᵢ, -γ) · e(Σ rᵢ·Cᵢ, -δ) = 1
//
// holds iff (with overwhelming probability over rᵢ) every individual
// equation holds. This amortizes verification for block producers that
// validate many shielded transactions at once — the deployment §2.1
// motivates. publics[i] are proof i's public inputs (without the ONE).
//
// The weights are drawn from crypto/rand: an adversary who can predict
// them can craft k invalid proofs whose errors cancel in the linear
// combination, so predictable weights void the soundness argument. Use
// BatchVerifySeeded only in tests that need reproducible failures.
func BatchVerify(vk *VerifyingKey, proofs []*Proof, publics [][]ff.Element) error {
	bound := new(big.Int).Lsh(big.NewInt(1), weightBits)
	return batchVerify(vk, proofs, publics, func() (*big.Int, error) {
		r, err := crand.Int(crand.Reader, bound)
		if err != nil {
			return nil, fmt.Errorf("groth16: drawing batch weight: %w", err)
		}
		return r.Add(r, big.NewInt(1)), nil // nonzero
	})
}

// BatchVerifySeeded is BatchVerify with deterministic math/rand weights —
// FOR TESTS ONLY. The fixed seed makes accept/reject decisions
// reproducible, but predictable weights break the RLC soundness argument,
// so production callers must use BatchVerify.
func BatchVerifySeeded(vk *VerifyingKey, proofs []*Proof, publics [][]ff.Element, seed int64) error {
	rng := mrand.New(mrand.NewSource(seed))
	bound := new(big.Int).Lsh(big.NewInt(1), weightBits)
	return batchVerify(vk, proofs, publics, func() (*big.Int, error) {
		r := new(big.Int).Rand(rng, bound)
		return r.Add(r, big.NewInt(1)), nil
	})
}

func batchVerify(vk *VerifyingKey, proofs []*Proof, publics [][]ff.Element, weight func() (*big.Int, error)) error {
	if len(proofs) == 0 {
		return fmt.Errorf("groth16: empty batch")
	}
	if len(proofs) != len(publics) {
		return fmt.Errorf("groth16: %d proofs vs %d public-input sets", len(proofs), len(publics))
	}
	c := curve.Get(vk.CurveID)
	ops1 := c.G1.NewOps()
	pk, err := vk.prepared()
	if err != nil {
		return err
	}

	var ps []curve.Affine
	var ls []*pairing.Lines
	var alphaAcc, vkxAcc, cAcc curve.Jacobian
	ops1.SetInfinity(&alphaAcc)
	ops1.SetInfinity(&vkxAcc)
	ops1.SetInfinity(&cAcc)
	for i, proof := range proofs {
		if proof.CurveID != vk.CurveID {
			return fmt.Errorf("groth16: proof %d on curve %v, key on %v", i, proof.CurveID, vk.CurveID)
		}
		if len(publics[i])+1 != len(vk.IC) {
			return fmt.Errorf("groth16: proof %d: want %d public inputs, got %d", i, len(vk.IC)-1, len(publics[i]))
		}
		if !c.G1.IsOnCurve(proof.A) || !c.G1.IsOnCurve(proof.C) || !c.G2.IsOnCurve(proof.B) {
			return fmt.Errorf("groth16: proof %d contains off-curve points", i)
		}
		r, err := weight()
		if err != nil {
			return err
		}

		// e(rᵢ·Aᵢ, Bᵢ) term.
		rA := ops1.ToAffine(ops1.ScalarMulWNAF(proof.A, r, 4))
		ps = append(ps, rA)
		ls = append(ls, pk.eng.Prepare(proof.B))

		// Accumulate the G1 sides of the fixed-G2 terms.
		ops1.AddAssign(&alphaAcc, ops1.ScalarMulWNAF(vk.Alpha1, r, 4))
		var vkx curve.Jacobian
		ops1.FromAffine(&vkx, vk.IC[0])
		for j, p := range publics[i] {
			ops1.AddAssign(&vkx, ops1.ScalarMulElement(vk.IC[j+1], p))
		}
		ops1.AddAssign(&vkxAcc, ops1.ScalarMulWNAF(ops1.ToAffine(&vkx), r, 4))
		ops1.AddAssign(&cAcc, ops1.ScalarMulWNAF(proof.C, r, 4))
	}
	ps = append(ps, ops1.ToAffine(&alphaAcc), ops1.ToAffine(&vkxAcc), ops1.ToAffine(&cAcc))
	ls = append(ls, pk.negBeta, pk.negGamma, pk.negDelta)

	eng := pk.eng
	if !eng.GTEqual(eng.FinalExp(eng.MillerLoopLines(ps, ls)), eng.GTOne()) {
		return fmt.Errorf("groth16: batch pairing check failed")
	}
	return nil
}

// BatchStats describes one ProveBatch execution.
type BatchStats struct {
	Proofs int
	// FusedNTTs is the number of NTT launches (7 for any k>0): the batch
	// fuses what k separate proofs would run as 7·k transforms.
	FusedNTTs int
	NTTStats  []ntt.Stats
	// MSMStats holds 5·k entries in per-base-set order
	// (A×k, B2×k, B1×k, H×k, K×k).
	MSMStats []msm.Stats
	PolyNS   int64
	MSMNS    int64
}

// ProveBatch is ProveBatchCtx without cancellation.
func ProveBatch(pk *ProvingKey, sys *r1cs.System, witnesses [][]ff.Element, cfg ProveConfig, rand io.Reader) ([]*Proof, *BatchStats, error) {
	return ProveBatchCtx(context.Background(), pk, sys, witnesses, cfg, rand)
}

// ProveBatchCtx is the prover: the paper's fixed schedule of seven NTTs,
// five MSMs and one assembly (§5.2), run once for k same-circuit witnesses.
// The domain/twiddle setup is built once, the 7·k per-proof NTTs run as 7
// launches (poly.ComputeHBatchCtx), and each of the five MSM base sets
// serves all k proofs from one shared setup (msm.ComputeManyCtx / the
// proving key's preprocessed tables). Prove is this function with k = 1.
// The blinding pairs (rᵢ, sᵢ) are drawn from rand (nil = crypto/rand)
// proof-major (r₀,s₀,r₁,s₁,…), so the output is bit-identical to k
// one-witness calls sharing the same reader.
//
// ctx is honored cooperatively at chunk boundaries throughout both stages;
// injected faults (ProveConfig.Faults) gate the 7 NTT + 5 MSM launches —
// per batch, not per proof — and are recovered per class; panics below the
// prover return as a *resilience.PanicError.
func ProveBatchCtx(ctx context.Context, pk *ProvingKey, sys *r1cs.System, witnesses [][]ff.Element, cfg ProveConfig, rand io.Reader) (proofs []*Proof, stats *BatchStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			proofs, stats = nil, nil
			if pe, ok := r.(*resilience.PanicError); ok {
				err = pe
			} else {
				err = &resilience.PanicError{Value: r, Stack: debug.Stack()}
			}
		}
	}()
	k := len(witnesses)
	if k == 0 {
		return nil, &BatchStats{}, ctx.Err()
	}
	c := curve.Get(pk.CurveID)
	f := c.Fr
	for i, w := range witnesses {
		if len(w) != sys.NumVars {
			return nil, nil, fmt.Errorf("groth16: witness %d length %d != %d wires", i, len(w), sys.NumVars)
		}
	}
	st := &BatchStats{Proofs: k}

	// The root span inherits the caller's track; the two stage spans below
	// sit on the device track that runs every NTT and MSM (see stageTrack).
	root, ctx := telemetry.StartSpan(ctx, "prove")
	root.SetInt("k", int64(k))
	root.SetInt("domain_n", int64(pk.DomainN))
	root.SetInt("num_vars", int64(sys.NumVars))
	defer root.End()
	track := stageTrack(ctx)

	if cfg.CheckSatisfied {
		err := par.ItemsErr(ctx, k, cfg.NTT.Workers, nil,
			func(_ struct{}, i int) error { return sys.IsSatisfied(witnesses[i]) })
		if err != nil {
			return nil, nil, err
		}
	}

	// ---- POLY stage: 7 NTT launches for all k proofs (internal/poly).
	t0 := time.Now()
	n := pk.DomainN
	dom, err := ntt.NewDomain(f, n)
	if err != nil {
		return nil, nil, err
	}
	spPoly, pctx := telemetry.StartSpanOn(ctx, track, "poly")
	spPoly.SetInt("n", int64(n))
	spPoly.SetInt("k", int64(k))
	defer spPoly.End()
	for i := 0; i < poly.NTTCount; i++ {
		if lerr := cfg.launch(pctx, fmt.Sprintf("NTT %d", i), nil); lerr != nil {
			return nil, nil, lerr
		}
	}
	avs := make([][]ff.Element, k)
	bvs := make([][]ff.Element, k)
	cvs := make([][]ff.Element, k)
	err = par.ItemsErr(pctx, k, cfg.NTT.Workers, nil,
		func(_ struct{}, i int) error {
			av, bv, cv := f.NewVector(n), f.NewVector(n), f.NewVector(n)
			w := witnesses[i]
			for j, cons := range sys.Constraints {
				copy(av[j], r1cs.EvalLC(f, cons.A, w))
				copy(bv[j], r1cs.EvalLC(f, cons.B, w))
				copy(cv[j], r1cs.EvalLC(f, cons.C, w))
			}
			avs[i], bvs[i], cvs[i] = av, bv, cv
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	polyRes, err := poly.ComputeHBatchCtx(pctx, dom, avs, bvs, cvs, cfg.NTT)
	spPoly.End()
	if err != nil {
		return nil, nil, err
	}
	st.NTTStats = polyRes.Stats
	st.FusedNTTs = polyRes.FusedNTTs
	st.PolyNS = time.Since(t0).Nanoseconds()

	// ---- Blinding, proof-major: the byte stream k one-witness calls would
	// consume from the same reader.
	t1 := time.Now()
	rs := make([]ff.Element, k)
	ss := make([]ff.Element, k)
	for i := 0; i < k; i++ {
		if rs[i], err = f.RandReader(rand); err != nil {
			return nil, nil, err
		}
		if ss[i], err = f.RandReader(rand); err != nil {
			return nil, nil, err
		}
	}

	// ---- MSM stage: 5 base sets, each serving all k proofs.
	spMSM, mctx := telemetry.StartSpanOn(ctx, track, "msm-stage")
	defer spMSM.End()
	privSlices := make([][]ff.Element, k)
	for i, w := range witnesses {
		privSlices[i] = w[sys.NumPublic+1:]
	}
	// runMSM is the one per-base-set step: launch gate, OOM degrade, then
	// the k-slice MSM against the key's table (or the configured strategy).
	runMSM := func(name string, g *curve.Group, pts []curve.Affine, slices [][]ff.Element) ([]curve.Affine, error) {
		sp, sctx := telemetry.StartSpan(mctx, "msm-"+name)
		sp.SetInt("n", int64(len(pts)))
		sp.SetInt("k", int64(k))
		defer sp.End()
		var table *msm.Table
		if cfg.MSM.Strategy == msm.GZKP {
			table = pk.tables[name]
		}
		// OOM recovery: rebuild this query's table on a quartered budget so
		// msm.AutoCheckpoint picks a larger (memory-thriftier) interval M.
		// The degraded table lives in this run only — the key is shared by
		// every device worker and is never written after Preprocess.
		oom := func() error {
			if table == nil {
				return nil // nothing to shrink: retry as-is
			}
			dcfg := cfg.MSM
			dcfg.CheckpointInterval = 0
			if dcfg.MemoryBudget <= 0 {
				dcfg.MemoryBudget = 1 << 30
			}
			dcfg.MemoryBudget /= 4
			t, err := msm.PreprocessCtx(sctx, g, pts, dcfg)
			if err != nil {
				return err
			}
			table = t
			return nil
		}
		if lerr := cfg.launch(sctx, "MSM "+name, oom); lerr != nil {
			return nil, lerr
		}
		var (
			res []curve.Affine
			ms  []msm.Stats
			err error
		)
		if table != nil {
			res, ms, err = table.ComputeManyCtx(sctx, slices, cfg.MSM)
		} else {
			res, ms, err = msm.ComputeManyCtx(sctx, g, pts, slices, cfg.MSM)
		}
		if err != nil {
			return nil, fmt.Errorf("groth16: MSM %s: %w", name, err)
		}
		st.MSMStats = append(st.MSMStats, ms...)
		return res, nil
	}
	aMSM, err := runMSM("A", c.G1, pk.A, witnesses)
	if err != nil {
		return nil, nil, err
	}
	b2MSM, err := runMSM("B2", c.G2, pk.B2, witnesses)
	if err != nil {
		return nil, nil, err
	}
	b1MSM, err := runMSM("B1", c.G1, pk.B1, witnesses)
	if err != nil {
		return nil, nil, err
	}
	hMSM, err := runMSM("H", c.G1, pk.H, polyRes.H)
	if err != nil {
		return nil, nil, err
	}
	kMSM, err := runMSM("K", c.G1, pk.K, privSlices)
	if err != nil {
		return nil, nil, err
	}

	// ---- Per-proof assembly.
	reg := telemetry.FromContext(ctx).Registry()
	if reg != nil && !pk.HasAssemblyTables() {
		reg.Counter("groth16.fixedbase_fallback").Add(int64(k))
	}
	proofs = make([]*Proof, k)
	err = par.ItemsErr(mctx, k, cfg.MSM.Workers, nil,
		func(_ struct{}, i int) error {
			sp, _ := telemetry.StartSpan(mctx, "assemble")
			sp.SetInt("proof", int64(i))
			defer sp.End()
			ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
			rBig, sBig := f.ToBig(rs[i]), f.ToBig(ss[i])
			// A = α + Σ zᵢAᵢ + r·δ
			var aj curve.Jacobian
			ops1.FromAffine(&aj, pk.Alpha1)
			ops1.AddMixedAssign(&aj, aMSM[i])
			ops1.AddAssign(&aj, pk.deltaMul1(ops1, rBig))
			proofA := ops1.ToAffine(&aj)
			// B = β + Σ zᵢBᵢ + s·δ  (in G2, mirrored in G1 for C)
			var bj2 curve.Jacobian
			ops2.FromAffine(&bj2, pk.Beta2)
			ops2.AddMixedAssign(&bj2, b2MSM[i])
			ops2.AddAssign(&bj2, pk.deltaMul2(ops2, sBig))
			proofB := ops2.ToAffine(&bj2)
			var bj1 curve.Jacobian
			ops1.FromAffine(&bj1, pk.Beta1)
			ops1.AddMixedAssign(&bj1, b1MSM[i])
			ops1.AddAssign(&bj1, pk.deltaMul1(ops1, sBig))
			// C = Σ_priv zᵢKᵢ + Σ hᵢHᵢ + s·A + r·B1 - r·s·δ
			var cj curve.Jacobian
			ops1.SetInfinity(&cj)
			ops1.AddMixedAssign(&cj, kMSM[i])
			ops1.AddMixedAssign(&cj, hMSM[i])
			ops1.AddAssign(&cj, ops1.ScalarMul(proofA, sBig))
			ops1.AddAssign(&cj, ops1.ScalarMul(ops1.ToAffine(&bj1), rBig))
			rsProd := f.Mul(f.New(), rs[i], ss[i])
			negRS := new(big.Int).Neg(f.ToBig(rsProd))
			ops1.AddAssign(&cj, pk.deltaMul1(ops1, negRS))
			proofC := ops1.ToAffine(&cj)
			proofs[i] = &Proof{CurveID: pk.CurveID, A: proofA, B: proofB, C: proofC}
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	st.MSMNS = time.Since(t1).Nanoseconds()
	if reg != nil {
		reg.Counter("groth16.batch_proofs").Add(int64(k))
		reg.Counter("groth16.batch_fused_ntts").Add(int64(st.FusedNTTs))
		reg.Counter("groth16.batches").Add(1)
	}
	return proofs, st, nil
}
