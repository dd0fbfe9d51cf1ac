package groth16

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"io"
	"math"
	"math/big"
	mrand "math/rand"
	"sync/atomic"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/pairing"
	"gzkp/internal/par"
	"gzkp/internal/poly"
	"gzkp/internal/r1cs"
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
		rb, err := weight()
		if err != nil {
			return err
		}
		r := c.Fr.FromBig(rb) // < 2^120 < the group order, so r·P for any P

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
	// PolyNS and MSMNS are the stages' wall times, which overlap: PolyNS
	// runs from the POLY task's start to its end (witness rows and the 7
	// NTTs); MSMNS from the task list's start, which POLY is part of, to
	// the end of proof assembly.
	PolyNS int64
	MSMNS  int64
}

// ProveBatch is ProveBatchCtx without cancellation.
func ProveBatch(pk *ProvingKey, sys *r1cs.System, witnesses [][]ff.Element, cfg ProveConfig, rand io.Reader) ([]*Proof, *BatchStats, error) {
	return ProveBatchCtx(context.Background(), pk, sys, witnesses, cfg, rand)
}

// msmSet is one of the prover's five MSM base sets, its table and its
// trace span.
type msmSet struct {
	name string
	g    *curve.Group
	pts  []curve.Affine
	t    *msm.Table // nil: each MSM runs on pts (msm.Job)
	sp   telemetry.Span
	left atomic.Int32 // MSMs of the set still running
}

// start opens the set's span for its k MSMs; done closes it after the last.
func (s *msmSet) start(ctx context.Context, k int) {
	s.sp, _ = telemetry.StartSpan(ctx, "msm-"+s.name)
	s.sp.SetInt("n", int64(len(s.pts)))
	s.sp.SetInt("k", int64(k))
	s.left.Store(int32(k))
}

func (s *msmSet) done() {
	if s.left.Add(-1) == 0 {
		s.sp.End()
	}
}

// proveBuf is a prove's memory for up to k witnesses of its key (DESIGN.md
// §4.6): the rows a, b, c, k·n elements each (proof i's at [i·n, (i+1)·n)),
// one msm.Buf per MSM (set s of proof i at s·k+i), each set's one-shot
// table, the blinding and the final assembly's Ops.
type proveBuf struct {
	k      int
	rows   [3][]ff.Element
	msm    []msm.Buf
	tables [5]msm.Table
	rs, ss []ff.Element
	draw   []byte
	ops1   *curve.Ops
}

// maxBufs bounds a key's free list: the service's in-flight dispatches.
const maxBufs = 2

// takeBuf returns a free buffer for k witnesses (dropping smaller ones) or a new one.
func (pk *ProvingKey) takeBuf(k int) *proveBuf {
	for {
		select {
		case b := <-pk.bufs:
			if b.k >= k {
				return b
			}
		default:
			c := curve.Get(pk.CurveID)
			b := &proveBuf{k: k, msm: make([]msm.Buf, 5*k), rs: c.Fr.NewVector(k), ss: c.Fr.NewVector(k),
				draw: make([]byte, c.Fr.ByteLen()), ops1: c.G1.NewOps()}
			for i := range b.rows {
				b.rows[i] = c.Fr.NewVector(k * pk.DomainN)
			}
			return b
		}
	}
}

// putBuf returns b to the key's free list, or drops it when that is full.
func (pk *ProvingKey) putBuf(b *proveBuf) {
	select {
	case pk.bufs <- b:
	default:
	}
}

// ProveBatchCtx is the prover: ProveTasks in a scope of its own on the
// task list of cfg.MSM.Workers workers (par.Run). Panics below the prover
// return as a *resilience.PanicError.
func ProveBatchCtx(ctx context.Context, pk *ProvingKey, sys *r1cs.System, witnesses [][]ff.Element, cfg ProveConfig, rand io.Reader) (proofs []*Proof, stats *BatchStats, err error) {
	if len(witnesses) == 0 {
		return nil, &BatchStats{}, ctx.Err()
	}
	err = par.Run(ctx, cfg.MSM.Workers, func(ctx context.Context, l *par.List) error {
		return ProveTasks(ctx, l, pk, sys, witnesses, cfg, rand, func(p []*Proof, st *BatchStats) {
			proofs, stats = p, st
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return proofs, stats, nil
}

// ProveTasks is the paper's fixed schedule of seven NTTs, five MSMs and
// one assembly (§5.2), for k ≥ 1 same-circuit witnesses, seeded into the
// caller's task list l; ctx is l's scope context (or one derived from it).
// The blinding is drawn on the calling goroutine; everything else is l's
// tasks: POLY — the witness rows, then the 7·k NTTs as 7 launches
// (poly.ComputeHBatchCtx) over the key's domain — beside the MSMs
// (msm.Tasks). A, B2, B1 and K start at once; A, B1 and B2 of one
// witness share a scalar plan; H joins when POLY finishes. Each base set
// serves all k proofs from the proving key's preprocessed table, or else
// each MSM from a one-shot copy of the set's points. C is assembled in the
// join after the last MSM, which then calls done with the proofs. The
// blinding pairs (rᵢ, sᵢ) are drawn from rand (nil = crypto/rand)
// proof-major (r₀,s₀,r₁,s₁,…), so the output is bit-identical to k
// one-witness calls sharing the same reader.
//
// ctx is honored cooperatively at task and chunk boundaries. An error
// returned here or by a task fails l's scope, and done is not called.
func ProveTasks(ctx context.Context, l *par.List, pk *ProvingKey, sys *r1cs.System, witnesses [][]ff.Element, cfg ProveConfig, rand io.Reader, done func([]*Proof, *BatchStats)) error {
	k := len(witnesses)
	if k == 0 {
		return fmt.Errorf("groth16: no witnesses")
	}
	c := curve.Get(pk.CurveID)
	f := c.Fr
	for i, w := range witnesses {
		if len(w) != sys.NumVars {
			return fmt.Errorf("groth16: witness %d length %d != %d wires", i, len(w), sys.NumVars)
		}
	}
	st := &BatchStats{Proofs: k}

	// The root span inherits the caller's track; the two stage spans below
	// sit on the device track that runs every NTT and MSM (see stageTrack).
	root, ctx := telemetry.StartSpan(ctx, "prove")
	root.SetInt("k", int64(k))
	root.SetInt("domain_n", int64(pk.DomainN))
	root.SetInt("num_vars", int64(sys.NumVars))
	track := stageTrack(ctx)
	// A failed scope never reaches the final join: its end closes the spans.
	traced := telemetry.FromContext(ctx) != nil
	if traced {
		context.AfterFunc(ctx, root.End)
	}

	if cfg.CheckSatisfied {
		err := par.ItemsErr(ctx, k, 0, nil,
			func(_ struct{}, i int) error { return sys.IsSatisfied(witnesses[i]) })
		if err != nil {
			return err
		}
	}
	dom, err := pk.domain()
	if err != nil {
		return err
	}

	sets := [...]msmSet{
		{name: "A", g: c.G1, pts: pk.A}, {name: "B2", g: c.G2, pts: pk.B2},
		{name: "B1", g: c.G1, pts: pk.B1}, {name: "H", g: c.G1, pts: pk.H},
		{name: "K", g: c.G1, pts: pk.K},
	}
	buf := pk.takeBuf(k)
	// Under GZKP each set's k MSMs share its table: the key's preprocessed
	// one, or else a one-shot copy of its points in buf.
	for si := 0; cfg.MSM.Strategy == msm.GZKP && si < len(sets); si++ {
		s := &sets[si]
		if s.t = pk.tables[s.name]; s.t == nil && len(s.pts) > 0 {
			if s.t, err = msm.OneShot(s.g, s.pts, cfg.MSM, &buf.tables[si]); err != nil {
				return err
			}
		}
	}

	// ---- Blinding, proof-major: the byte stream k one-witness calls would
	// consume from the same reader.
	rs, ss := buf.rs[:k], buf.ss[:k]
	for i := 0; i < k; i++ {
		if err := f.RandTo(rs[i], rand, buf.draw); err != nil {
			return err
		}
		if err := f.RandTo(ss[i], rand, buf.draw); err != nil {
			return err
		}
	}

	// ---- The tasks: POLY, and every MSM's plan, bucket groups and
	// combine. results[s·k+i] is base set s's MSM for proof i.
	t0 := time.Now()
	spMSM, mctx := telemetry.StartSpanOn(ctx, track, "msm-stage")
	if traced {
		context.AfterFunc(ctx, spMSM.End)
	}
	results := make([]msm.Result, len(sets)*k)
	// Assembly starts inside the list, on the Ops of the worker that ends
	// the MSM: once proof i's A is done, its A = α + Σ zᵢAᵢ + r·δ and s·A;
	// once B2 is, B = β + Σ zᵢBᵢ + s·δ; once B1 is, r·B1 with
	// B1 = β + Σ zᵢB1ᵢ + s·δ. C waits for all five.
	asm := make([]struct {
		a, b    curve.Affine
		sA, rB1 *curve.Jacobian
	}, k)
	early := [...]func(ops *curve.Ops, i int){
		func(ops *curve.Ops, i int) { // A
			var aj curve.Jacobian
			ops.FromAffine(&aj, pk.Alpha1)
			ops.AddMixedAssign(&aj, results[i].Point)
			ops.AddAssign(&aj, pk.deltaMul1(ops, rs[i]))
			asm[i].a = ops.ToAffine(&aj)
			asm[i].sA = ops.ScalarMulWNAF(asm[i].a, ss[i], 4)
		},
		func(ops *curve.Ops, i int) { // B2
			var bj curve.Jacobian
			ops.FromAffine(&bj, pk.Beta2)
			ops.AddMixedAssign(&bj, results[k+i].Point)
			ops.AddAssign(&bj, pk.deltaMul2(ops, ss[i]))
			asm[i].b = ops.ToAffine(&bj)
		},
		func(ops *curve.Ops, i int) { // B1
			var bj curve.Jacobian
			ops.FromAffine(&bj, pk.Beta1)
			ops.AddMixedAssign(&bj, results[2*k+i].Point)
			ops.AddAssign(&bj, pk.deltaMul1(ops, ss[i]))
			asm[i].rB1 = ops.ScalarMulWNAF(ops.ToAffine(&bj), rs[i], 4)
		},
	}
	// ---- The join after the last MSM: C = Σ_priv zᵢKᵢ + Σ hᵢHᵢ + s·A +
	// r·B1 − r·s·δ, per proof; then the buffer goes back to the key.
	assemble := func() {
		st.MSMStats = make([]msm.Stats, len(results))
		for i, r := range results {
			st.MSMStats[i] = r.Stats
		}
		proofs := make([]*Proof, k)
		ops1 := buf.ops1
		for i := range proofs {
			sp, _ := telemetry.StartSpan(mctx, "assemble")
			sp.SetInt("proof", int64(i))
			var cj curve.Jacobian
			ops1.SetInfinity(&cj)
			ops1.AddMixedAssign(&cj, results[4*k+i].Point)
			ops1.AddMixedAssign(&cj, results[3*k+i].Point)
			ops1.AddAssign(&cj, asm[i].sA)
			ops1.AddAssign(&cj, asm[i].rB1)
			negRS := f.Mul(rs[i], rs[i], ss[i]) // r·s, in place of r
			ops1.AddAssign(&cj, pk.deltaMul1(ops1, f.Neg(negRS, negRS)))
			proofs[i] = &Proof{CurveID: pk.CurveID, A: asm[i].a, B: asm[i].b, C: ops1.ToAffine(&cj)}
			sp.End()
		}
		pk.putBuf(buf)
		st.MSMNS = time.Since(t0).Nanoseconds()
		if reg := telemetry.FromContext(ctx).Registry(); reg != nil {
			reg.Counter("groth16.batch_proofs").Add(int64(k))
			reg.Counter("groth16.batch_fused_ntts").Add(int64(st.FusedNTTs))
			reg.Counter("groth16.batches").Add(1)
		}
		spMSM.End()
		root.End()
		done(proofs, st)
	}
	var left atomic.Int32
	left.Store(int32(len(results)))
	job := func(si, i int) msm.Job {
		s := &sets[si]
		return msm.Job{Table: s.t, G: s.g, Points: s.pts, Out: &results[si*k+i], Buf: &buf.msm[si*buf.k+i], Done: func(ops *curve.Ops) {
			if si < len(early) {
				early[si](ops, i)
			}
			s.done()
			if left.Add(-1) == 0 {
				assemble()
			}
		}}
	}
	mlctx := telemetry.ContextWithSpan(ctx, spMSM)
	ts := msm.NewTasks(l, cfg.MSM)
	l.Push(math.MaxInt64, func(int) error {
		h, err := provePoly(ctx, track, dom, sys, witnesses, buf, cfg.NTT, st)
		if err != nil {
			return err
		}
		sets[3].start(mlctx, k) // H joins here
		for i := range h {
			if err := ts.Add(mlctx, h[i], job(3, i)); err != nil {
				return err
			}
		}
		return nil
	})
	for _, si := range [...]int{0, 1, 2, 4} {
		sets[si].start(mlctx, k)
	}
	for i, w := range witnesses {
		if err := ts.Add(mlctx, w, job(0, i), job(1, i), job(2, i)); err != nil {
			return err
		}
		if err := ts.Add(mlctx, w[sys.NumPublic+1:], job(4, i)); err != nil {
			return err
		}
	}
	return nil
}

// provePoly is the POLY stage of k proofs on the device track: each
// witness's constraint rows a, b, c, written into buf's strided rows, then
// the 7 NTT launches, recorded in st. It returns every proof's H
// coefficients, which alias buf.
func provePoly(ctx context.Context, track int, dom *ntt.Domain, sys *r1cs.System, witnesses [][]ff.Element, buf *proveBuf, cfg ntt.Config, st *BatchStats) ([][]ff.Element, error) {
	t0 := time.Now()
	f, n, k := dom.F, dom.N, len(witnesses)
	sp, ctx := telemetry.StartSpanOn(ctx, track, "poly")
	sp.SetInt("n", int64(n))
	sp.SetInt("k", int64(k))
	defer sp.End()
	a, b, c := buf.rows[0][:k*n], buf.rows[1][:k*n], buf.rows[2][:k*n]
	err := par.ItemsErr(ctx, k, 0, nil,
		func(_ struct{}, i int) error {
			w, tmp, rows := witnesses[i], f.New(), i*n
			for j, cons := range sys.Constraints {
				r1cs.EvalLCTo(f, a[rows+j], tmp, cons.A, w)
				r1cs.EvalLCTo(f, b[rows+j], tmp, cons.B, w)
				r1cs.EvalLCTo(f, c[rows+j], tmp, cons.C, w)
			}
			for j := rows + len(sys.Constraints); j < rows+n; j++ { // the rows past the system are zero
				clear(a[j])
				clear(b[j])
				clear(c[j])
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	res, err := poly.ComputeHStridedCtx(ctx, dom, a, b, c, k, cfg)
	if err != nil {
		return nil, err
	}
	st.NTTStats, st.FusedNTTs = res.Stats, res.FusedNTTs
	st.PolyNS = time.Since(t0).Nanoseconds()
	return res.H, nil
}
