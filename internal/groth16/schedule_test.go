package groth16

import (
	"context"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/poly"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
	"gzkp/internal/workload"
)

// referenceProofs proves each witness stage by stage, one call at a time:
// POLY through poly.ComputeH, each of the five MSMs alone through
// Table.Compute (the key's table, or a one-shot one over the query), and
// the assembly with binary-ladder scalar multiplications — the proofs a
// prover whose MSM results all equal Table.Compute run alone must return,
// blinded from rand in the same proof-major order.
func referenceProofs(t *testing.T, pk *ProvingKey, sys *r1cs.System, wits [][]ff.Element, cfg msm.Config, rand io.Reader) []*Proof {
	t.Helper()
	c := curve.Get(pk.CurveID)
	f := c.Fr
	dom, err := ntt.NewDomain(f, pk.DomainN)
	if err != nil {
		t.Fatal(err)
	}
	compute := func(name string, g *curve.Group, pts []curve.Affine, scalars []ff.Element) curve.Affine {
		table := pk.tables[name]
		if table == nil {
			oneShot := cfg
			oneShot.CheckpointInterval = len(pts) // past the window count: M = windows
			if table, err = msm.Preprocess(g, pts, oneShot); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := table.Compute(scalars, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var out []*Proof
	for _, w := range wits {
		r, err := f.RandReader(rand)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.RandReader(rand)
		if err != nil {
			t.Fatal(err)
		}
		n := pk.DomainN
		a, b, cv := f.NewVector(n), f.NewVector(n), f.NewVector(n)
		for j, cons := range sys.Constraints {
			copy(a[j], r1cs.EvalLC(f, cons.A, w))
			copy(b[j], r1cs.EvalLC(f, cons.B, w))
			copy(cv[j], r1cs.EvalLC(f, cons.C, w))
		}
		h, err := poly.ComputeH(dom, a, b, cv, ntt.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
		rBig, sBig := f.ToBig(r), f.ToBig(s)
		var aj, bj2, bj1, cj curve.Jacobian
		ops1.FromAffine(&aj, pk.Alpha1)
		ops1.AddMixedAssign(&aj, compute("A", c.G1, pk.A, w))
		ops1.AddAssign(&aj, ops1.ScalarMul(pk.Delta1, rBig))
		proofA := ops1.ToAffine(&aj)
		ops2.FromAffine(&bj2, pk.Beta2)
		ops2.AddMixedAssign(&bj2, compute("B2", c.G2, pk.B2, w))
		ops2.AddAssign(&bj2, ops2.ScalarMul(pk.Delta2, sBig))
		ops1.FromAffine(&bj1, pk.Beta1)
		ops1.AddMixedAssign(&bj1, compute("B1", c.G1, pk.B1, w))
		ops1.AddAssign(&bj1, ops1.ScalarMul(pk.Delta1, sBig))
		ops1.SetInfinity(&cj)
		ops1.AddMixedAssign(&cj, compute("K", c.G1, pk.K, w[sys.NumPublic+1:]))
		ops1.AddMixedAssign(&cj, compute("H", c.G1, pk.H, h.H))
		ops1.AddAssign(&cj, ops1.ScalarMul(proofA, sBig))
		ops1.AddAssign(&cj, ops1.ScalarMul(ops1.ToAffine(&bj1), rBig))
		rs := new(big.Int).Mul(rBig, sBig)
		ops1.AddAssign(&cj, ops1.ScalarMul(pk.Delta1, rs.Neg(rs.Mod(rs, f.Modulus()))))
		out = append(out, &Proof{CurveID: pk.CurveID, A: proofA, B: ops2.ToAffine(&bj2), C: ops1.ToAffine(&cj)})
	}
	return out
}

// TestProveWorkersBitIdentical: seeded Prove and ProveBatch (k = 1 and 4)
// return byte-identical proofs at Workers 1, 2, 3 and 8, equal to proofs
// assembled from each MSM run alone through Table.Compute, with kept
// tables and one-shot ones. (TestGoldenProofVectors pins both curves'
// proof bytes at the default worker count.)
func TestProveWorkersBitIdentical(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254} {
		c := curve.Get(id)
		sys, pub, sec, err := workload.SyntheticR1CS(c.Fr, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		pk, _, err := Setup(sys, c, detRand(5))
		if err != nil {
			t.Fatal(err)
		}
		w, err := sys.Solve(pub, sec)
		if err != nil {
			t.Fatal(err)
		}
		// Four distinct witnesses of one circuit: scale the solved one (they
		// need not satisfy it — the prover is not asked to check).
		var wits [][]ff.Element
		for i := range 4 {
			if i == 0 {
				wits = append(wits, w)
				continue
			}
			v := c.Fr.CopyVector(w)
			for _, e := range v[1:] {
				c.Fr.Mul(e, e, c.Fr.FromUint64(uint64(i+1)))
			}
			wits = append(wits, v)
		}
		for _, kept := range []bool{false, true} {
			cfg := ProveConfig{NTT: ntt.Config{Strategy: ntt.GZKP}, MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true}}
			if kept {
				if err := pk.Preprocess(cfg.MSM); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range []int{1, 4} {
				want := referenceProofs(t, pk, sys, wits[:k], cfg.MSM, detRand(77))
				for _, workers := range []int{1, 2, 3, 8} {
					what := fmt.Sprintf("%v kept=%v k=%d workers=%d", id, kept, k, workers)
					cfg.MSM.Workers = workers
					var got []*Proof
					if k == 1 {
						p, _, err := Prove(pk, sys, wits[0], cfg, detRand(77))
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						got = []*Proof{p}
					} else if got, _, err = ProveBatch(pk, sys, wits[:k], cfg, detRand(77)); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					for i := range want {
						gb, err := got[i].MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						wb, err := want[i].MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						if string(gb) != string(wb) {
							t.Fatalf("%s: proof %d differs from the stage-by-stage reference", what, i)
						}
					}
				}
			}
		}
	}
}

// TestProveSharesPlans: A, B1 and B2 of one witness build one scalar plan
// (msm.plans counts plan builds), so a prove builds three — A/B1/B2, H and
// K — per witness, with kept tables at M = 1 and with one-shot tables.
func TestProveSharesPlans(t *testing.T) {
	c := curve.Get(curve.BN254)
	sys, pub, sec, err := workload.SyntheticR1CS(c.Fr, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := Setup(sys, c, detRand(9))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.Solve(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProveConfig{MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true, CheckpointInterval: 1}}
	for _, kept := range []bool{false, true} {
		if kept {
			if err := pk.Preprocess(cfg.MSM); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 4} {
			tr := telemetry.New()
			wits := make([][]ff.Element, k)
			for i := range wits {
				wits[i] = w
			}
			if _, _, err := ProveBatchCtx(telemetry.NewContext(context.Background(), tr), pk, sys, wits, cfg, nil); err != nil {
				t.Fatal(err)
			}
			if got := tr.Registry().Snapshot().Counters["msm.plans"]; got != int64(3*k) {
				t.Fatalf("kept=%v k=%d: %d plans built, want %d (one for A/B1/B2, one each for H and K, per witness)", kept, k, got, 3*k)
			}
		}
	}
}

// TestProveSteadyStateAllocs: once a key has proved, a Prove of a
// 1024-constraint circuit against kept tables — the prove_large shape —
// allocates at most 250 times and 100 KB. What grows with n (the witness
// rows, the NTT block scratch, the scalar plans, the bucket sums and the
// one-shot tables) comes from the key's prove buffers; the rest is the
// runtime's fans and contexts. Allocating them on every prove cost 1,073
// allocations and 1.59 MB.
func TestProveSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-constraint setup")
	}
	c := curve.Get(curve.BN254)
	sys, pub, sec, err := workload.SyntheticR1CS(c.Fr, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := Setup(sys, c, detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProveConfig{NTT: ntt.Config{Strategy: ntt.GZKP}, MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true}}
	if err := pk.Preprocess(cfg.MSM); err != nil {
		t.Fatal(err)
	}
	w, err := sys.Solve(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	prove := func() {
		if _, _, err := Prove(pk, sys, w, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	prove() // the warm-up: the key's buffer and the workers' scratch
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		prove()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("%.0f allocations, %.1f KB per Prove", allocs, kb)
	if allocs > 250 || kb > 100 {
		t.Fatalf("Prove made %.0f allocations and %.1f KB, want at most 250 and 100 KB", allocs, kb)
	}
}
