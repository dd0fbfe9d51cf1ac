package main

import (
	"context"
	"math/big"
	mrand "math/rand"
	"runtime"
	"strings"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/pairing"
	"gzkp/internal/poly"
	"gzkp/internal/r1cs"
)

// replayLane is the trace lane of the stage replay and kernel loops, apart
// from the client lanes of the measured window.
const replayLane = 100

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs fn once, records a span for it, and returns how long it took
// at reference speed.
func timed(tr *tracer, name string, req int, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.add(name, 0, req, replayLane, t0, t1, "stage replay")
	return time.Duration(tr.speed.ms(interval{t0, t1}) * 1e6)
}

// stageReplay measures the layers below groth16 on the workload's real
// inputs, from outside: it performs its own setup of circuit ck, then for
// each of n witnesses runs the whole prove and, after it, the same stages
// one by one through each layer's public functions, in ProveCtx's order
// with the same scalars. groth16.other_ms is the remainder — witness-row
// evaluation, domain construction and proof assembly — so that
// compute_h + Σ msm + other = prove holds on the reported medians.
func stageReplay(m metricSet, in *inputs, ck *circuit, n int, tr *tracer) error {
	c, f := in.curve, in.curve.Fr
	var (
		pk  *groth16.ProvingKey
		vk  *groth16.VerifyingKey
		err error
	)
	m["groth16.setup_s"] = timed(tr, "groth16.setup", 0, func() {
		pk, vk, err = groth16.Setup(ck.sys, c, nil)
	}).Seconds()
	if err != nil {
		return err
	}

	// Algorithm-1 tables, one per base set, as ProvingKey.Preprocess builds
	// them; built here so each can be timed and called on its own.
	sets := []struct {
		name string
		g    *curve.Group
		pts  []curve.Affine
	}{{"A", c.G1, pk.A}, {"B2", c.G2, pk.B2}, {"B1", c.G1, pk.B1}, {"H", c.G1, pk.H}, {"K", c.G1, pk.K}}
	tables := map[string]*msm.Table{}
	var buildS, tableBytes float64
	for _, s := range sets {
		d := timed(tr, "msm.preprocess."+s.name, 0, func() {
			tables[s.name], err = msm.Preprocess(s.g, s.pts, msmConfig)
		})
		if err != nil {
			return err
		}
		buildS += d.Seconds()
		tableBytes += float64(tables[s.name].Bytes())
		if s.name == "B2" {
			m["msm.table_build_B2_s"] = d.Seconds()
		}
	}
	m["msm.table_build_s"] = buildS
	m["msm.table_mb"] = tableBytes / (1 << 20)
	if err := pk.Preprocess(msmConfig); err != nil {
		return err
	}

	dom, err := ntt.NewDomain(f, pk.DomainN)
	if err != nil {
		return err
	}
	cfg := groth16.ProveConfig{NTT: nttConfig, MSM: msmConfig}
	samples := map[string][]float64{}
	note := func(name string, d time.Duration) { samples[name] = append(samples[name], ms(d)) }
	var adds, doubles float64
	for i := 0; i < n; i++ {
		wit := ck.wits[i%len(ck.wits)]
		req := i + 1
		var (
			w     []ff.Element
			proof *groth16.Proof
			st    *groth16.ProveStats
		)
		note("r1cs.solve_ms", timed(tr, "r1cs.solve", req, func() { w, err = ck.sys.Solve(wit.pub, wit.sec) }))
		if err != nil {
			return err
		}
		t0 := time.Now()
		note("groth16.prove_ms", timed(tr, "groth16.prove", req, func() { proof, st, err = groth16.Prove(pk, ck.sys, w, cfg, nil) }))
		if err != nil {
			return err
		}
		// The prover's own split of that call, on its clock.
		slow := tr.speed.slowdown(interval{t0, time.Now()})
		samples["groth16.poly_ms"] = append(samples["groth16.poly_ms"], float64(st.PolyNS)/1e6/slow)
		samples["groth16.msm_ms"] = append(samples["groth16.msm_ms"], float64(st.MSMNS)/1e6/slow)

		av, bv, cv := rows(f, ck.sys, w, pk.DomainN)
		var h []ff.Element
		note("poly.compute_h_ms", timed(tr, "poly.compute_h", req, func() {
			var res *poly.Result
			if res, err = poly.ComputeH(dom, av, bv, cv, nttConfig); err == nil {
				h = res.H
			}
		}))
		if err != nil {
			return err
		}
		adds, doubles = 0, 0
		for _, s := range sets {
			scalars := w
			switch s.name {
			case "H":
				scalars = h
			case "K":
				scalars = w[ck.sys.NumPublic+1:]
			}
			var stats msm.Stats
			note("msm."+s.name+"_ms", timed(tr, "msm."+s.name, req, func() {
				_, stats, err = tables[s.name].Compute(scalars, msmConfig)
			}))
			if err != nil {
				return err
			}
			adds += float64(stats.PointAdds)
			doubles += float64(stats.Doubles)
		}
		note("groth16.verify_ms", timed(tr, "groth16.verify", req, func() { err = groth16.Verify(vk, proof, wit.pub) }))
		if err != nil {
			return err
		}
		// Verification leaves ~100 MB of garbage; collect it here so that the
		// collector does not run beside the next witness's prove but not
		// beside its stages, which would skew the remainder.
		runtime.GC()
	}
	stages := 0.0
	for name, v := range samples {
		m[name] = median(v)
		if name == "poly.compute_h_ms" || strings.HasPrefix(name, "msm.") {
			stages += m[name]
		}
	}
	m["groth16.other_ms"] = m["groth16.prove_ms"] - stages
	// Operation counts of the last witness's five MSMs: exact per seed.
	m["msm.point_adds"], m["msm.doubles"] = adds, doubles

	// One forward transform at the circuit's domain.
	rng := mrand.New(mrand.NewSource(1))
	vec := f.NewVector(pk.DomainN)
	for i := range vec {
		copy(vec[i], f.Rand(rng))
	}
	var nttMS []float64
	for i := 0; i < n; i++ {
		nttMS = append(nttMS, ms(timed(tr, "ntt.transform", 0, func() { _, err = dom.NTT(vec, nttConfig) })))
		if err != nil {
			return err
		}
	}
	m["ntt.transform_ms"] = median(nttMS)

	// The fused k-proof path of the same layers.
	const k = 4
	var polyB, proveB, verifyB []float64
	for rep := 0; rep < max(n/3, 1); rep++ {
		wits := make([][]ff.Element, k)
		pubs := make([][]ff.Element, k)
		avs, bvs, cvs := make([][]ff.Element, k), make([][]ff.Element, k), make([][]ff.Element, k)
		for i := range wits {
			wit := ck.wits[(rep*k+i)%len(ck.wits)]
			if wits[i], err = ck.sys.Solve(wit.pub, wit.sec); err != nil {
				return err
			}
			pubs[i] = wit.pub
			avs[i], bvs[i], cvs[i] = rows(f, ck.sys, wits[i], pk.DomainN)
		}
		polyB = append(polyB, ms(timed(tr, "poly.compute_h_batch", 0, func() {
			_, err = poly.ComputeHBatchCtx(context.Background(), dom, avs, bvs, cvs, nttConfig)
		}))/k)
		if err != nil {
			return err
		}
		var proofs []*groth16.Proof
		proveB = append(proveB, ms(timed(tr, "groth16.prove_batch", 0, func() {
			proofs, _, err = groth16.ProveBatch(pk, ck.sys, wits, cfg, nil)
		}))/k)
		if err != nil {
			return err
		}
		verifyB = append(verifyB, ms(timed(tr, "groth16.batch_verify", 0, func() {
			err = groth16.BatchVerify(vk, proofs, pubs)
		}))/k)
		if err != nil {
			return err
		}
	}
	m["poly.compute_h_batch_ms_per_proof"] = median(polyB)
	m["groth16.prove_batch_ms_per_proof"] = median(proveB)
	m["groth16.batch_verify_ms_per_proof"] = median(verifyB)
	return nil
}

// rows evaluates the constraint rows on witness w, the prover's POLY input.
func rows(f *ff.Field, sys *r1cs.System, w []ff.Element, n int) (av, bv, cv []ff.Element) {
	av, bv, cv = f.NewVector(n), f.NewVector(n), f.NewVector(n)
	for j, cons := range sys.Constraints {
		copy(av[j], r1cs.EvalLC(f, cons.A, w))
		copy(bv[j], r1cs.EvalLC(f, cons.B, w))
		copy(cv[j], r1cs.EvalLC(f, cons.C, w))
	}
	return av, bv, cv
}

// loop times iters calls of fn, five times over, and returns the median
// time per call and the heap allocations per call.
func loop(tr *tracer, name string, iters int, fn func()) (nsPerOp, allocs float64) {
	var per []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const rounds = 5
	for r := 0; r < rounds; r++ {
		d := timed(tr, name, 0, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		})
		per = append(per, float64(d.Nanoseconds())/float64(iters))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*iters)
}

// kernelLoops prices the layers everything else is built from: one field
// multiplication, the extension-field multiplications, the point formulas
// in both groups, and the pairing. scale divides the iteration counts.
func kernelLoops(m metricSet, c *curve.Curve, scale int, tr *tracer) error {
	rng := mrand.New(mrand.NewSource(2))
	nsAllocs := func(prefix, unit string, iters int, fn func()) {
		v, a := loop(tr, prefix, max(iters/scale, 1), fn)
		switch unit {
		case "us":
			v /= 1e3
		case "ms":
			v /= 1e6
		}
		m[prefix+"_"+unit] = v
		m[prefix+"_allocs"] = a
	}

	fq := c.Fq
	x, y, z := fq.Rand(rng), fq.Rand(rng), fq.New()
	nsAllocs("ff.mul", "ns", 200000, func() { fq.Mul(z, x, y) })

	x2, y2, z2 := c.Fq2.Rand(rng), c.Fq2.Rand(rng), c.Fq2.Zero()
	nsAllocs("tower.fq2_mul", "ns", 20000, func() { c.Fq2.Mul(z2, x2, y2) })
	x12, y12, z12 := c.KFull.Rand(rng), c.KFull.Rand(rng), c.KFull.Zero()
	nsAllocs("tower.fq12_mul", "us", 500, func() { c.KFull.Mul(z12, x12, y12) })

	for _, g := range []struct {
		name  string
		g     *curve.Group
		iters int
	}{{"curve.g1", c.G1, 20000}, {"curve.g2", c.G2, 2000}} {
		ops := g.g.NewOps()
		q := ops.ToAffine(ops.ScalarMul(g.g.Generator(), new(big.Int).Rand(rng, c.Fr.Modulus())))
		var p curve.Jacobian
		ops.FromAffine(&p, g.g.Generator())
		nsAllocs(g.name+"_add", "ns", g.iters, func() { ops.AddMixedAssign(&p, q) })
		nsAllocs(g.name+"_double", "ns", g.iters, func() { ops.DoubleAssign(&p) })
	}

	var (
		eng *pairing.Engine
		err error
	)
	ns, _ := loop(tr, "pairing.engine_new", 1, func() { eng, err = pairing.New(c) })
	if err != nil {
		return err
	}
	m["pairing.engine_new_ms"] = ns / 1e6
	ops1, ops2 := c.G1.NewOps(), c.G2.NewOps()
	p1 := ops1.ToAffine(ops1.ScalarMul(c.G1.Generator(), new(big.Int).Rand(rng, c.Fr.Modulus())))
	q2 := ops2.ToAffine(ops2.ScalarMul(c.G2.Generator(), new(big.Int).Rand(rng, c.Fr.Modulus())))
	var f pairing.GT
	ns, _ = loop(tr, "pairing.miller", 1, func() { f = eng.MillerLoop(p1, q2) })
	m["pairing.miller_ms"] = ns / 1e6
	ns, _ = loop(tr, "pairing.final_exp", 1, func() { eng.FinalExp(f) })
	m["pairing.final_exp_ms"] = ns / 1e6
	nsAllocs("pairing.pair", "ms", 1, func() { eng.Pair(p1, q2) })
	return nil
}
