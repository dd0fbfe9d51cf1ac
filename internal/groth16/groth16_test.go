package groth16

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/r1cs"
	"gzkp/internal/workload"
)

// cubic builds the x³+x+5=out circuit over the given field.
func cubic(f *ff.Field) *r1cs.System {
	b := r1cs.NewBuilder(f)
	out, err := b.Public("out")
	if err != nil {
		panic(err)
	}
	x := b.Secret("x")
	x2 := b.Square(x)
	x3 := b.Mul(x2, x)
	b.AssertEqual(b.Add(b.Add(x3, x), b.ConstUint64(5)), out)
	return b.Build()
}

// mediumCircuit chains MiMC permutations to get a few hundred constraints.
func mediumCircuit(f *ff.Field, chain int) (*r1cs.System, *r1cs.MiMC) {
	m := r1cs.NewMiMC(f)
	b := r1cs.NewBuilder(f)
	out, err := b.Public("out")
	if err != nil {
		panic(err)
	}
	x := b.Secret("x")
	cur := x
	for i := 0; i < chain; i++ {
		cur = m.Hash2Gadget(b, cur, b.ConstUint64(uint64(i)))
	}
	b.AssertEqual(cur, out)
	return b.Build(), m
}

func proveVerifyRoundTrip(t *testing.T, id curve.ID, cfg ProveConfig) {
	t.Helper()
	c := curve.Get(id)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	if err != nil {
		t.Fatal(err)
	}
	proof, stats, err := Prove(pk, sys, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NTTOps != 7 {
		t.Fatalf("POLY stage ran %d NTTs, want 7 (§5.2)", stats.NTTOps)
	}
	if stats.MSMOps != 5 {
		t.Fatalf("MSM stage ran %d MSMs, want 5 (§5.2)", stats.MSMOps)
	}
	if err := Verify(vk, proof, []ff.Element{f.FromUint64(35)}); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	// Wrong public input must fail.
	if err := Verify(vk, proof, []ff.Element{f.FromUint64(36)}); err == nil {
		t.Fatal("proof verified against wrong public input")
	}
	// Tampered proof must fail.
	bad := *proof
	bad.A = c.G1.NegAffine(bad.A)
	if err := Verify(vk, &bad, []ff.Element{f.FromUint64(35)}); err == nil {
		t.Fatal("tampered proof accepted")
	}
}

func TestProveVerifyBN254(t *testing.T) {
	proveVerifyRoundTrip(t, curve.BN254, ProveConfig{
		NTT: ntt.Config{Strategy: ntt.GZKP},
		MSM: msm.Config{Strategy: msm.GZKP},
	})
}

func TestProveVerifyBLS12381(t *testing.T) {
	proveVerifyRoundTrip(t, curve.BLS12381, ProveConfig{
		NTT: ntt.Config{Strategy: ntt.GZKP},
		MSM: msm.Config{Strategy: msm.GZKP},
	})
}

func TestAllStrategyCombinations(t *testing.T) {
	// Every NTT×MSM strategy pair must produce verifying proofs.
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	for _, ns := range []ntt.Strategy{ntt.Serial, ntt.SerialPrecomp, ntt.ShuffleBaseline, ntt.GZKP} {
		for _, ms := range []msm.StrategyID{msm.Reference, msm.Straus, msm.PippengerWindows, msm.GZKP} {
			cfg := ProveConfig{NTT: ntt.Config{Strategy: ns}, MSM: msm.Config{Strategy: ms}}
			proof, _, err := Prove(pk, sys, w, cfg, nil)
			if err != nil {
				t.Fatalf("%v/%v: %v", ns, ms, err)
			}
			if err := Verify(vk, proof, []ff.Element{f.FromUint64(35)}); err != nil {
				t.Fatalf("%v/%v: %v", ns, ms, err)
			}
		}
	}
}

func TestMediumCircuitWithPreprocessedTables(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys, m := mediumCircuit(f, 2)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Preprocess(msm.Config{CheckpointInterval: 4}); err != nil {
		t.Fatal(err)
	}
	x := f.FromUint64(7)
	out := m.Hash2(m.Hash2(x, f.FromUint64(0)), f.FromUint64(1))
	w, err := sys.Solve([]ff.Element{out}, []ff.Element{x})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProveConfig{MSM: msm.Config{Strategy: msm.GZKP}, NTT: ntt.Config{Strategy: ntt.GZKP}, CheckSatisfied: true}
	proof, stats, err := Prove(pk, sys, w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, []ff.Element{out}); err != nil {
		t.Fatal(err)
	}
	if stats.PolyNS <= 0 || stats.MSMNS <= 0 {
		t.Fatal("stage timings not recorded")
	}
}

func TestSetupRejections(t *testing.T) {
	c := curve.Get(curve.BN254)
	// Empty system.
	empty := r1cs.NewBuilder(c.Fr).Build()
	if _, _, err := Setup(empty, c, nil); err == nil {
		t.Fatal("empty system accepted")
	}
	// Pairing-free curve.
	simSys := cubic(curve.Get(curve.MNT4753Sim).Fr)
	if _, _, err := Setup(simSys, curve.Get(curve.MNT4753Sim), nil); err == nil {
		t.Fatal("MNT4753-sim setup should be rejected (no pairing)")
	}
	// Field mismatch.
	if _, _, err := Setup(simSys, c, nil); err == nil {
		t.Fatal("field mismatch accepted")
	}
}

func TestProveRejectsBadWitness(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, _, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if _, _, err := Prove(pk, sys, make([]ff.Element, 2), ProveConfig{}, nil); err == nil {
		t.Fatal("short witness accepted")
	}
	// Unsatisfying witness with CheckSatisfied.
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(4)})
	if _, _, err := Prove(pk, sys, w, ProveConfig{CheckSatisfied: true}, nil); err == nil {
		t.Fatal("unsatisfying witness accepted with CheckSatisfied")
	}
}

func TestSoundnessUnsatisfyingWitnessProofFails(t *testing.T) {
	// Without CheckSatisfied the prover happily computes — but the proof
	// must not verify (completeness/soundness spot check).
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(4)})
	proof, _, err := Prove(pk, sys, w, ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, []ff.Element{f.FromUint64(35)}); err == nil {
		t.Fatal("proof from unsatisfying witness verified")
	}
}

func TestProofSerialization(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	proof, _, err := Prove(pk, sys, w, ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, &back, []ff.Element{f.FromUint64(35)}); err != nil {
		t.Fatalf("roundtripped proof rejected: %v", err)
	}
	// Truncation must be rejected.
	for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		var p Proof
		if err := p.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncated proof (%d bytes) accepted", cut)
		}
	}
	// Trailing garbage rejected.
	var p Proof
	if err := p.UnmarshalBinary(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Corrupted coordinate: flip a byte somewhere in A's encoding.
	bad := append([]byte{}, blob...)
	bad[5] ^= 0xFF
	if err := p.UnmarshalBinary(bad); err == nil {
		// The mutation might still be a field element; it must then be
		// off-curve or fail verification.
		if Verify(vk, &p, []ff.Element{f.FromUint64(35)}) == nil {
			t.Fatal("corrupted proof verified")
		}
	}
	// Bad curve id.
	bad2 := append([]byte{}, blob...)
	bad2[0] = 42
	if err := p.UnmarshalBinary(bad2); err == nil {
		t.Fatal("bogus curve id accepted")
	}
}

func TestVKSerialization(t *testing.T) {
	c := curve.Get(curve.BLS12381)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = pk
	blob, err := vk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back VerifyingKey
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	proof, _, err := Prove(pk, sys, w, ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&back, proof, []ff.Element{f.FromUint64(35)}); err != nil {
		t.Fatalf("roundtripped VK rejected valid proof: %v", err)
	}
	if err := back.UnmarshalBinary(blob[:10]); err == nil {
		t.Fatal("truncated VK accepted")
	}
}

func TestProofDeterministicWithFixedRand(t *testing.T) {
	// With a deterministic entropy source the proof bytes are reproducible.
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, _, err := Setup(sys, c, detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	p1, _, err := Prove(pk, sys, w, ProveConfig{}, detRand(7))
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Prove(pk, sys, w, ProveConfig{}, detRand(7))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := p1.MarshalBinary()
	b2, _ := p2.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same entropy produced different proofs")
	}
	p3, _, _ := Prove(pk, sys, w, ProveConfig{}, detRand(8))
	b3, _ := p3.MarshalBinary()
	if bytes.Equal(b1, b3) {
		t.Fatal("different entropy produced identical proofs (blinding broken)")
	}
}

// detRand is a deterministic io.Reader for reproducible tests.
type detRandSrc struct{ rng *mrand.Rand }

func detRand(seed int64) *detRandSrc { return &detRandSrc{rng: mrand.New(mrand.NewSource(seed))} }

func (d *detRandSrc) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.rng.Intn(256))
	}
	return len(p), nil
}

func TestProofMutationFuzz(t *testing.T) {
	// Deterministic mutation fuzzing: no byte-level corruption of a valid
	// proof may yield a different accepted proof (it must either fail to
	// parse or fail verification).
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	proof, _, err := Prove(pk, sys, w, ProveConfig{}, detRand(5))
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := proof.MarshalBinary()
	pub := []ff.Element{f.FromUint64(35)}
	rng := mrand.New(mrand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		mut := append([]byte{}, blob...)
		// Flip 1-3 random bits.
		for flips := 1 + rng.Intn(3); flips > 0; flips-- {
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << uint(rng.Intn(8))
		}
		if bytes.Equal(mut, blob) {
			continue
		}
		var p Proof
		if err := p.UnmarshalBinary(mut); err != nil {
			continue // rejected at parse: good
		}
		if err := Verify(vk, &p, pub); err == nil {
			t.Fatalf("trial %d: mutated proof accepted", trial)
		}
	}
}

func TestVerifyRejectsCurveMismatchAndCounts(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	proof, _, err := Prove(pk, sys, w, ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong public-input count.
	if err := Verify(vk, proof, nil); err == nil {
		t.Fatal("missing public inputs accepted")
	}
	if err := Verify(vk, proof, []ff.Element{f.One(), f.One()}); err == nil {
		t.Fatal("extra public inputs accepted")
	}
	// Curve mismatch.
	bad := *proof
	bad.CurveID = curve.BLS12381
	if err := Verify(vk, &bad, []ff.Element{f.FromUint64(35)}); err == nil {
		t.Fatal("curve mismatch accepted")
	}
	// Off-curve point smuggled into a parsed proof.
	bad2 := *proof
	bad2.A = curve.Affine{X: c.Fq.FromUint64(123), Y: c.Fq.FromUint64(456)}
	if err := Verify(vk, &bad2, []ff.Element{f.FromUint64(35)}); err == nil {
		t.Fatal("off-curve proof point accepted")
	}
}

func TestBatchVerify(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	var proofs []*Proof
	var publics [][]ff.Element
	for _, x := range []uint64{3, 5, 11} {
		out := f.FromBig(new(big.Int).Add(new(big.Int).Exp(big.NewInt(int64(x)), big.NewInt(3), nil),
			big.NewInt(int64(x+5))))
		w, err := sys.Solve([]ff.Element{out}, []ff.Element{f.FromUint64(x)})
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := Prove(pk, sys, w, ProveConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		proofs = append(proofs, p)
		publics = append(publics, []ff.Element{out})
	}
	if err := BatchVerifySeeded(vk, proofs, publics, 1); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	// One corrupted proof must sink the whole batch.
	bad := *proofs[1]
	bad.C = c.G1.NegAffine(bad.C)
	if err := BatchVerifySeeded(vk, []*Proof{proofs[0], &bad, proofs[2]}, publics, 2); err == nil {
		t.Fatal("batch with corrupted proof accepted")
	}
	// Swapped publics must fail.
	swapped := [][]ff.Element{publics[1], publics[0], publics[2]}
	if err := BatchVerifySeeded(vk, proofs, swapped, 3); err == nil {
		t.Fatal("batch with mismatched publics accepted")
	}
	// Validation errors.
	if err := BatchVerifySeeded(vk, nil, nil, 4); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := BatchVerifySeeded(vk, proofs, publics[:2], 5); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestProvingKeySerialization(t *testing.T) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	sys := cubic(f)
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back ProvingKey
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// A proof made with the deserialized key must verify.
	w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
	proof, _, err := Prove(&back, sys, w, ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, []ff.Element{f.FromUint64(35)}); err != nil {
		t.Fatal(err)
	}
	// Truncations rejected.
	for _, cut := range []int{0, 4, len(blob) / 3, len(blob) - 1} {
		var p ProvingKey
		if err := p.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncated proving key (%d bytes) accepted", cut)
		}
	}
	// Trailing garbage rejected.
	var p ProvingKey
	if err := p.UnmarshalBinary(append(append([]byte{}, blob...), 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestDecodedKeyProvesBitIdentically: a key that went through
// MarshalBinary → UnmarshalBinary builds its own δ assembly tables, and its
// proof is byte-identical to the Setup key's under the same seeded reader.
func TestDecodedKeyProvesBitIdentically(t *testing.T) {
	for _, id := range []curve.ID{curve.BN254, curve.BLS12381} {
		c := curve.Get(id)
		f := c.Fr
		sys := cubic(f)
		pk, vk, err := Setup(sys, c, detRand(1))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := pk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back ProvingKey
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if back.fbDelta1 == nil || back.fbDelta2 == nil {
			t.Fatalf("%s: decoded key has no δ assembly tables", c.Name)
		}
		w, _ := sys.Solve([]ff.Element{f.FromUint64(35)}, []ff.Element{f.FromUint64(3)})
		var enc [2][]byte
		for i, key := range []*ProvingKey{pk, &back} {
			proof, _, err := Prove(key, sys, w, ProveConfig{}, detRand(7))
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(vk, proof, []ff.Element{f.FromUint64(35)}); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			enc[i], _ = proof.MarshalBinary()
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Fatalf("%s: decoded key's proof differs from the Setup key's", c.Name)
		}
	}
}

func TestMultiplePublicInputs(t *testing.T) {
	// Exercises the IC accumulation over several public wires:
	// assert x*y == p1, x+y == p2, with p3 = const*x as a third public.
	c := curve.Get(curve.BN254)
	f := c.Fr
	b := r1cs.NewBuilder(f)
	p1, err := b.Public("prod")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Public("sum")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := b.Public("threex")
	if err != nil {
		t.Fatal(err)
	}
	x := b.Secret("x")
	y := b.Secret("y")
	b.AssertEqual(b.Mul(x, y), p1)
	b.AssertEqual(b.Add(x, y), p2)
	b.AssertEqual(b.Scale(x, f.FromUint64(3)), p3)
	sys := b.Build()
	pk, vk, err := Setup(sys, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := []ff.Element{f.FromUint64(7 * 9), f.FromUint64(7 + 9), f.FromUint64(21)}
	w, err := sys.Solve(pub, []ff.Element{f.FromUint64(7), f.FromUint64(9)})
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, sys, w, ProveConfig{CheckSatisfied: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(vk, proof, pub); err != nil {
		t.Fatal(err)
	}
	// Any single perturbed public must fail.
	for i := range pub {
		bad := []ff.Element{f.Copy(pub[0]), f.Copy(pub[1]), f.Copy(pub[2])}
		f.Add(bad[i], bad[i], f.One())
		if err := Verify(vk, proof, bad); err == nil {
			t.Fatalf("perturbed public %d accepted", i)
		}
	}
}

// BenchmarkProveLarge is the library proving loop at the prove_large
// workload's shape — a 1024-constraint workload.SyntheticR1CS circuit on
// BN254, kept GZKP tables with signed buckets — for profiling outside the
// benchmark program: `make profile` runs it with -cpuprofile and
// -memprofile into artifacts/. Its B/op and allocs/op are a steady-state
// prove's: one prove before the timer makes the key's prove buffer.
func BenchmarkProveLarge(b *testing.B) {
	c := curve.Get(curve.BN254)
	sys, pub, sec, err := workload.SyntheticR1CS(c.Fr, 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	pk, _, err := Setup(sys, c, nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ProveConfig{NTT: ntt.Config{Strategy: ntt.GZKP}, MSM: msm.Config{Strategy: msm.GZKP, SignedBuckets: true}}
	if err := pk.Preprocess(cfg.MSM); err != nil {
		b.Fatal(err)
	}
	w, err := sys.Solve(pub, sec)
	if err != nil {
		b.Fatal(err)
	}
	prove := func() {
		if _, _, err := Prove(pk, sys, w, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
	prove() // the key's first prove makes its prove buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prove()
	}
}
