package r1cs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	mrand "math/rand"
	"testing"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/frontend"
	"gzkp/internal/r1cs"
	"gzkp/internal/workload"
)

func putUint(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// digest hashes a system's shape, every constraint term (variable and raw
// Montgomery limbs) and each witness's raw limbs, so two builders or two
// solvers agree on it only if they agree bit for bit.
func digest(sys *r1cs.System, witnesses ...[]ff.Element) string {
	h := sha256.New()
	putUint(h, uint64(sys.NumVars), uint64(sys.NumPublic), uint64(sys.NumSecret), uint64(len(sys.Constraints)))
	for _, c := range sys.Constraints {
		for _, lc := range []r1cs.LC{c.A, c.B, c.C} {
			putUint(h, uint64(len(lc)))
			for _, t := range lc {
				putUint(h, uint64(t.V))
				putUint(h, t.Coeff...)
			}
		}
	}
	for _, w := range witnesses {
		putUint(h, uint64(len(w)))
		for _, e := range w {
			putUint(h, e...)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func solveOK(t *testing.T, sys *r1cs.System, pub, sec []ff.Element) []ff.Element {
	t.Helper()
	w, err := sys.Solve(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func uints(f *ff.Field, vs ...uint64) []ff.Element {
	out := make([]ff.Element, len(vs))
	for i, v := range vs {
		out[i] = f.FromUint64(v)
	}
	return out
}

// TestBuildAndSolveGolden pins the constraints Build produces and the
// witnesses Solve computes — satisfying and not — for the synthetic
// circuits, the MiMC and Merkle gadgets, a gadget mix and a compiled
// source. The digests were recorded from the closure-per-wire solver and
// the map-based Add that the compiled hint program and the sorted merge
// replaced, so they show both kept every constraint and witness limb.
func TestBuildAndSolveGolden(t *testing.T) {
	bn, bls := curve.Get(curve.BN254).Fr, curve.Get(curve.BLS12381).Fr
	got := map[string]string{}

	for _, c := range []struct {
		name string
		f    *ff.Field
		size int
	}{{"synthetic1024", bn, 1024}, {"synthetic64bls", bls, 64}} {
		sys, pub, sec, err := workload.SyntheticR1CS(c.f, c.size, 1)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = digest(sys, solveOK(t, sys, pub, sec))
	}

	// MiMC compression and a depth-4 Merkle path (one wrong root).
	m := r1cs.NewMiMC(bn)
	b := r1cs.NewBuilder(bn)
	root, _ := b.Public("root")
	leaf := b.Secret("leaf")
	var sibs, pos []r1cs.LC
	for range 4 {
		sibs = append(sibs, b.Secret("sib"))
	}
	for range 4 {
		pos = append(pos, b.Secret("pos"))
	}
	m.MerkleGadget(b, leaf, sibs, pos, root)
	m.Hash2Gadget(b, leaf, sibs[0])
	sys := b.Build()
	rng := mrand.New(mrand.NewSource(3))
	sec := []ff.Element{bn.Rand(rng), bn.Rand(rng), bn.Rand(rng), bn.Rand(rng), bn.Rand(rng)}
	sec = append(sec, uints(bn, 1, 0, 0, 1)...)
	rv := m.MerkleRoot(sec[0], sec[1:5], []int{1, 0, 0, 1})
	got["merkle"] = digest(sys, solveOK(t, sys, []ff.Element{rv}, sec), solveOK(t, sys, []ff.Element{bn.One()}, sec))

	// Every gadget, with zero, in-range and out-of-range inputs.
	b = r1cs.NewBuilder(bn)
	p, _ := b.Public("p")
	x, y, z := b.Secret("x"), b.Secret("y"), b.Secret("z")
	b.IsZero(x)
	b.IsZero(b.Sub(y, y))
	b.Select(b.IsZero(z), b.Div(x, y), b.Scale(p, bn.FromInt64(-7)))
	b.AssertLessEq(x, y, 20)
	bits := b.ToBits(b.Add(x, b.ConstUint64(3)), 300)
	b.AssertEqual(b.FromBits(bits[:16]), b.Square(b.Inverse(b.Add(z, b.One()))))
	b.ToBits(b.Mul(p, b.Constant(bn.FromInt64(-1))), 253)
	b.AssertBool(z)
	sys = b.Build()
	got["gadgets"] = digest(sys,
		solveOK(t, sys, uints(bn, 5), uints(bn, 9, 1000, 0)),
		solveOK(t, sys, uints(bn, 0), uints(bn, 1<<21, 2, 1)),
		solveOK(t, sys, []ff.Element{bn.FromInt64(-1)}, []ff.Element{bn.FromInt64(-3), bn.One(), bn.FromInt64(-2)}))

	// A compiled source: powers, division, negation and range checks.
	prog, err := frontend.Compile(bls, `
		public out
		secret a
		secret b
		let c = (a^5 - b) / (b + 2) * -3
		assert bits(a * 4, 40)
		assert bits(c - c + a - 1, 8)
		assert c == out`, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys = prog.System
	got["source"] = digest(sys,
		solveOK(t, sys, uints(bls, 17), uints(bls, 200, 7)),
		solveOK(t, sys, uints(bls, 17), uints(bls, 1<<40, 0)))

	want := map[string]string{
		"synthetic1024":  "b7b0da60b188fc98d3ba67ae",
		"synthetic64bls": "bdb6a793951902552aa09f54",
		"merkle":         "48500129680239009e14ca08",
		"gadgets":        "135dd47191008a744c77c42e",
		"source":         "af167fed9f11e764e329ef6a",
	}
	for name, d := range got {
		if d != want[name] {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}
}

// TestSolveAllocsBounded: Solve makes one witness slab and one scratch,
// whatever the circuit's size.
func TestSolveAllocsBounded(t *testing.T) {
	f := curve.Get(curve.BN254).Fr
	allocs := func(size int) float64 {
		sys, pub, sec, err := workload.SyntheticR1CS(f, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := sys.Solve(pub, sec); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("Solve: %v allocations at 64 constraints, %v at 1024", small, large)
	if large > 4 || small != large {
		t.Fatalf("Solve: %v allocations at 64 constraints, %v at 1024; want the same, at most 4", small, large)
	}
}

// TestIsSatisfiedAllocsBounded: IsSatisfied evaluates every row into the
// same scratch, so its allocations do not grow with the circuit.
func TestIsSatisfiedAllocsBounded(t *testing.T) {
	f := curve.Get(curve.BN254).Fr
	allocs := func(size int) float64 {
		sys, pub, sec, err := workload.SyntheticR1CS(f, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		w := solveOK(t, sys, pub, sec)
		return testing.AllocsPerRun(5, func() {
			if err := sys.IsSatisfied(w); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	t.Logf("IsSatisfied: %v allocations at 64 constraints, %v at 1024", small, large)
	if large > 2 || small != large {
		t.Fatalf("IsSatisfied: %v allocations at 64 constraints, %v at 1024; want the same, at most 2", small, large)
	}
}
