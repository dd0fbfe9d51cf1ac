package main

import (
	"fmt"
	mrand "math/rand"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/r1cs"
	"gzkp/internal/workload"
)

// witnessesPerCircuit distinct assignments are drawn per circuit and cycled,
// so no request repeats its predecessor's inputs.
const witnessesPerCircuit = 16

// witness is one satisfying assignment, in both forms the program accepts:
// field elements (library) and decimal strings (HTTP API).
type witness struct {
	pub, sec   []ff.Element
	pubS, secS []string
}

// circuit is one generated constraint system with its witnesses. seed is the
// synthetic_seed a service registration passes, so the server builds the
// same system the harness checked its witnesses against.
type circuit struct {
	size int
	seed int64
	sys  *r1cs.System
	wits []witness
}

// inputs is everything a workload feeds the program, derived from the seed
// alone. The program under test sees the circuits and witnesses, never the
// seed.
type inputs struct {
	curve    *curve.Curve
	circuits []circuit
	// order[c] is client c's starting offset into the circuit and witness
	// cycles: the request order drawn from the seed.
	order []int
}

func genInputs(seed int64, sizes []int, clients int) (*inputs, error) {
	c := curve.Get(curve.BN254)
	f := c.Fr
	in := &inputs{curve: c}
	for i, size := range sizes {
		cs := seed*1000 + int64(i)
		sys, _, _, err := workload.SyntheticR1CS(f, size, cs)
		if err != nil {
			return nil, fmt.Errorf("circuit %d: %w", size, err)
		}
		ck := circuit{size: size, seed: cs, sys: sys}
		for j := 0; j < witnessesPerCircuit; j++ {
			// The synthetic circuit's shape depends on its size only, so the
			// assignment generated for another seed fits this system; the
			// solve below fails loudly if that ever stops being true.
			_, pub, sec, err := workload.SyntheticR1CS(f, size, cs+100+int64(j))
			if err != nil {
				return nil, fmt.Errorf("witness %d/%d: %w", size, j, err)
			}
			w, err := sys.Solve(pub, sec)
			if err == nil {
				err = sys.IsSatisfied(w)
			}
			if err != nil {
				return nil, fmt.Errorf("witness %d/%d does not fit its circuit: %w", size, j, err)
			}
			ck.wits = append(ck.wits, witness{pub: pub, sec: sec, pubS: decimals(f, pub), secS: decimals(f, sec)})
		}
		in.circuits = append(in.circuits, ck)
	}
	rng := mrand.New(mrand.NewSource(seed))
	for c := 0; c < clients; c++ {
		in.order = append(in.order, rng.Intn(len(sizes)*witnessesPerCircuit))
	}
	return in, nil
}

func decimals(f *ff.Field, v []ff.Element) []string {
	out := make([]string, len(v))
	for i, e := range v {
		out[i] = f.ToBig(e).String()
	}
	return out
}
