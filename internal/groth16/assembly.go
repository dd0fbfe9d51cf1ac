package groth16

import (
	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

// Assembly tables: per-key fixed-base windows over the CRS deltas.
//
// Proof assembly multiplies the *fixed* points δ·G1 and δ·G2 by fresh
// blinding scalars on every proof (r·δ, s·δ, -rs·δ). The signed
// byte-window tables are a pure function of δ, so both key constructors
// (Setup and UnmarshalBinary) build them with the key and they are never
// serialized; each proof then looks them up — one mixed add per scalar
// byte instead of a full double-and-add ladder.

// buildAssemblyTables precomputes the fixed-base tables for the CRS deltas.
func (pk *ProvingKey) buildAssemblyTables() {
	c := curve.Get(pk.CurveID)
	pk.fbDelta1 = c.G1.NewFixedBase(pk.Delta1)
	pk.fbDelta2 = c.G2.NewFixedBase(pk.Delta2)
}

// deltaMul1 computes k·δ in G1 from the assembly table.
func (pk *ProvingKey) deltaMul1(ops *curve.Ops, k ff.Element) *curve.Jacobian {
	j := pk.fbDelta1.MulElement(ops, k)
	return &j
}

// deltaMul2 computes k·δ in G2 from the assembly table.
func (pk *ProvingKey) deltaMul2(ops *curve.Ops, k ff.Element) *curve.Jacobian {
	j := pk.fbDelta2.MulElement(ops, k)
	return &j
}
