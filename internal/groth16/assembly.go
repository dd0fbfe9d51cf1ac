package groth16

import (
	"encoding/binary"
	"fmt"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
)

// Assembly tables: per-circuit fixed-base windows over the CRS deltas.
//
// Proof assembly multiplies the *fixed* points δ·G1 and δ·G2 by fresh
// blinding scalars on every proof (r·δ, s·δ, -rs·δ). Since the service
// proves the same circuit millions of times, the signed byte-window tables
// are built once at circuit-register time, shipped to replicas inside the
// cluster key bundle (bit-identical bytes), and looked up per proof — one
// mixed add per scalar byte instead of a full double-and-add ladder. A key
// without tables (an old bundle, or a freshly deserialized key) falls back
// to the wNAF ladder and bumps the groth16.fixedbase_fallback counter.

// BuildAssemblyTables precomputes the fixed-base tables for the CRS deltas.
// Safe to call again after the key changes; idempotent otherwise.
func (pk *ProvingKey) BuildAssemblyTables() {
	c := curve.Get(pk.CurveID)
	pk.fbDelta1 = c.G1.NewFixedBase(pk.Delta1)
	if c.G2 != nil {
		pk.fbDelta2 = c.G2.NewFixedBase(pk.Delta2)
	}
}

// HasAssemblyTables reports whether the fixed-base assembly tables are
// available (built locally or imported from a key bundle).
func (pk *ProvingKey) HasAssemblyTables() bool {
	return pk.fbDelta1 != nil && pk.fbDelta2 != nil
}

// AssemblyTableBytes reports the table footprint (0 when absent).
func (pk *ProvingKey) AssemblyTableBytes() int64 {
	var n int64
	if pk.fbDelta1 != nil {
		n += pk.fbDelta1.Bytes()
	}
	if pk.fbDelta2 != nil {
		n += pk.fbDelta2.Bytes()
	}
	return n
}

// MarshalAssemblyTables serializes both delta tables deterministically:
// [u32 len(fb1)][fb1][u32 len(fb2)][fb2]. Returns an error when the tables
// have not been built.
func (pk *ProvingKey) MarshalAssemblyTables() ([]byte, error) {
	if !pk.HasAssemblyTables() {
		return nil, fmt.Errorf("groth16: assembly tables not built")
	}
	b1, err := pk.fbDelta1.MarshalBinary()
	if err != nil {
		return nil, err
	}
	b2, err := pk.fbDelta2.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 8+len(b1)+len(b2))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(b1)))
	out = append(out, u32[:]...)
	out = append(out, b1...)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(b2)))
	out = append(out, u32[:]...)
	out = append(out, b2...)
	return out, nil
}

// UnmarshalAssemblyTables installs tables produced by MarshalAssemblyTables
// on another replica, verifying that every point is on-curve and that each
// table's base matches this key's delta — a table for a different CRS would
// silently produce invalid proofs.
func (pk *ProvingKey) UnmarshalAssemblyTables(data []byte) error {
	c := curve.Get(pk.CurveID)
	if c.G2 == nil {
		return fmt.Errorf("groth16: curve %v has no G2; assembly tables unsupported", pk.CurveID)
	}
	read := func(g *curve.Group) (*curve.FixedBase, error) {
		if len(data) < 4 {
			return nil, fmt.Errorf("groth16: assembly tables truncated")
		}
		n := int(binary.LittleEndian.Uint32(data[:4]))
		data = data[4:]
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("groth16: assembly table length %d exceeds payload", n)
		}
		fb, err := g.ParseFixedBase(data[:n])
		data = data[n:]
		return fb, err
	}
	fb1, err := read(c.G1)
	if err != nil {
		return err
	}
	fb2, err := read(c.G2)
	if err != nil {
		return err
	}
	if !c.G1.EqualAffine(fb1.Base(), pk.Delta1) {
		return fmt.Errorf("groth16: imported G1 table base != δ·G1")
	}
	if !c.G2.EqualAffine(fb2.Base(), pk.Delta2) {
		return fmt.Errorf("groth16: imported G2 table base != δ·G2")
	}
	pk.fbDelta1, pk.fbDelta2 = fb1, fb2
	return nil
}

// deltaMul1 computes k·δ in G1 via the assembly table when present.
func (pk *ProvingKey) deltaMul1(ops *curve.Ops, k ff.Element) *curve.Jacobian {
	if pk.fbDelta1 != nil {
		j := pk.fbDelta1.MulElement(ops, k)
		return &j
	}
	return ops.ScalarMulWNAF(pk.Delta1, k, 5)
}

// deltaMul2 computes k·δ in G2 via the assembly table when present.
func (pk *ProvingKey) deltaMul2(ops *curve.Ops, k ff.Element) *curve.Jacobian {
	if pk.fbDelta2 != nil {
		j := pk.fbDelta2.MulElement(ops, k)
		return &j
	}
	return ops.ScalarMulWNAF(pk.Delta2, k, 5)
}
