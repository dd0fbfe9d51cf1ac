package groth16

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"gzkp/internal/curve"
)

// Compressed wire format: the same layout as MarshalBinary but with every
// point in the SEC-style compressed encoding of internal/curve (one header
// byte — 0 infinity, 2 even y, 3 odd y — followed by the canonical
// big-endian x coordinate, both Fq2 limbs for G2). This halves proof and
// key transport size, which is what the proving service puts on the wire;
// decompression recovers y by square root + parity selection, so every
// decoded point is on the curve by construction. The encoding is canonical:
// encode→decode→encode is bit-identical, which the serialization fuzz
// tests pin down.

func writeCompressed(buf *bytes.Buffer, g *curve.Group, p curve.Affine) {
	buf.Write(g.Compress(p))
}

func readCompressed(r *bytes.Reader, g *curve.Group) (curve.Affine, error) {
	b := make([]byte, g.CompressedLen())
	if _, err := io.ReadFull(r, b); err != nil {
		return curve.Affine{}, fmt.Errorf("groth16: truncated compressed point: %w", err)
	}
	return g.Decompress(b)
}

func wireCurve(idb byte, what string) (*curve.Curve, error) {
	id := curve.ID(idb)
	if id != curve.BN254 && id != curve.BLS12381 {
		return nil, fmt.Errorf("groth16: unsupported %s curve id %d", what, idb)
	}
	return curve.Get(id), nil
}

// MarshalCompressed serializes the proof with compressed points (roughly
// half the MarshalBinary size: 2·|Fq|+|Fq2|+3 bytes plus the curve id).
func (p *Proof) MarshalCompressed() ([]byte, error) {
	c := curve.Get(p.CurveID)
	var buf bytes.Buffer
	buf.WriteByte(byte(p.CurveID))
	writeCompressed(&buf, c.G1, p.A)
	writeCompressed(&buf, c.G2, p.B)
	writeCompressed(&buf, c.G1, p.C)
	return buf.Bytes(), nil
}

// UnmarshalCompressed parses and validates a compressed proof.
func (p *Proof) UnmarshalCompressed(data []byte) error {
	r := bytes.NewReader(data)
	idb, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("groth16: empty proof")
	}
	c, err := wireCurve(idb, "proof")
	if err != nil {
		return err
	}
	a, err := readCompressed(r, c.G1)
	if err != nil {
		return err
	}
	b, err := readCompressed(r, c.G2)
	if err != nil {
		return err
	}
	cc, err := readCompressed(r, c.G1)
	if err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %d trailing bytes after proof", r.Len())
	}
	p.CurveID, p.A, p.B, p.C = c.ID, a, b, cc
	return nil
}

// UnmarshalProofAuto accepts either wire format, trying compressed first
// (the service's format) and falling back to the uncompressed legacy
// layout — how the CLI loads artifacts of unknown provenance.
func UnmarshalProofAuto(data []byte) (*Proof, error) {
	var p Proof
	cerr := p.UnmarshalCompressed(data)
	if cerr == nil {
		return &p, nil
	}
	if uerr := p.UnmarshalBinary(data); uerr == nil {
		return &p, nil
	}
	return nil, cerr
}

// MarshalCompressed serializes the verifying key with compressed points.
func (vk *VerifyingKey) MarshalCompressed() ([]byte, error) {
	c := curve.Get(vk.CurveID)
	var buf bytes.Buffer
	buf.WriteByte(byte(vk.CurveID))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(vk.IC)))
	buf.Write(n[:])
	writeCompressed(&buf, c.G1, vk.Alpha1)
	writeCompressed(&buf, c.G2, vk.Beta2)
	writeCompressed(&buf, c.G2, vk.Gamma2)
	writeCompressed(&buf, c.G2, vk.Delta2)
	for _, p := range vk.IC {
		writeCompressed(&buf, c.G1, p)
	}
	return buf.Bytes(), nil
}

// UnmarshalCompressed parses and validates a compressed verifying key.
func (vk *VerifyingKey) UnmarshalCompressed(data []byte) error {
	r := bytes.NewReader(data)
	idb, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("groth16: empty key")
	}
	c, err := wireCurve(idb, "key")
	if err != nil {
		return err
	}
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return fmt.Errorf("groth16: truncated key")
	}
	icLen := binary.BigEndian.Uint32(n[:])
	if icLen == 0 || icLen > 1<<24 || int(icLen)*c.G1.CompressedLen() > r.Len() {
		return fmt.Errorf("groth16: implausible IC length %d", icLen)
	}
	out := &VerifyingKey{CurveID: c.ID}
	if out.Alpha1, err = readCompressed(r, c.G1); err != nil {
		return err
	}
	if out.Beta2, err = readCompressed(r, c.G2); err != nil {
		return err
	}
	if out.Gamma2, err = readCompressed(r, c.G2); err != nil {
		return err
	}
	if out.Delta2, err = readCompressed(r, c.G2); err != nil {
		return err
	}
	out.IC = make([]curve.Affine, icLen)
	for i := range out.IC {
		if out.IC[i], err = readCompressed(r, c.G1); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("groth16: %d trailing bytes after key", r.Len())
	}
	// A fresh value: the prepared form of a key decoded over is dropped.
	*vk = VerifyingKey{CurveID: out.CurveID, Alpha1: out.Alpha1, Beta2: out.Beta2, Gamma2: out.Gamma2, Delta2: out.Delta2, IC: out.IC}
	return nil
}

// UnmarshalVerifyingKeyAuto accepts either verifying-key wire format,
// compressed first.
func UnmarshalVerifyingKeyAuto(data []byte) (*VerifyingKey, error) {
	var vk VerifyingKey
	cerr := vk.UnmarshalCompressed(data)
	if cerr == nil {
		return &vk, nil
	}
	if uerr := vk.UnmarshalBinary(data); uerr == nil {
		return &vk, nil
	}
	return nil, cerr
}
