// Package gzkp is a pure-Go reproduction of "GZKP: A GPU Accelerated
// Zero-Knowledge Proof System" (ASPLOS '23): a Groth16 zkSNARK stack whose
// prover runs the paper's optimized POLY (NTT) and MSM kernels, the
// baselines it compares against, and a deterministic GPU execution-model
// simulator for paper-scale experiments (see DESIGN.md and EXPERIMENTS.md).
//
// The package is the high-level facade: build a circuit, compile it, run
// the trusted setup, prove, verify.
//
//	c := gzkp.NewCircuit(gzkp.BN254)
//	out, _ := c.Public("out")
//	x := c.Secret("x")
//	x3 := c.Mul(c.Mul(x, x), x)
//	c.AssertEqual(c.Add(c.Add(x3, x), c.Constant(big.NewInt(5))), out)
//	cc, _ := c.Compile()
//	pk, vk, _ := gzkp.Setup(cc, nil)
//	w, _ := cc.Solve([]*big.Int{big.NewInt(35)}, []*big.Int{big.NewInt(3)})
//	proof, _, _ := pk.Prove(w, gzkp.FastestProver())
//	err := vk.Verify(proof, []*big.Int{big.NewInt(35)})
//
// Lower-level stages (field arithmetic, curves, NTT, MSM, the GPU model)
// live under internal/ and are exercised by cmd/gzkp-bench and examples/.
package gzkp

import (
	"context"
	"fmt"
	"io"
	"math/big"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/frontend"
	"gzkp/internal/groth16"
	"gzkp/internal/msm"
	"gzkp/internal/ntt"
	"gzkp/internal/r1cs"
	"gzkp/internal/telemetry"
)

// Curve selects the elliptic curve. BN254 and BLS12381 support the full
// protocol; MNT4753 (the synthetic 753-bit curve, DESIGN.md §1) is for
// performance experiments only and cannot run Setup.
type Curve int

const (
	BN254 Curve = iota
	BLS12381
	MNT4753
)

func (c Curve) internal() curve.ID {
	switch c {
	case BN254:
		return curve.BN254
	case BLS12381:
		return curve.BLS12381
	case MNT4753:
		return curve.MNT4753Sim
	}
	panic(fmt.Sprintf("gzkp: unknown curve %d", int(c)))
}

// String names the curve as the paper does.
func (c Curve) String() string { return c.internal().String() }

// Wire is a circuit value: a linear combination of witness variables.
type Wire struct{ lc r1cs.LC }

// Circuit accumulates constraints through a builder API. Not safe for
// concurrent use.
type Circuit struct {
	curve Curve
	f     *ff.Field
	b     *r1cs.Builder
	mimc  *r1cs.MiMC
	err   error
}

// NewCircuit starts an empty circuit over the curve's scalar field.
func NewCircuit(c Curve) *Circuit {
	f := curve.Get(c.internal()).Fr
	return &Circuit{curve: c, f: f, b: r1cs.NewBuilder(f), mimc: r1cs.NewMiMC(f)}
}

// Public declares the next public input. All public inputs must be
// declared before secrets or gates.
func (c *Circuit) Public(name string) (Wire, error) {
	lc, err := c.b.Public(name)
	if err != nil {
		return Wire{}, err
	}
	return Wire{lc}, nil
}

// Secret declares the next secret (prover-only) input.
func (c *Circuit) Secret(name string) Wire { return Wire{c.b.Secret(name)} }

// Constant embeds a constant value.
func (c *Circuit) Constant(v *big.Int) Wire { return Wire{c.b.Constant(c.f.FromBig(v))} }

// One is the constant 1.
func (c *Circuit) One() Wire { return Wire{c.b.One()} }

// Add returns x+y (free: no constraint).
func (c *Circuit) Add(x, y Wire) Wire { return Wire{c.b.Add(x.lc, y.lc)} }

// Sub returns x-y (free).
func (c *Circuit) Sub(x, y Wire) Wire { return Wire{c.b.Sub(x.lc, y.lc)} }

// Scale returns k·x (free).
func (c *Circuit) Scale(x Wire, k *big.Int) Wire {
	return Wire{c.b.Scale(x.lc, c.f.FromBig(k))}
}

// Mul returns x·y (one constraint).
func (c *Circuit) Mul(x, y Wire) Wire { return Wire{c.b.Mul(x.lc, y.lc)} }

// Square returns x² (one constraint).
func (c *Circuit) Square(x Wire) Wire { return Wire{c.b.Square(x.lc)} }

// Inverse returns x⁻¹, asserting x ≠ 0.
func (c *Circuit) Inverse(x Wire) Wire { return Wire{c.b.Inverse(x.lc)} }

// Div returns x/y, asserting y ≠ 0.
func (c *Circuit) Div(x, y Wire) Wire { return Wire{c.b.Div(x.lc, y.lc)} }

// AssertEqual adds the constraint x = y.
func (c *Circuit) AssertEqual(x, y Wire) { c.b.AssertEqual(x.lc, y.lc) }

// AssertBool constrains x ∈ {0,1}.
func (c *Circuit) AssertBool(x Wire) { c.b.AssertBool(x.lc) }

// IsZero returns 1 if x == 0 else 0.
func (c *Circuit) IsZero(x Wire) Wire { return Wire{c.b.IsZero(x.lc)} }

// Select returns cond ? t : e (cond must be boolean).
func (c *Circuit) Select(cond, t, e Wire) Wire {
	return Wire{c.b.Select(cond.lc, t.lc, e.lc)}
}

// ToBits range-checks x < 2^n and returns its little-endian bits.
func (c *Circuit) ToBits(x Wire, n int) []Wire {
	lcs := c.b.ToBits(x.lc, n)
	out := make([]Wire, len(lcs))
	for i, lc := range lcs {
		out[i] = Wire{lc}
	}
	return out
}

// AssertLessEq asserts x ≤ y for n-bit values.
func (c *Circuit) AssertLessEq(x, y Wire, n int) { c.b.AssertLessEq(x.lc, y.lc, n) }

// Hash2 is the circuit's MiMC two-to-one compression (also available
// natively via HashValues for witness preparation).
func (c *Circuit) Hash2(x, y Wire) Wire {
	return Wire{c.mimc.Hash2Gadget(c.b, x.lc, y.lc)}
}

// HashValues computes the same MiMC compression outside the circuit.
func (c *Circuit) HashValues(x, y *big.Int) *big.Int {
	h := c.mimc.Hash2(c.f.FromBig(x), c.f.FromBig(y))
	return c.f.ToBig(h)
}

// MerkleAssert constrains leaf to hash up to root through siblings; dirs
// are boolean wires (1 = current node is the right child).
func (c *Circuit) MerkleAssert(leaf Wire, siblings, dirs []Wire, root Wire) error {
	if len(siblings) != len(dirs) {
		return fmt.Errorf("gzkp: %d siblings vs %d directions", len(siblings), len(dirs))
	}
	sibLCs := make([]r1cs.LC, len(siblings))
	dirLCs := make([]r1cs.LC, len(dirs))
	for i := range siblings {
		sibLCs[i], dirLCs[i] = siblings[i].lc, dirs[i].lc
	}
	c.mimc.MerkleGadget(c.b, leaf.lc, sibLCs, dirLCs, root.lc)
	return nil
}

// MerkleRootValues computes the native Merkle root for witness prep.
func (c *Circuit) MerkleRootValues(leaf *big.Int, siblings []*big.Int, dirs []int) *big.Int {
	sibs := make([]ff.Element, len(siblings))
	for i, s := range siblings {
		sibs[i] = c.f.FromBig(s)
	}
	return c.f.ToBig(c.mimc.MerkleRoot(c.f.FromBig(leaf), sibs, dirs))
}

// Compiled is a finalized constraint system bound to a curve.
type Compiled struct {
	curve Curve
	sys   *r1cs.System
}

// Compile finalizes the circuit.
func (c *Circuit) Compile() (*Compiled, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.b.Err(); err != nil {
		return nil, err
	}
	sys := c.b.Build()
	if len(sys.Constraints) == 0 {
		return nil, fmt.Errorf("gzkp: circuit has no constraints")
	}
	return &Compiled{curve: c.curve, sys: sys}, nil
}

// Constraints reports the system size.
func (cc *Compiled) Constraints() int { return len(cc.sys.Constraints) }

// Witness is a solved assignment.
type Witness struct {
	values []ff.Element
}

// Solve computes the full witness from public and secret inputs (in
// declaration order).
func (cc *Compiled) Solve(public, secret []*big.Int) (*Witness, error) {
	f := cc.sys.F
	pub := make([]ff.Element, len(public))
	for i, v := range public {
		pub[i] = f.FromBig(v)
	}
	sec := make([]ff.Element, len(secret))
	for i, v := range secret {
		sec[i] = f.FromBig(v)
	}
	w, err := cc.sys.Solve(pub, sec)
	if err != nil {
		return nil, err
	}
	if err := cc.sys.IsSatisfied(w); err != nil {
		return nil, err
	}
	return &Witness{values: w}, nil
}

// ProverOptions selects the execution strategies for proof generation.
type ProverOptions struct {
	NTT ntt.Config
	MSM msm.Config
}

// FastestProver returns the paper's full GZKP configuration.
func FastestProver() ProverOptions { return preset("gzkp") }

// BaselineProver returns the bellperson-like baseline configuration.
func BaselineProver() ProverOptions { return preset("baseline") }

// ReferenceProver returns the slow single-threaded reference plan.
func ReferenceProver() ProverOptions { return preset("cpu") }

func preset(name string) ProverOptions {
	cfg := groth16.Provers[name]
	return ProverOptions{NTT: cfg.NTT, MSM: cfg.MSM}
}

// ProvingKey wraps the Groth16 CRS together with the circuit.
type ProvingKey struct {
	pk  *groth16.ProvingKey
	sys *r1cs.System
}

// VerifyingKey wraps the short verification CRS.
type VerifyingKey struct {
	vk *groth16.VerifyingKey
}

// Proof is a Groth16 proof.
type Proof struct {
	p *groth16.Proof
}

// Stats reports the stage breakdown of one proof generation, including the
// whole-proof operation aggregates (summed over the five MSMs).
type Stats struct {
	PolyNS, MSMNS int64
	NTTOps        int
	MSMOps        int
	// Aggregated MSM totals: PADD count, doublings, preprocessed-table
	// footprint and estimated streamed traffic across all five queries.
	PointAdds    int64
	Doubles      int64
	TableBytes   int64
	TrafficBytes int64
}

// Trace collects the telemetry of one or more proving runs: nested spans
// over the pipeline stages, instant events from the resilience machinery,
// and the aggregated metrics registry. Create one with NewTrace, thread it
// through ProveContext via Context, then export with WriteChromeTrace
// (Perfetto / chrome://tracing), WriteJSONL, or WriteSummary. A nil *Trace
// is valid everywhere and disables collection.
type Trace struct {
	tr *telemetry.Tracer
}

// NewTrace returns an empty trace ready to record.
func NewTrace() *Trace { return &Trace{tr: telemetry.New()} }

// Context attaches the trace to ctx so proving code records into it.
func (t *Trace) Context(ctx context.Context) context.Context {
	if t == nil || t.tr == nil {
		return ctx
	}
	return telemetry.NewContext(ctx, t.tr)
}

// WriteChromeTrace exports the timeline as Chrome trace_event JSON, with
// one track per simulated device — load the file in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("gzkp: nil trace")
	}
	return t.tr.WriteChromeTrace(w)
}

// WriteJSONL exports spans, events and final metrics as one JSON object per
// line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("gzkp: nil trace")
	}
	return t.tr.WriteJSONL(w)
}

// WriteSummary writes a human-readable report: the span tree, per-track
// busy time, incidents, and metrics.
func (t *Trace) WriteSummary(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("gzkp: nil trace")
	}
	return t.tr.WriteSummary(w)
}

// Counters returns a snapshot of the trace's counter metrics.
func (t *Trace) Counters() map[string]int64 {
	if t == nil || t.tr == nil {
		return nil
	}
	return t.tr.Registry().Snapshot().Counters
}

// Gauges returns a snapshot of the trace's gauge metrics.
func (t *Trace) Gauges() map[string]float64 {
	if t == nil || t.tr == nil {
		return nil
	}
	return t.tr.Registry().Snapshot().Gauges
}

// Setup runs the trusted setup (rand nil = crypto/rand).
func Setup(cc *Compiled, rand io.Reader) (*ProvingKey, *VerifyingKey, error) {
	c := curve.Get(cc.curve.internal())
	pk, vk, err := groth16.Setup(cc.sys, c, rand)
	if err != nil {
		return nil, nil, err
	}
	return &ProvingKey{pk: pk, sys: cc.sys}, &VerifyingKey{vk: vk}, nil
}

// Preprocess builds the GZKP MSM tables once (Algorithm 1) so subsequent
// Prove calls skip the table construction, as in deployment.
func (pk *ProvingKey) Preprocess() error {
	return pk.pk.Preprocess(msm.Config{Strategy: msm.GZKP, SignedBuckets: true})
}

// Prove generates a proof for a solved witness.
func (pk *ProvingKey) Prove(w *Witness, opts ProverOptions) (*Proof, *Stats, error) {
	return pk.ProveContext(context.Background(), w, opts)
}

// ProveContext is Prove with cooperative cancellation: when ctx is
// cancelled or its deadline passes, proving unwinds at the next chunk
// boundary and returns ctx's error.
func (pk *ProvingKey) ProveContext(ctx context.Context, w *Witness, opts ProverOptions) (*Proof, *Stats, error) {
	proof, st, err := groth16.ProveCtx(ctx, pk.pk, pk.sys, w.values, groth16.ProveConfig{
		NTT: opts.NTT, MSM: opts.MSM,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	tot := st.Totals()
	return &Proof{p: proof}, &Stats{
		PolyNS: st.PolyNS, MSMNS: st.MSMNS,
		NTTOps: st.NTTOps, MSMOps: st.MSMOps,
		PointAdds: tot.PointAdds, Doubles: tot.Doubles,
		TableBytes: tot.TableBytes, TrafficBytes: tot.TrafficBytes,
	}, nil
}

// Verify checks a proof against the public inputs.
func (vk *VerifyingKey) Verify(proof *Proof, public []*big.Int) error {
	c := curve.Get(curve.ID(proof.p.CurveID))
	pub := make([]ff.Element, len(public))
	for i, v := range public {
		pub[i] = c.Fr.FromBig(v)
	}
	return groth16.Verify(vk.vk, proof.p, pub)
}

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) { return p.p.MarshalBinary() }

// UnmarshalBinary parses and validates a proof.
func (p *Proof) UnmarshalBinary(data []byte) error {
	var gp groth16.Proof
	if err := gp.UnmarshalBinary(data); err != nil {
		return err
	}
	p.p = &gp
	return nil
}

// MarshalBinary serializes the verifying key.
func (vk *VerifyingKey) MarshalBinary() ([]byte, error) { return vk.vk.MarshalBinary() }

// UnmarshalBinary parses and validates a verifying key.
func (vk *VerifyingKey) UnmarshalBinary(data []byte) error {
	var g groth16.VerifyingKey
	if err := g.UnmarshalBinary(data); err != nil {
		return err
	}
	vk.vk = &g
	return nil
}

// CompileSource compiles a circuit written in the mini description
// language of internal/frontend (the role xJsnark plays for the paper's
// workloads):
//
//	public out
//	secret x
//	assert x^3 + x + 5 == out
//
// The returned name lists give the Solve argument order.
func CompileSource(c Curve, src string) (*Compiled, []string, []string, error) {
	f := curve.Get(c.internal()).Fr
	prog, err := frontend.Compile(f, src, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return &Compiled{curve: c, sys: prog.System}, prog.PublicNames, prog.SecretNames, nil
}
