// Package r1cs provides the rank-1 constraint systems that feed the
// Groth16 pipeline: a circuit builder with the usual gadget library
// (arithmetic, booleans, bit decomposition, comparisons, MiMC hashing), a
// witness solver that runs the builder's straight-line hint program, and
// satisfaction checks.
//
// The witness vector follows the Groth16 convention z = (1, public...,
// private...): index 0 is the constant ONE wire.
package r1cs

import (
	"fmt"

	"gzkp/internal/ff"
)

// Variable is a wire index into the witness vector. Variable 0 is the
// constant 1.
type Variable int

// Term is coeff·variable inside a linear combination.
type Term struct {
	V     Variable
	Coeff ff.Element
}

// LC is a linear combination Σ coeff·var.
type LC []Term

// Constraint asserts ⟨A,z⟩ · ⟨B,z⟩ = ⟨C,z⟩.
type Constraint struct {
	A, B, C LC
}

// System is a finalized constraint system.
type System struct {
	F           *ff.Field
	NumPublic   int // declared public inputs (excludes the ONE wire)
	NumSecret   int // declared secret inputs
	NumVars     int // total wires incl. ONE and internals
	Constraints []Constraint

	ops []op
}

// opcode says what an op computes from its operands' values x and y.
type opcode uint8

const (
	opMul    opcode = iota // out = x·y
	opInv                  // out = x⁻¹; x = 0 is an error
	opIsZero               // out = x⁻¹ (0 for x = 0), out+1 = [x = 0]
	opBits                 // out+i = bit i of x, for i < n
)

// op is one step of the solver's hint program: it sets the n wires from
// out on. Its operands are the LCs its gadget's constraint stores.
type op struct {
	code opcode
	out  Variable
	n    int
	x, y LC
}

// Builder accumulates constraints and the solver's hint program.
type Builder struct {
	f         *ff.Field
	numPublic int
	numSecret int
	numVars   int
	frozen    bool  // true once a non-input wire exists: no more inputs
	max       int   // constraints allowed; 0 is no bound
	err       error // set once the circuit passes max or misplaces a secret
	cons      []Constraint
	ops       []op
}

// NewBuilder starts a circuit over f.
func NewBuilder(f *ff.Field) *Builder { return &Builder{f: f, numVars: 1} }

// Limit bounds the circuit at max constraints. Past it the builder records
// nothing more, and Err says so.
func (b *Builder) Limit(max int) { b.max = max }

// Err reports a circuit that passed its Limit, or that declared a secret
// after an internal wire.
func (b *Builder) Err() error { return b.err }

// Field returns the builder's field.
func (b *Builder) Field() *ff.Field { return b.f }

// One returns the constant-1 wire as an LC.
func (b *Builder) One() LC { return LC{{V: 0, Coeff: b.f.One()}} }

// Constant returns c as an LC.
func (b *Builder) Constant(c ff.Element) LC { return LC{{V: 0, Coeff: b.f.Copy(c)}} }

// ConstUint64 returns the small constant v.
func (b *Builder) ConstUint64(v uint64) LC { return b.Constant(b.f.FromUint64(v)) }

// Public declares the next public input. All public inputs must be
// declared before any secret or internal wire is allocated (the Groth16
// witness layout requires publics to be contiguous after the ONE wire).
func (b *Builder) Public(name string) (LC, error) {
	if b.frozen || b.numSecret > 0 {
		return nil, fmt.Errorf("r1cs: public input %q declared after non-public allocation", name)
	}
	b.numPublic++
	b.numVars++
	return b.wire(Variable(b.numVars - 1)), nil
}

// Secret declares the next secret (prover-supplied) input. Secrets, like
// publics, come before any internal wire (the solver places them at
// 1 + NumPublic + i); one declared after sets Err.
func (b *Builder) Secret(name string) LC {
	if b.frozen && b.err == nil {
		b.err = fmt.Errorf("r1cs: secret input %q declared after an internal wire", name)
	}
	b.numSecret++
	b.numVars++
	return b.wire(Variable(b.numVars - 1))
}

// wire returns the LC 1·v.
func (b *Builder) wire(v Variable) LC { return LC{{V: v, Coeff: b.f.One()}} }

// alloc creates n internal wires, set by one op during solving, and
// returns the first.
func (b *Builder) alloc(n int) Variable {
	b.frozen = true
	b.numVars += n
	return Variable(b.numVars - n)
}

// addConstraint appends A·B = C and returns the stored copy, or nothing
// once the circuit passes its bound.
func (b *Builder) addConstraint(a, bb, c LC) Constraint {
	if b.max > 0 && len(b.cons) >= b.max {
		b.err = fmt.Errorf("r1cs: the circuit passes its bound of %d constraints", b.max)
		return Constraint{}
	}
	con := Constraint{A: copyLC(b.f, a), B: copyLC(b.f, bb), C: copyLC(b.f, c)}
	b.cons = append(b.cons, con)
	return con
}

// hint appends o to the solver's program.
func (b *Builder) hint(o op) {
	if b.err == nil {
		b.ops = append(b.ops, o)
	}
}

// Build finalizes the system.
func (b *Builder) Build() *System {
	return &System{
		F:           b.f,
		NumPublic:   b.numPublic,
		NumSecret:   b.numSecret,
		NumVars:     b.numVars,
		Constraints: b.cons,
		ops:         b.ops,
	}
}

// --- LC algebra (constraint-free) ---

func copyLC(f *ff.Field, a LC) LC {
	out := make(LC, len(a))
	for i, t := range a {
		out[i] = Term{V: t.V, Coeff: f.Copy(t.Coeff)}
	}
	return out
}

// Add returns x+y. Every LC the builder makes is sorted by variable, one
// term each, so this is one merge; terms whose coefficient is 0 drop out.
func (b *Builder) Add(x, y LC) LC {
	out := make(LC, 0, len(x)+len(y))
	for len(x) > 0 || len(y) > 0 {
		var t Term
		switch {
		case len(y) == 0 || len(x) > 0 && x[0].V < y[0].V:
			t, x = Term{V: x[0].V, Coeff: b.f.Copy(x[0].Coeff)}, x[1:]
		case len(x) == 0 || y[0].V < x[0].V:
			t, y = Term{V: y[0].V, Coeff: b.f.Copy(y[0].Coeff)}, y[1:]
		default:
			t = Term{V: x[0].V, Coeff: b.f.Add(b.f.New(), x[0].Coeff, y[0].Coeff)}
			x, y = x[1:], y[1:]
		}
		if !b.f.IsZero(t.Coeff) {
			out = append(out, t)
		}
	}
	return out
}

// Sub returns x-y.
func (b *Builder) Sub(x, y LC) LC { return b.Add(x, b.Scale(y, b.f.FromInt64(-1))) }

// Scale returns c·x.
func (b *Builder) Scale(x LC, c ff.Element) LC {
	out := make(LC, 0, len(x))
	for _, t := range x {
		nc := b.f.Mul(b.f.New(), t.Coeff, c)
		if !b.f.IsZero(nc) {
			out = append(out, Term{V: t.V, Coeff: nc})
		}
	}
	return out
}

// EvalLC computes ⟨lc, w⟩.
func EvalLC(f *ff.Field, lc LC, w []ff.Element) ff.Element {
	return EvalLCTo(f, f.New(), f.New(), lc, w)
}

// EvalLCTo sets dst = ⟨lc, w⟩ with tmp as scratch and returns dst: EvalLC
// without allocating, for a prover that fills whole rows.
func EvalLCTo(f *ff.Field, dst, tmp ff.Element, lc LC, w []ff.Element) ff.Element {
	clear(dst)
	for _, term := range lc {
		f.Mul(tmp, term.Coeff, w[term.V])
		f.Add(dst, dst, tmp)
	}
	return dst
}

// --- Constraint-producing gadgets ---

// Mul allocates x·y.
func (b *Builder) Mul(x, y LC) LC {
	v := b.alloc(1)
	out := b.wire(v)
	c := b.addConstraint(x, y, out)
	b.hint(op{code: opMul, out: v, n: 1, x: c.A, y: c.B})
	return out
}

// Square allocates x².
func (b *Builder) Square(x LC) LC { return b.Mul(x, x) }

// Inverse allocates x⁻¹ and asserts x·x⁻¹ = 1 (unsatisfiable when x = 0).
func (b *Builder) Inverse(x LC) LC {
	v := b.alloc(1)
	out := b.wire(v)
	c := b.addConstraint(x, out, b.One())
	b.hint(op{code: opInv, out: v, n: 1, x: c.A})
	return out
}

// Div allocates x/y (asserting y ≠ 0).
func (b *Builder) Div(x, y LC) LC { return b.Mul(x, b.Inverse(y)) }

// AssertEqual adds x = y (as x·1 = y).
func (b *Builder) AssertEqual(x, y LC) { b.addConstraint(x, b.One(), y) }

// AssertBool adds x·(x-1) = 0.
func (b *Builder) AssertBool(x LC) {
	b.addConstraint(x, b.Sub(x, b.One()), LC{})
}

// IsZero returns a boolean wire that is 1 iff x == 0 (standard m-gadget:
// r = 1 - x·m, x·r = 0, with m hinted to x⁻¹ or 0).
func (b *Builder) IsZero(x LC) LC {
	m := b.alloc(2)
	rLC := b.wire(m + 1)
	// x·m = 1 - r
	c := b.addConstraint(x, b.wire(m), b.Sub(b.One(), rLC))
	// x·r = 0
	b.addConstraint(x, rLC, LC{})
	b.hint(op{code: opIsZero, out: m, n: 2, x: c.A})
	return rLC
}

// Select returns cond ? t : e for boolean cond: e + cond·(t-e).
func (b *Builder) Select(cond, t, e LC) LC {
	d := b.Mul(cond, b.Sub(t, e))
	return b.Add(e, d)
}

// ToBits decomposes x into n boolean wires (little-endian) and asserts the
// recomposition, constraining x < 2^n.
func (b *Builder) ToBits(x LC, n int) []LC {
	v := b.alloc(n)
	bits := make([]LC, n)
	sum := make(LC, n) // Σ 2^i·bit_i, already sorted
	two := b.f.FromUint64(2)
	coeff := b.f.One()
	for i := range bits {
		bits[i] = b.wire(v + Variable(i))
		b.AssertBool(bits[i])
		sum[i] = Term{V: v + Variable(i), Coeff: coeff}
		coeff = b.f.Mul(b.f.New(), coeff, two)
	}
	c := b.addConstraint(sum, b.One(), x) // AssertEqual(sum, x)
	b.hint(op{code: opBits, out: v, n: n, x: c.C})
	return bits
}

// FromBits recomposes little-endian boolean wires into a value (no new
// constraints).
func (b *Builder) FromBits(bits []LC) LC {
	sum := LC{}
	coeff := b.f.One()
	two := b.f.FromUint64(2)
	for _, bit := range bits {
		sum = b.Add(sum, b.Scale(bit, coeff))
		coeff = b.f.Mul(b.f.New(), coeff, two)
	}
	return sum
}

// AssertLessEq asserts x ≤ y for values known to fit n bits, by
// range-checking y - x (sound because both fit well below the modulus).
func (b *Builder) AssertLessEq(x, y LC, n int) {
	b.ToBits(b.Sub(y, x), n)
}

// --- Solving & checking ---

// Solve computes the full witness from declared inputs: publics and
// secrets in declaration order. It runs the hint program in place over one
// witness slab, with one scratch pair for every op.
func (s *System) Solve(public, secret []ff.Element) ([]ff.Element, error) {
	if len(public) != s.NumPublic {
		return nil, fmt.Errorf("r1cs: want %d public inputs, got %d", s.NumPublic, len(public))
	}
	if len(secret) != s.NumSecret {
		return nil, fmt.Errorf("r1cs: want %d secret inputs, got %d", s.NumSecret, len(secret))
	}
	f := s.F
	w := f.NewVector(s.NumVars)
	one := f.SetOne(w[0])
	for i, v := range public {
		copy(w[1+i], v)
	}
	for i, v := range secret {
		copy(w[1+s.NumPublic+i], v)
	}
	bit := func(z ff.Element, set bool) {
		if clear(z); set {
			f.Set(z, one)
		}
	}
	t := f.NewVector(2)
	x, tmp := t[0], t[1]
	// Wires below next are set: the inputs, then each op's outputs in
	// order. A secret declared after an internal wire leaves a gap.
	next := Variable(1 + s.NumPublic + s.NumSecret)
	for _, o := range s.ops {
		z := w[o.out]
		EvalLCTo(f, x, tmp, o.x, w)
		switch o.code {
		case opMul:
			f.Mul(z, x, EvalLCTo(f, z, tmp, o.y, w))
		case opInv:
			if f.IsZero(x) {
				return nil, fmt.Errorf("r1cs: inverse of zero wire")
			}
			f.InverseTo(z, x)
		case opIsZero:
			f.InverseTo(z, x) // 0 for x = 0
			bit(w[o.out+1], f.IsZero(x))
		case opBits:
			clear(tmp)
			tmp[0] = 1
			f.Mul(x, x, tmp) // out of Montgomery form: x's canonical limbs
			for i := range o.n {
				bit(w[int(o.out)+i], i < 64*len(x) && x[i/64]>>(i%64)&1 == 1)
			}
		}
		if o.out <= next {
			next = max(next, o.out+Variable(o.n))
		}
	}
	if int(next) < s.NumVars {
		return nil, fmt.Errorf("r1cs: wire %d left unassigned", next)
	}
	return w, nil
}

// IsSatisfied checks every constraint against a witness.
func (s *System) IsSatisfied(w []ff.Element) error {
	if len(w) != s.NumVars {
		return fmt.Errorf("r1cs: witness length %d != %d wires", len(w), s.NumVars)
	}
	f := s.F
	t := f.NewVector(4)
	a, bb, cc, lhs := t[0], t[1], t[2], t[3]
	for i, c := range s.Constraints {
		EvalLCTo(f, a, lhs, c.A, w)
		EvalLCTo(f, bb, lhs, c.B, w)
		EvalLCTo(f, cc, lhs, c.C, w)
		if !f.Equal(f.Mul(lhs, a, bb), cc) {
			return fmt.Errorf("r1cs: constraint %d unsatisfied: %s·%s != %s",
				i, f.String(a), f.String(bb), f.String(cc))
		}
	}
	return nil
}

// PublicWitness extracts the public section (1, publics...) of a witness.
func (s *System) PublicWitness(w []ff.Element) []ff.Element {
	out := make([]ff.Element, s.NumPublic+1)
	for i := range out {
		out[i] = s.F.Copy(w[i])
	}
	return out
}
