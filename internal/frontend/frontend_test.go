package frontend

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gzkp/internal/curve"
	"gzkp/internal/ff"
	"gzkp/internal/groth16"
)

func field(t testing.TB) *ff.Field { return curve.Get(curve.BN254).Fr }

func solve(t *testing.T, p *Program, public, secret []uint64) []ff.Element {
	t.Helper()
	f := p.System.F
	pub := make([]ff.Element, len(public))
	for i, v := range public {
		pub[i] = f.FromUint64(v)
	}
	sec := make([]ff.Element, len(secret))
	for i, v := range secret {
		sec[i] = f.FromUint64(v)
	}
	w, err := p.System.Solve(pub, sec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCubicProgram(t *testing.T) {
	p, err := Compile(field(t), `
		public out
		secret x
		let y = x^3 + x + 5
		assert y == out
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PublicNames) != 1 || p.PublicNames[0] != "out" {
		t.Fatalf("publics: %v", p.PublicNames)
	}
	if len(p.SecretNames) != 1 || p.SecretNames[0] != "x" {
		t.Fatalf("secrets: %v", p.SecretNames)
	}
	w := solve(t, p, []uint64{35}, []uint64{3})
	if err := p.System.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Wrong witness fails.
	w2 := solve(t, p, []uint64{35}, []uint64{4})
	if err := p.System.IsSatisfied(w2); err == nil {
		t.Fatal("wrong witness satisfied")
	}
}

func TestOperatorsAndPrecedence(t *testing.T) {
	// 2 + 3*4 - 6/2 = 11; (2+3)*4 = 20; -x + x = 0.
	p, err := Compile(field(t), `
		secret x
		assert 2 + 3*4 - 6/2 == 11
		assert (2+3)*4 == 20
		assert -x + x == 0
		assert x*x == x^2
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := solve(t, p, nil, []uint64{7})
	if err := p.System.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
}

func TestBitsRangeCheck(t *testing.T) {
	p, err := Compile(field(t), `
		secret x
		assert bits(x, 8)
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok := solve(t, p, nil, []uint64{200})
	if err := p.System.IsSatisfied(ok); err != nil {
		t.Fatal(err)
	}
	bad := solve(t, p, nil, []uint64{300})
	if err := p.System.IsSatisfied(bad); err == nil {
		t.Fatal("out-of-range value passed bits()")
	}
}

func TestDivisionSemantics(t *testing.T) {
	p, err := Compile(field(t), `
		secret a
		secret b
		let q = a / b
		assert q * b == a
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := solve(t, p, nil, []uint64{84, 12})
	if err := p.System.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
	// Division by zero must fail at solve time.
	f := p.System.F
	if _, err := p.System.Solve(nil, []ff.Element{f.FromUint64(84), f.Zero()}); err == nil {
		t.Fatal("division by zero solved")
	}
}

func TestCompileErrors(t *testing.T) {
	f := field(t)
	bad := []string{
		"",                                     // no constraints
		"secret x",                             // no constraints
		"bogus x",                              // unknown statement
		"public out\npublic out",               // duplicate
		"secret x\npublic late\nassert x == x", // public after secret
		"assert x == 1",                        // undefined name
		"secret x\nlet y = x +",                // dangling operator
		"secret x\nlet y = (x",                 // missing paren
		"secret x\nassert x ^ x == 1",          // non-constant exponent
		"secret x\nassert bits(x)",             // bad bits arity
		"secret x\nlet 9y = x\nassert x==x",    // bad identifier
		"secret x\nassert x = 1",               // single '='
		"secret x\nlet y = x $ 1",              // bad character
	}
	for _, src := range bad {
		if _, err := Compile(f, src, 0); err == nil {
			t.Errorf("compiled invalid program %q", src)
		}
	}
}

func TestFrontendToGroth16(t *testing.T) {
	// Full path: language → R1CS → setup → prove → verify.
	c := curve.Get(curve.BN254)
	p, err := Compile(c.Fr, `
		public out
		secret x
		secret salt
		assert bits(salt, 16)
		let commitment = (x + salt)^2 + x
		assert commitment == out
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Fr
	x, salt := uint64(123), uint64(4567)
	outVal := (x+salt)*(x+salt) + x
	w, err := p.System.Solve(
		[]ff.Element{f.FromUint64(outVal)},
		[]ff.Element{f.FromUint64(x), f.FromUint64(salt)})
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := groth16.Setup(p.System, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := groth16.Prove(pk, p.System, w, groth16.ProveConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := groth16.Verify(vk, proof, []ff.Element{f.FromUint64(outVal)}); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	p, err := Compile(field(t), "secret x; let y = x*x // square\n assert y == x^2", 0)
	if err != nil {
		t.Fatal(err)
	}
	w := solve(t, p, nil, []uint64{9})
	if err := p.System.IsSatisfied(w); err != nil {
		t.Fatal(err)
	}
}

// TestCompileScalesLinearly: the builder's LC algebra is a sorted merge,
// so a source of L range checks of a 252-bit value (≈ 253·L constraints)
// compiles in time linear in L. With Add rescanning every wire it was
// quadratic, and this L ran past a 90 s timeout on a 2-core VM.
func TestCompileScalesLinearly(t *testing.T) {
	const lines = 400
	src := "secret x\n" + strings.Repeat("assert bits(x, 252)\n", lines)
	start := time.Now()
	p, err := Compile(field(t), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	t.Logf("%d lines, %d constraints: %v", lines, len(p.System.Constraints), took)
	if got := len(p.System.Constraints); got != lines*253 {
		t.Fatalf("%d constraints, want %d", got, lines*253)
	}
	if took > 20*time.Second {
		t.Fatalf("compiling %d lines took %v", lines, took)
	}
}

// TestCompileSumScales: one sum of k distinct names compiles in O(k log k).
// Folded left through Add, the running LC was copied at every '+': 986 ms
// at k = 4,000 and ≈ 16× that at k = 16,000 on a 2-core VM.
func TestCompileSumScales(t *testing.T) {
	for _, k := range []int{4000, 16000} {
		var src strings.Builder
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("x%d", i)
			fmt.Fprintf(&src, "secret %s\n", names[i])
		}
		fmt.Fprintf(&src, "assert %s == 0\n", strings.Join(names, " + "))
		start := time.Now()
		p, err := Compile(field(t), src.String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		t.Logf("k = %d (%d B of source): %v", k, src.Len(), took)
		if got := len(p.System.Constraints[0].A); got != k {
			t.Fatalf("k = %d: the sum has %d terms", k, got)
		}
		if took > 2*time.Second {
			t.Fatalf("k = %d: compiling one sum took %v", k, took)
		}
	}
}
