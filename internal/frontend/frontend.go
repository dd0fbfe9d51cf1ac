// Package frontend is a miniature circuit-description language in the role
// xJsnark plays for the paper's workloads (§5.1): a high-level statement of
// the computation compiled down to the R1CS the Groth16 backend proves.
//
// The language is line-oriented:
//
//	public out            // declare inputs (publics first)
//	secret x
//	let y = x^3 + x + 5   // bind an expression to a name
//	assert y == out       // add an equality constraint
//	assert bits(x, 16)    // range-check: x < 2^16
//
// Expressions support +, -, *, /, ^<integer>, parentheses, decimal
// literals and previously bound names. Division asserts a nonzero divisor.
package frontend

import (
	"fmt"
	"math/big"
	"strings"
	"unicode"

	"gzkp/internal/ff"
	"gzkp/internal/r1cs"
)

// Program is a compiled circuit plus its input signature.
type Program struct {
	System *r1cs.System
	// PublicNames and SecretNames list declared inputs in order, matching
	// System.Solve's argument order.
	PublicNames []string
	SecretNames []string
}

// Compile parses and builds src over field f. A positive maxConstraints
// stops it at the statement whose constraints pass that many.
func Compile(f *ff.Field, src string, maxConstraints int) (*Program, error) {
	b := r1cs.NewBuilder(f)
	b.Limit(maxConstraints)
	env := map[string]r1cs.LC{}
	prog := &Program{}
	lines := strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' })
	for lineNo, raw := range lines {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("frontend: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "public", "secret":
			if len(fields) != 2 {
				return nil, fail("%s takes exactly one name", fields[0])
			}
			name := fields[1]
			if !validIdent(name) {
				return nil, fail("invalid identifier %q", name)
			}
			if _, dup := env[name]; dup {
				return nil, fail("duplicate name %q", name)
			}
			if fields[0] == "public" {
				lc, err := b.Public(name)
				if err != nil {
					return nil, fail("%v", err)
				}
				env[name] = lc
				prog.PublicNames = append(prog.PublicNames, name)
			} else {
				env[name] = b.Secret(name)
				prog.SecretNames = append(prog.SecretNames, name)
			}
		case "let":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "let"))
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return nil, fail("let needs '='")
			}
			name := strings.TrimSpace(rest[:eq])
			if !validIdent(name) {
				return nil, fail("invalid identifier %q", name)
			}
			if _, dup := env[name]; dup {
				return nil, fail("duplicate name %q", name)
			}
			lc, err := parseExpr(b, env, rest[eq+1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			env[name] = lc
		case "assert":
			rest := strings.TrimSpace(strings.TrimPrefix(line, "assert"))
			if strings.HasPrefix(rest, "bits(") && strings.HasSuffix(rest, ")") {
				inner := rest[len("bits(") : len(rest)-1]
				parts := strings.Split(inner, ",")
				if len(parts) != 2 {
					return nil, fail("bits(expr, n) takes two arguments")
				}
				lc, err := parseExpr(b, env, parts[0])
				if err != nil {
					return nil, fail("%v", err)
				}
				var n int
				if _, err := fmt.Sscanf(strings.TrimSpace(parts[1]), "%d", &n); err != nil || n < 1 || n > f.Bits()-2 {
					return nil, fail("bad bit width %q", parts[1])
				}
				b.ToBits(lc, n)
				break // out of the switch, to the bound check
			}
			eq := strings.Index(rest, "==")
			if eq < 0 {
				return nil, fail("assert needs '==' or bits(...)")
			}
			lhs, err := parseExpr(b, env, rest[:eq])
			if err != nil {
				return nil, fail("%v", err)
			}
			rhs, err := parseExpr(b, env, rest[eq+2:])
			if err != nil {
				return nil, fail("%v", err)
			}
			b.AssertEqual(lhs, rhs)
		default:
			return nil, fail("unknown statement %q", fields[0])
		}
		if err := b.Err(); err != nil {
			return nil, fail("%v", err)
		}
	}
	prog.System = b.Build()
	if len(prog.System.Constraints) == 0 {
		return nil, fmt.Errorf("frontend: program produced no constraints")
	}
	return prog, nil
}

func validIdent(s string) bool {
	if s == "" || s == "bits" || s == "let" || s == "assert" || s == "public" || s == "secret" {
		return false
	}
	for i, r := range s {
		if r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r)) {
			continue
		}
		return false
	}
	return true
}

// ---- Recursive-descent expression parser over LCs ----

type parser struct {
	b    *r1cs.Builder
	env  map[string]r1cs.LC
	toks []string
	pos  int
}

func parseExpr(b *r1cs.Builder, env map[string]r1cs.LC, src string) (r1cs.LC, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{b: b, env: env, toks: toks}
	lc, err := p.sum()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("unexpected %q", p.toks[p.pos])
	}
	return lc, nil
}

func tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	rs := []rune(src)
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case strings.ContainsRune("+-*/^()", r):
			toks = append(toks, string(r))
			i++
		case unicode.IsDigit(r):
			j := i
			for j < len(rs) && unicode.IsDigit(rs[j]) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		case r == '_' || unicode.IsLetter(r):
			j := i
			for j < len(rs) && (rs[j] == '_' || unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j])) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", string(r))
		}
	}
	return toks, nil
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

// sum := product (('+'|'-') product)*
//
// The terms are merged pairwise in a balanced tree of Adds, O(k log k) for
// k names: a left fold would copy the running LC at every '+', O(k²).
func (p *parser) sum() (r1cs.LC, error) {
	lc, err := p.product()
	if err != nil {
		return nil, err
	}
	terms := []r1cs.LC{lc}
	for op := p.peek(); op == "+" || op == "-"; op = p.peek() {
		p.pos++
		r, err := p.product()
		if err != nil {
			return nil, err
		}
		if op == "-" {
			r = p.b.Sub(nil, r)
		}
		terms = append(terms, r)
	}
	for len(terms) > 1 {
		merged := terms[:0] // entry i/2 is written after entries i and i+1 are read
		for i := 0; i < len(terms); i += 2 {
			if i+1 == len(terms) {
				merged = append(merged, terms[i])
			} else {
				merged = append(merged, p.b.Add(terms[i], terms[i+1]))
			}
		}
		terms = merged
	}
	return terms[0], nil
}

// product := power (('*'|'/') power)*
func (p *parser) product() (r1cs.LC, error) {
	lc, err := p.power()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case "*":
			p.pos++
			r, err := p.power()
			if err != nil {
				return nil, err
			}
			lc = p.b.Mul(lc, r)
		case "/":
			p.pos++
			r, err := p.power()
			if err != nil {
				return nil, err
			}
			lc = p.b.Div(lc, r)
		default:
			return lc, nil
		}
	}
}

// power := atom ('^' integer)?   — constant exponent by square-and-multiply.
func (p *parser) power() (r1cs.LC, error) {
	lc, err := p.atom()
	if err != nil {
		return nil, err
	}
	if p.peek() != "^" {
		return lc, nil
	}
	p.pos++
	expTok := p.peek()
	exp, ok := new(big.Int).SetString(expTok, 10)
	if !ok || exp.Sign() <= 0 || exp.BitLen() > 16 {
		return nil, fmt.Errorf("exponent must be a positive integer, got %q", expTok)
	}
	p.pos++
	acc := p.b.One()
	base := lc
	for i := exp.BitLen() - 1; i >= 0; i-- {
		acc = p.b.Mul(acc, acc)
		if exp.Bit(i) == 1 {
			acc = p.b.Mul(acc, base)
		}
	}
	return acc, nil
}

// atom := '(' sum ')' | '-' atom | integer | identifier
func (p *parser) atom() (r1cs.LC, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return nil, fmt.Errorf("unexpected end of expression")
	case tok == "(":
		p.pos++
		lc, err := p.sum()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("missing ')'")
		}
		p.pos++
		return lc, nil
	case tok == "-":
		p.pos++
		lc, err := p.atom()
		if err != nil {
			return nil, err
		}
		return p.b.Sub(r1cs.LC{}, lc), nil
	case unicode.IsDigit(rune(tok[0])):
		v, ok := new(big.Int).SetString(tok, 10)
		if !ok {
			return nil, fmt.Errorf("bad literal %q", tok)
		}
		p.pos++
		return p.b.Constant(p.b.Field().FromBig(v)), nil
	default:
		p.pos++
		lc, ok := p.env[tok]
		if !ok {
			return nil, fmt.Errorf("undefined name %q", tok)
		}
		return lc, nil
	}
}
