// Package ltl defines linear temporal logic formulas over expr atoms,
// together with negation normal form and the bounded (lasso) semantics
// encoding used by the SAT- and SMT-based bounded model checkers.
//
// Safety properties like the paper's G(converged -> available >= m)
// and liveness properties like F(G(stable)) and
// stable -> F(G(stable)) are all expressible here.
package ltl

import (
	"fmt"

	"verdict/internal/expr"
)

// Kind enumerates formula constructors.
type Kind int

// Formula kinds.
const (
	KindAtom Kind = iota // boolean expression over system variables
	KindNot
	KindAnd
	KindOr
	KindX // next
	KindF // eventually
	KindG // always
	KindU // until
	KindR // release (dual of until)
)

// Formula is an immutable LTL formula tree.
type Formula struct {
	Kind Kind
	Atom *expr.Expr // KindAtom
	L, R *Formula   // operands (unary ops use L)
}

// Atom wraps a boolean expression as a formula. The expression must
// not reference next-state variables.
func Atom(e *expr.Expr) *Formula {
	if e.Type().Kind != expr.KindBool {
		panic(fmt.Sprintf("ltl: atom of type %s, want bool", e.Type()))
	}
	if expr.HasNext(e) {
		panic("ltl: atom mentions next(); use X instead")
	}
	return &Formula{Kind: KindAtom, Atom: e}
}

// True is the constant-true formula.
func True() *Formula { return Atom(expr.True()) }

// Not negates f.
func Not(f *Formula) *Formula { return &Formula{Kind: KindNot, L: f} }

// And conjoins formulas.
func And(fs ...*Formula) *Formula { return fold(KindAnd, fs) }

// Or disjoins formulas.
func Or(fs ...*Formula) *Formula { return fold(KindOr, fs) }

func fold(k Kind, fs []*Formula) *Formula {
	switch len(fs) {
	case 0:
		if k == KindAnd {
			return True()
		}
		return Not(True())
	case 1:
		return fs[0]
	}
	acc := fs[0]
	for _, f := range fs[1:] {
		acc = &Formula{Kind: k, L: acc, R: f}
	}
	return acc
}

// Implies returns a -> b as ¬a ∨ b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// X returns "next f".
func X(f *Formula) *Formula { return &Formula{Kind: KindX, L: f} }

// F returns "eventually f".
func F(f *Formula) *Formula { return &Formula{Kind: KindF, L: f} }

// G returns "always f".
func G(f *Formula) *Formula { return &Formula{Kind: KindG, L: f} }

// U returns "f until g" (strong until: g must eventually hold).
func U(f, g *Formula) *Formula { return &Formula{Kind: KindU, L: f, R: g} }

// R returns "f release g": g holds up to and including the first
// position where f holds; if f never holds, g holds forever.
func R(f, g *Formula) *Formula { return &Formula{Kind: KindR, L: f, R: g} }

// FWithin returns "f holds within d steps": f ∨ X f ∨ ... ∨ X^d f.
// With one transition per time unit this expresses the paper's §5
// real-time properties ("the system should converge within 5s") in
// plain LTL, checkable by every engine.
func FWithin(d int, f *Formula) *Formula {
	if d < 0 {
		panic("ltl: FWithin with negative bound")
	}
	out := f
	for i := 0; i < d; i++ {
		out = Or(f, X(out))
	}
	return out
}

// GWithin returns "f holds for the next d steps (inclusive of now)":
// f ∧ X f ∧ ... ∧ X^d f.
func GWithin(d int, f *Formula) *Formula {
	if d < 0 {
		panic("ltl: GWithin with negative bound")
	}
	out := f
	for i := 0; i < d; i++ {
		out = And(f, X(out))
	}
	return out
}

func (f *Formula) String() string {
	switch f.Kind {
	case KindAtom:
		return "(" + f.Atom.String() + ")"
	case KindNot:
		return "!" + f.L.String()
	case KindAnd:
		return "(" + f.L.String() + " & " + f.R.String() + ")"
	case KindOr:
		return "(" + f.L.String() + " | " + f.R.String() + ")"
	case KindX:
		return "X " + f.L.String()
	case KindF:
		return "F " + f.L.String()
	case KindG:
		return "G " + f.L.String()
	case KindU:
		return "(" + f.L.String() + " U " + f.R.String() + ")"
	case KindR:
		return "(" + f.L.String() + " R " + f.R.String() + ")"
	}
	return "?"
}

// NNF pushes negations down to atoms, eliminating F and G in favor of
// U and R: F f = true U f, G f = false R f.
func (f *Formula) NNF() *Formula { return nnf(f, false) }

func nnf(f *Formula, neg bool) *Formula {
	switch f.Kind {
	case KindAtom:
		if neg {
			return Atom(expr.Not(f.Atom))
		}
		return f
	case KindNot:
		return nnf(f.L, !neg)
	case KindAnd:
		k := KindAnd
		if neg {
			k = KindOr
		}
		return &Formula{Kind: k, L: nnf(f.L, neg), R: nnf(f.R, neg)}
	case KindOr:
		k := KindOr
		if neg {
			k = KindAnd
		}
		return &Formula{Kind: k, L: nnf(f.L, neg), R: nnf(f.R, neg)}
	case KindX:
		return &Formula{Kind: KindX, L: nnf(f.L, neg)}
	case KindF: // F f = true U f; ¬F f = false R ¬f
		if neg {
			return &Formula{Kind: KindR, L: nnf(falseF(), false), R: nnf(f.L, true)}
		}
		return &Formula{Kind: KindU, L: True(), R: nnf(f.L, false)}
	case KindG: // G f = false R f; ¬G f = true U ¬f
		if neg {
			return &Formula{Kind: KindU, L: True(), R: nnf(f.L, true)}
		}
		return &Formula{Kind: KindR, L: falseF(), R: nnf(f.L, false)}
	case KindU:
		if neg {
			return &Formula{Kind: KindR, L: nnf(f.L, true), R: nnf(f.R, true)}
		}
		return &Formula{Kind: KindU, L: nnf(f.L, false), R: nnf(f.R, false)}
	case KindR:
		if neg {
			return &Formula{Kind: KindU, L: nnf(f.L, true), R: nnf(f.R, true)}
		}
		return &Formula{Kind: KindR, L: nnf(f.L, false), R: nnf(f.R, false)}
	}
	panic("ltl: bad kind")
}

func falseF() *Formula { return Atom(expr.False()) }

// Subformulas returns every distinct subformula of f (post-order,
// structural identity).
func Subformulas(f *Formula) []*Formula {
	var out []*Formula
	seen := make(map[*Formula]bool)
	var rec func(*Formula)
	rec = func(g *Formula) {
		if g == nil || seen[g] {
			return
		}
		seen[g] = true
		rec(g.L)
		rec(g.R)
		out = append(out, g)
	}
	rec(f)
	return out
}

// Atoms returns the distinct atom expressions of f.
func Atoms(f *Formula) []*expr.Expr {
	var out []*expr.Expr
	seen := make(map[*expr.Expr]bool)
	for _, g := range Subformulas(f) {
		if g.Kind == KindAtom && !seen[g.Atom] {
			seen[g.Atom] = true
			out = append(out, g.Atom)
		}
	}
	return out
}

// IsSafetyInvariant reports whether f has the shape G(p) for a pure
// state predicate p, returning p. The BMC and k-induction safety
// engines fast-path this form.
func IsSafetyInvariant(f *Formula) (*expr.Expr, bool) {
	if f.Kind != KindG {
		return nil, false
	}
	if p, ok := pureState(f.L); ok {
		return p, true
	}
	return nil, false
}

// Counterexample returns the formula a counterexample to phi satisfies
// on a system with the given FAIRNESS constraints: ¬phi in NNF and,
// unless phi is an invariant G(p), G F f for every constraint f, since
// only a path that meets each constraint infinitely often counts. An
// invariant is a property of the reachable states, fair or not. On a
// finite prefix G F f never holds, so every counterexample to a
// property under fairness is a lasso.
func Counterexample(phi *Formula, fairness []*expr.Expr) *Formula {
	neg := Not(phi).NNF()
	if _, inv := IsSafetyInvariant(phi); !inv {
		for _, f := range fairness {
			neg = And(neg, G(F(Atom(f))))
		}
	}
	return neg
}

func pureState(f *Formula) (*expr.Expr, bool) {
	switch f.Kind {
	case KindAtom:
		return f.Atom, true
	case KindNot:
		if p, ok := pureState(f.L); ok {
			return expr.Not(p), true
		}
	case KindAnd:
		if p, ok := pureState(f.L); ok {
			if q, ok := pureState(f.R); ok {
				return expr.And(p, q), true
			}
		}
	case KindOr:
		if p, ok := pureState(f.L); ok {
			if q, ok := pureState(f.R); ok {
				return expr.Or(p, q), true
			}
		}
	}
	return nil, false
}
