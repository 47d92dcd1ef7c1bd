package smt

import (
	"math/big"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/sat"
)

func rat(n, d int64) *big.Rat { return big.NewRat(n, d) }

func TestDeltaOrdering(t *testing.T) {
	a := DRat(rat(1, 1))
	b := DStrictAbove(rat(1, 1)) // 1 + δ
	c := DStrictBelow(rat(1, 1)) // 1 - δ
	if !(c.Cmp(a) < 0 && a.Cmp(b) < 0) {
		t.Fatalf("ordering broken: %v %v %v", c, a, b)
	}
	if a.Add(b).Cmp(Delta{R: rat(2, 1), D: rat(1, 1)}) != 0 {
		t.Error("Add wrong")
	}
	if b.Sub(c).Cmp(Delta{R: rat(0, 1), D: rat(2, 1)}) != 0 {
		t.Error("Sub wrong")
	}
	if b.Scale(rat(-2, 1)).Cmp(Delta{R: rat(-2, 1), D: rat(-2, 1)}) != 0 {
		t.Error("Scale wrong")
	}
}

func TestSimplexFeasible(t *testing.T) {
	// x + y <= 10, x >= 3, y >= 4: feasible.
	s := NewSimplex()
	x, y := s.NewVar(), s.NewVar()
	sum := s.DefineSlack(map[int]*big.Rat{x: rat(1, 1), y: rat(1, 1)})
	if c := s.AssertUpper(sum, DRat(rat(10, 1)), 0); c != nil {
		t.Fatalf("assert upper: conflict %v", c)
	}
	if c := s.AssertLower(x, DRat(rat(3, 1)), 1); c != nil {
		t.Fatalf("assert lower x: conflict %v", c)
	}
	if c := s.AssertLower(y, DRat(rat(4, 1)), 2); c != nil {
		t.Fatalf("assert lower y: conflict %v", c)
	}
	if c := s.Check(); c != nil {
		t.Fatalf("Check: conflict %v", c)
	}
	m := s.Model()
	sumV := new(big.Rat).Add(m[x], m[y])
	if sumV.Cmp(rat(10, 1)) > 0 || m[x].Cmp(rat(3, 1)) < 0 || m[y].Cmp(rat(4, 1)) < 0 {
		t.Errorf("model violates constraints: x=%v y=%v", m[x], m[y])
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x + y <= 5, x >= 3, y >= 4: infeasible.
	s := NewSimplex()
	x, y := s.NewVar(), s.NewVar()
	sum := s.DefineSlack(map[int]*big.Rat{x: rat(1, 1), y: rat(1, 1)})
	s.AssertUpper(sum, DRat(rat(5, 1)), 10)
	s.AssertLower(x, DRat(rat(3, 1)), 11)
	s.AssertLower(y, DRat(rat(4, 1)), 12)
	confl := s.Check()
	if confl == nil {
		t.Fatal("expected conflict")
	}
	// Conflict must mention all three constraints (they are all needed).
	seen := map[int]bool{}
	for _, tag := range confl {
		seen[tag] = true
	}
	if !seen[10] || !seen[11] || !seen[12] {
		t.Errorf("conflict %v should involve tags 10,11,12", confl)
	}
}

func TestSimplexStrictBounds(t *testing.T) {
	// x < 1 and x > 0: feasible with a concrete model strictly inside.
	s := NewSimplex()
	x := s.NewVar()
	s.AssertUpper(x, DStrictBelow(rat(1, 1)), 0)
	s.AssertLower(x, DStrictAbove(rat(0, 1)), 1)
	if c := s.Check(); c != nil {
		t.Fatalf("Check: %v", c)
	}
	m := s.Model()
	if m[x].Cmp(rat(0, 1)) <= 0 || m[x].Cmp(rat(1, 1)) >= 0 {
		t.Errorf("model x=%v not strictly inside (0,1)", m[x])
	}
	// x < 1 and x > 1: infeasible.
	s2 := NewSimplex()
	y := s2.NewVar()
	if c := s2.AssertUpper(y, DStrictBelow(rat(1, 1)), 0); c != nil {
		t.Fatalf("unexpected conflict: %v", c)
	}
	if c := s2.AssertLower(y, DStrictAbove(rat(1, 1)), 1); c == nil {
		if c = s2.Check(); c == nil {
			t.Fatal("x<1 & x>1 should conflict")
		}
	}
}

func TestSimplexStrictVsEqualBoundary(t *testing.T) {
	// x <= 1 and x >= 1 feasible (x=1); x < 1 and x >= 1 infeasible.
	s := NewSimplex()
	x := s.NewVar()
	s.AssertUpper(x, DRat(rat(1, 1)), 0)
	s.AssertLower(x, DRat(rat(1, 1)), 1)
	if c := s.Check(); c != nil {
		t.Fatalf("x=1: %v", c)
	}
	if s.Model()[x].Cmp(rat(1, 1)) != 0 {
		t.Errorf("x = %v, want 1", s.Model()[x])
	}

	s2 := NewSimplex()
	y := s2.NewVar()
	c := s2.AssertUpper(y, DStrictBelow(rat(1, 1)), 0)
	if c == nil {
		c = s2.AssertLower(y, DRat(rat(1, 1)), 1)
	}
	if c == nil {
		c = s2.Check()
	}
	if c == nil {
		t.Fatal("x<1 & x>=1 should conflict")
	}
}

func TestSimplexChainedEqualities(t *testing.T) {
	// a = b, b = c, a >= 5, c <= 4: infeasible.
	s := NewSimplex()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	ab := s.DefineSlack(map[int]*big.Rat{a: rat(1, 1), b: rat(-1, 1)})
	bc := s.DefineSlack(map[int]*big.Rat{b: rat(1, 1), c: rat(-1, 1)})
	s.AssertUpper(ab, DZero(), 0)
	s.AssertLower(ab, DZero(), 1)
	s.AssertUpper(bc, DZero(), 2)
	s.AssertLower(bc, DZero(), 3)
	s.AssertLower(a, DRat(rat(5, 1)), 4)
	s.AssertUpper(c, DRat(rat(4, 1)), 5)
	if s.Check() == nil {
		t.Fatal("transitive equality chain should be infeasible")
	}
}

// --- Context tests ---

func mkRealParam(name string) *expr.Var {
	return &expr.Var{Name: name, T: expr.Real(), Param: true}
}

func TestContextFeasible(t *testing.T) {
	c := NewContext()
	x := mkRealParam("x")
	y := mkRealParam("y")
	// x > 0 & y > x & x + y < 10
	c.Assert(expr.Gt(x.Ref(), expr.RealFrac(0, 1)), nil, nil)
	c.Assert(expr.Gt(y.Ref(), x.Ref()), nil, nil)
	c.Assert(expr.Lt(expr.Add(x.Ref(), y.Ref()), expr.RealFrac(10, 1)), nil, nil)
	if got := c.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	xv, yv := c.RealValue(x, nil), c.RealValue(y, nil)
	if xv.Sign() <= 0 || yv.Cmp(xv) <= 0 || new(big.Rat).Add(xv, yv).Cmp(rat(10, 1)) >= 0 {
		t.Errorf("model x=%v y=%v violates constraints", xv, yv)
	}
}

func TestContextInfeasible(t *testing.T) {
	c := NewContext()
	x := mkRealParam("x")
	c.Assert(expr.Gt(x.Ref(), expr.RealFrac(5, 1)), nil, nil)
	c.Assert(expr.Lt(x.Ref(), expr.RealFrac(3, 1)), nil, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestContextBooleanTheoryInterplay(t *testing.T) {
	// b -> x > 5; !b -> x < 1; x = 3  ==> unsat regardless of b.
	c := NewContext()
	x := mkRealParam("x")
	b := &expr.Var{Name: "b", T: expr.Bool()}
	f := c.Enc.NewFrame([]*expr.Var{b})
	c.Assert(expr.Implies(b.Ref(), expr.Gt(x.Ref(), expr.RealFrac(5, 1))), f, nil)
	c.Assert(expr.Implies(expr.Not(b.Ref()), expr.Lt(x.Ref(), expr.RealFrac(1, 1))), f, nil)
	c.Assert(expr.Eq(x.Ref(), expr.RealFrac(3, 1)), nil, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
	if c.TheoryConflicts == 0 {
		t.Error("expected at least one theory conflict")
	}
}

func TestContextDisequality(t *testing.T) {
	// x != 2 & x >= 2 & x <= 2: unsat.
	c := NewContext()
	x := mkRealParam("x")
	c.Assert(expr.Ne(x.Ref(), expr.RealFrac(2, 1)), nil, nil)
	c.Assert(expr.Ge(x.Ref(), expr.RealFrac(2, 1)), nil, nil)
	c.Assert(expr.Le(x.Ref(), expr.RealFrac(2, 1)), nil, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
	// x != 2 & x >= 2: sat with x > 2.
	c2 := NewContext()
	y := mkRealParam("y")
	c2.Assert(expr.Ne(y.Ref(), expr.RealFrac(2, 1)), nil, nil)
	c2.Assert(expr.Ge(y.Ref(), expr.RealFrac(2, 1)), nil, nil)
	if got := c2.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if c2.RealValue(y, nil).Cmp(rat(2, 1)) <= 0 {
		t.Errorf("y = %v, want > 2", c2.RealValue(y, nil))
	}
}

func TestContextIte(t *testing.T) {
	// y = ite(b, x+1, x-1); y = x+1 & !b  ==> unsat... we encode:
	// b=false and require ite(b,x+1,x-1) > x: impossible (x-1 > x).
	c := NewContext()
	x := mkRealParam("x")
	b := &expr.Var{Name: "b", T: expr.Bool()}
	f := c.Enc.NewFrame([]*expr.Var{b})
	ite := expr.Ite(b.Ref(), expr.Add(x.Ref(), expr.RealFrac(1, 1)), expr.Sub(x.Ref(), expr.RealFrac(1, 1)))
	c.Assert(expr.Not(b.Ref()), f, nil)
	c.Assert(expr.Gt(ite, x.Ref()), f, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
	// With b free it is satisfiable (b must become true).
	c2 := NewContext()
	x2 := mkRealParam("x")
	b2 := &expr.Var{Name: "b", T: expr.Bool()}
	f2 := c2.Enc.NewFrame([]*expr.Var{b2})
	ite2 := expr.Ite(b2.Ref(), expr.Add(x2.Ref(), expr.RealFrac(1, 1)), expr.Sub(x2.Ref(), expr.RealFrac(1, 1)))
	c2.Assert(expr.Gt(ite2, x2.Ref()), f2, nil)
	if got := c2.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if c2.Enc.Model(f2, b2).B != true {
		t.Error("b must be true in any model")
	}
}

func TestContextLinearCombination(t *testing.T) {
	// 2x + 3y <= 12 & x >= 3 & y >= 2: exactly x=3,y=2 boundary ok.
	c := NewContext()
	x, y := mkRealParam("x"), mkRealParam("y")
	lhs := expr.Add(expr.Mul(expr.RealFrac(2, 1), x.Ref()), expr.Mul(expr.RealFrac(3, 1), y.Ref()))
	c.Assert(expr.Le(lhs, expr.RealFrac(12, 1)), nil, nil)
	c.Assert(expr.Ge(x.Ref(), expr.RealFrac(3, 1)), nil, nil)
	c.Assert(expr.Ge(y.Ref(), expr.RealFrac(2, 1)), nil, nil)
	if got := c.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	xv, yv := c.RealValue(x, nil), c.RealValue(y, nil)
	total := new(big.Rat).Add(new(big.Rat).Mul(rat(2, 1), xv), new(big.Rat).Mul(rat(3, 1), yv))
	if total.Cmp(rat(12, 1)) > 0 {
		t.Errorf("2x+3y = %v > 12", total)
	}
	// Tighten: y >= 3 makes it unsat (2*3 + 3*3 = 15 > 12).
	c.Assert(expr.Ge(y.Ref(), expr.RealFrac(3, 1)), nil, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("tightened Solve = %v, want unsat", got)
	}
}

func TestContextDivByConstant(t *testing.T) {
	c := NewContext()
	x := mkRealParam("x")
	c.Assert(expr.Eq(expr.Div(x.Ref(), expr.RealFrac(2, 1)), expr.RealFrac(3, 1)), nil, nil)
	if got := c.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v", got)
	}
	if c.RealValue(x, nil).Cmp(rat(6, 1)) != 0 {
		t.Errorf("x = %v, want 6", c.RealValue(x, nil))
	}
}

func TestContextNonlinearRejected(t *testing.T) {
	c := NewContext()
	x, y := mkRealParam("x"), mkRealParam("y")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nonlinear product")
		}
	}()
	c.Assert(expr.Gt(expr.Mul(x.Ref(), y.Ref()), expr.RealFrac(1, 1)), nil, nil)
}

func TestContextAtomDedup(t *testing.T) {
	c := NewContext()
	x := mkRealParam("x")
	l1 := c.Lit(expr.Le(x.Ref(), expr.RealFrac(5, 1)), nil, nil)
	// 2x <= 10 normalizes to the same atom.
	l2 := c.Lit(expr.Le(expr.Mul(expr.RealFrac(2, 1), x.Ref()), expr.RealFrac(10, 1)), nil, nil)
	if l1 != l2 {
		t.Errorf("equivalent atoms got distinct literals %v %v", l1, l2)
	}
	if c.NumAtoms() != 1 {
		t.Errorf("NumAtoms = %d, want 1", c.NumAtoms())
	}
}

func TestContextParamsSharedAcrossFrames(t *testing.T) {
	// The same parameter referenced with different frames must resolve
	// to one theory variable.
	c := NewContext()
	p := mkRealParam("p")
	b := &expr.Var{Name: "b", T: expr.Bool()}
	f1 := c.Enc.NewFrame([]*expr.Var{b})
	f2 := c.Enc.NewFrame([]*expr.Var{b})
	c.Assert(expr.Gt(p.Ref(), expr.RealFrac(3, 1)), f1, nil)
	c.Assert(expr.Lt(p.Ref(), expr.RealFrac(2, 1)), f2, nil)
	if got := c.Solve(); got != sat.Unsat {
		t.Fatalf("Solve = %v, want unsat (param must be frame-independent)", got)
	}
}
