package cnf

import (
	"math/rand"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/sat"
)

// testVars builds a small heterogeneous variable set for exhaustive
// cross-checking.
func testVars() []*expr.Var {
	return []*expr.Var{
		{Name: "b1", T: expr.Bool(), ID: 0},
		{Name: "b2", T: expr.Bool(), ID: 1},
		{Name: "i1", T: expr.Int(0, 3), ID: 2},
		{Name: "i2", T: expr.Int(-2, 2), ID: 3},
		{Name: "e1", T: expr.Enum("red", "green", "blue"), ID: 4},
	}
}

// assignments enumerates every full assignment of vars.
func assignments(vars []*expr.Var) []expr.MapEnv {
	envs := []expr.MapEnv{{}}
	for _, v := range vars {
		var vals []expr.Value
		switch v.T.Kind {
		case expr.KindBool:
			vals = []expr.Value{expr.BoolValue(false), expr.BoolValue(true)}
		case expr.KindInt:
			for i := v.T.Lo; i <= v.T.Hi; i++ {
				vals = append(vals, expr.IntValue(i))
			}
		case expr.KindEnum:
			for _, s := range v.T.Values {
				vals = append(vals, expr.EnumValue(s))
			}
		}
		var next []expr.MapEnv
		for _, env := range envs {
			for _, val := range vals {
				e2 := expr.MapEnv{}
				for k, x := range env {
					e2[k] = x
				}
				e2[v] = val
				next = append(next, e2)
			}
		}
		envs = next
	}
	return envs
}

// forceLits returns assumption literals pinning frame f to env.
func forceLits(t *testing.T, e *Encoder, f *Frame, vars []*expr.Var, env expr.MapEnv) []sat.Lit {
	t.Helper()
	var out []sat.Lit
	for _, v := range vars {
		val := env[v]
		var eq *expr.Expr
		switch val.Kind {
		case expr.KindBool:
			eq = expr.Iff(v.Ref(), expr.BoolConst(val.B))
		case expr.KindInt:
			eq = expr.Eq(v.Ref(), expr.IntConst(val.I))
		case expr.KindEnum:
			eq = expr.Eq(v.Ref(), expr.EnumConst(v.T, val.Sym))
		}
		out = append(out, e.Lit(eq, f, nil))
	}
	return out
}

// checkAgainstEval verifies that the compiled literal for ex agrees
// with direct evaluation on every assignment.
func checkAgainstEval(t *testing.T, ex *expr.Expr, vars []*expr.Var) {
	t.Helper()
	s := sat.New()
	enc := NewEncoder(s)
	f := enc.NewFrame(vars)
	lit := enc.Lit(ex, f, nil)
	for _, env := range assignments(vars) {
		want, err := expr.EvalBool(ex, env, nil)
		if err != nil {
			t.Fatalf("eval %s: %v", ex, err)
		}
		asm := append(forceLits(t, enc, f, vars, env), lit)
		got := s.Solve(asm...)
		if want && got != sat.Sat {
			t.Fatalf("expr %s env %v: encoder says unsat, eval says true", ex, env)
		}
		if !want && got != sat.Unsat {
			t.Fatalf("expr %s env %v: encoder says sat, eval says false", ex, env)
		}
	}
}

func TestCompareEncodings(t *testing.T) {
	vars := testVars()
	i1, i2 := vars[2].Ref(), vars[3].Ref()
	b1, b2 := vars[0].Ref(), vars[1].Ref()
	e1 := vars[4]
	cases := []*expr.Expr{
		expr.Eq(i1, i2),
		expr.Ne(i1, i2),
		expr.Lt(i1, i2),
		expr.Le(i1, i2),
		expr.Gt(i1, i2),
		expr.Ge(i1, i2),
		expr.Eq(i1, expr.IntConst(2)),
		expr.Le(expr.Add(i1, i2), expr.IntConst(1)),
		expr.Ge(expr.Sub(i1, i2), expr.IntConst(0)),
		expr.Eq(expr.Neg(i2), i1),
		expr.Eq(expr.Mul(i1, expr.IntConst(2)), expr.Add(i2, expr.IntConst(3))),
		expr.Eq(expr.Mul(expr.IntConst(-3), i2), expr.IntConst(6)),
		expr.Lt(expr.Ite(b1, i1, i2), expr.IntConst(2)),
		expr.Eq(e1.Ref(), expr.EnumConst(e1.T, "green")),
		expr.Ne(e1.Ref(), expr.EnumConst(e1.T, "blue")),
		expr.Iff(b1, b2),
		expr.Implies(expr.And(b1, b2), expr.Ge(i1, expr.IntConst(1))),
		expr.Xor(b1, expr.Lt(i2, expr.IntConst(0))),
	}
	for _, c := range cases {
		checkAgainstEval(t, c, vars)
	}
}

func TestCountEncodings(t *testing.T) {
	vars := []*expr.Var{
		{Name: "x0", T: expr.Bool(), ID: 0},
		{Name: "x1", T: expr.Bool(), ID: 1},
		{Name: "x2", T: expr.Bool(), ID: 2},
		{Name: "x3", T: expr.Bool(), ID: 3},
	}
	refs := make([]*expr.Expr, len(vars))
	for i, v := range vars {
		refs[i] = v.Ref()
	}
	cnt := expr.Count(refs...)
	for k := int64(-1); k <= 5; k++ {
		cases := []*expr.Expr{
			expr.Le(cnt, expr.IntConst(k)),
			expr.Lt(cnt, expr.IntConst(k)),
			expr.Ge(cnt, expr.IntConst(k)),
			expr.Gt(cnt, expr.IntConst(k)),
			expr.Eq(cnt, expr.IntConst(k)),
			expr.Ne(cnt, expr.IntConst(k)),
			expr.Le(expr.IntConst(k), cnt), // mirrored
			expr.Gt(expr.IntConst(k), cnt),
		}
		for _, c := range cases {
			checkAgainstEval(t, c, vars)
		}
	}
}

// TestCountAdderTreeFallback covers the adder-tree sum that compiles
// every Count comparison the sequential counter does not take: a count
// compared with a variable rather than a constant.
func TestCountAdderTreeFallback(t *testing.T) {
	vars := []*expr.Var{
		{Name: "x0", T: expr.Bool(), ID: 0},
		{Name: "x1", T: expr.Bool(), ID: 1},
		{Name: "x2", T: expr.Bool(), ID: 2},
		{Name: "x3", T: expr.Bool(), ID: 3},
		{Name: "x4", T: expr.Bool(), ID: 4},
		{Name: "y", T: expr.Int(0, 5), ID: 5},
	}
	refs := make([]*expr.Expr, 5)
	for i := range refs {
		refs[i] = vars[i].Ref()
	}
	ex := expr.Le(expr.Count(refs...), vars[5].Ref())
	enc := NewEncoder(sat.New())
	i := enc.number(ex)
	if _, ok := enc.tryCardinality(ex, enc.args[enc.nodes[i].lo:enc.nodes[i].hi], enc.NewFrame(vars), nil); ok {
		t.Fatal("count <= y took the sequential counter; the test must reach the adder tree")
	}
	checkAgainstEval(t, ex, vars)
}

// TestRandomExprsAgainstEval fuzzes the compiler against the evaluator
// on randomly generated boolean expressions.
func TestRandomExprsAgainstEval(t *testing.T) {
	vars := testVars()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		ex := randBool(rng, vars, 3)
		checkAgainstEval(t, ex, vars)
	}
}

func randBool(rng *rand.Rand, vars []*expr.Var, depth int) *expr.Expr {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return vars[rng.Intn(2)].Ref() // b1/b2
		case 1:
			return expr.BoolConst(rng.Intn(2) == 0)
		default:
			ops := []func(a, b *expr.Expr) *expr.Expr{expr.Eq, expr.Ne, expr.Lt, expr.Le, expr.Gt, expr.Ge}
			return ops[rng.Intn(len(ops))](randInt(rng, vars, 1), randInt(rng, vars, 1))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return expr.Not(randBool(rng, vars, depth-1))
	case 1:
		return expr.And(randBool(rng, vars, depth-1), randBool(rng, vars, depth-1))
	case 2:
		return expr.Or(randBool(rng, vars, depth-1), randBool(rng, vars, depth-1))
	case 3:
		return expr.Implies(randBool(rng, vars, depth-1), randBool(rng, vars, depth-1))
	case 4:
		return expr.Iff(randBool(rng, vars, depth-1), randBool(rng, vars, depth-1))
	default:
		return randBool(rng, vars, 0)
	}
}

func randInt(rng *rand.Rand, vars []*expr.Var, depth int) *expr.Expr {
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return vars[2].Ref()
		case 1:
			return vars[3].Ref()
		default:
			return expr.IntConst(int64(rng.Intn(7) - 3))
		}
	}
	switch rng.Intn(5) {
	case 0:
		return expr.Add(randInt(rng, vars, depth-1), randInt(rng, vars, depth-1))
	case 1:
		return expr.Sub(randInt(rng, vars, depth-1), randInt(rng, vars, depth-1))
	case 2:
		return expr.Neg(randInt(rng, vars, depth-1))
	case 3:
		return expr.Ite(randBool(rng, vars, 0), randInt(rng, vars, depth-1), randInt(rng, vars, depth-1))
	default:
		return expr.Mul(randInt(rng, vars, depth-1), expr.IntConst(int64(rng.Intn(5)-2)))
	}
}

func TestModelDecoding(t *testing.T) {
	vars := testVars()
	s := sat.New()
	enc := NewEncoder(s)
	f := enc.NewFrame(vars)
	// Pin: b1=true, i1=3, i2=-2, e1=blue.
	pin := expr.And(
		vars[0].Ref(),
		expr.Eq(vars[2].Ref(), expr.IntConst(3)),
		expr.Eq(vars[3].Ref(), expr.IntConst(-2)),
		expr.Eq(vars[4].Ref(), expr.EnumConst(vars[4].T, "blue")),
	)
	enc.Assert(pin, f, nil)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v", got)
	}
	if v := enc.Model(f, vars[0]); !v.B {
		t.Errorf("b1 = %v, want true", v)
	}
	if v := enc.Model(f, vars[2]); v.I != 3 {
		t.Errorf("i1 = %v, want 3", v)
	}
	if v := enc.Model(f, vars[3]); v.I != -2 {
		t.Errorf("i2 = %v, want -2", v)
	}
	if v := enc.Model(f, vars[4]); v.Sym != "blue" {
		t.Errorf("e1 = %v, want blue", v)
	}
}

func TestRangeConstraintEnforced(t *testing.T) {
	// A var with range [0,5] uses 3 bits; values 6,7 must be excluded.
	v := &expr.Var{Name: "x", T: expr.Int(0, 5)}
	s := sat.New()
	enc := NewEncoder(s)
	f := enc.NewFrame([]*expr.Var{v})
	enc.Assert(expr.Ge(v.Ref(), expr.IntConst(6)), f, nil)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("x >= 6 with x in [0,5]: Solve = %v, want unsat", got)
	}
}

func TestEqFrames(t *testing.T) {
	vars := testVars()
	s := sat.New()
	enc := NewEncoder(s)
	f1 := enc.NewFrame(vars)
	f2 := enc.NewFrame(vars)
	eq := enc.EqFrames(f1, f2)
	// Force i1 to differ across frames; EqFrames must be false.
	d := expr.Eq(vars[2].Ref(), expr.IntConst(1))
	enc.Assert(d, f1, nil)
	enc.Assert(expr.Not(d), f2, nil)
	if got := s.Solve(eq); got != sat.Unsat {
		t.Fatalf("EqFrames with forced difference: Solve = %v, want unsat", got)
	}
	if got := s.Solve(eq.Not()); got != sat.Sat {
		t.Fatalf("!EqFrames: Solve = %v, want sat", got)
	}
}

func TestNextStateCompilation(t *testing.T) {
	v := &expr.Var{Name: "x", T: expr.Int(0, 3)}
	s := sat.New()
	enc := NewEncoder(s)
	cur := enc.NewFrame([]*expr.Var{v})
	next := enc.NewFrame([]*expr.Var{v})
	// next(x) = x + 1
	enc.Assert(expr.Eq(v.Next(), expr.Add(v.Ref(), expr.IntConst(1))), cur, next)
	enc.Assert(expr.Eq(v.Ref(), expr.IntConst(2)), cur, nil)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("Solve = %v", got)
	}
	if got := enc.Model(next, v); got.I != 3 {
		t.Errorf("next x = %v, want 3", got)
	}
	// x=3 has no successor inside the domain.
	enc.Assert(expr.Eq(v.Ref(), expr.IntConst(3)), cur, nil)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("overflow transition: Solve = %v, want unsat", got)
	}
}

func TestParamsFrameFallback(t *testing.T) {
	p := &expr.Var{Name: "p", T: expr.Int(0, 7), Param: true}
	v := &expr.Var{Name: "x", T: expr.Int(0, 7)}
	s := sat.New()
	enc := NewEncoder(s)
	enc.Params = enc.NewFrame([]*expr.Var{p})
	f1 := enc.NewFrame([]*expr.Var{v})
	f2 := enc.NewFrame([]*expr.Var{v})
	// x == p in both frames, but x differs: unsat.
	enc.Assert(expr.Eq(v.Ref(), p.Ref()), f1, nil)
	enc.Assert(expr.Eq(v.Ref(), p.Ref()), f2, nil)
	enc.Assert(expr.Ne(v.Ref(), expr.IntConst(4)), f1, nil)
	enc.Assert(expr.Eq(v.Ref(), expr.IntConst(4)), f2, nil)
	if got := s.Solve(); got != sat.Unsat {
		t.Fatalf("param shared across frames: Solve = %v, want unsat", got)
	}
}
