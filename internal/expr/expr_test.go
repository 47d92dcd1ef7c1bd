package expr

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTypeBasics(t *testing.T) {
	if !Bool().Equal(Bool()) {
		t.Error("bool != bool")
	}
	if Int(0, 3).Equal(Int(0, 4)) {
		t.Error("different ranges equal")
	}
	if !Enum("a", "b").Equal(Enum("a", "b")) {
		t.Error("same enums unequal")
	}
	if Enum("a", "b").Equal(Enum("b", "a")) {
		t.Error("order-insensitive enum equality")
	}
	if Int(2, 5).Size() != 4 || Bool().Size() != 2 || Enum("x", "y", "z").Size() != 3 {
		t.Error("sizes wrong")
	}
	if Real().Finite() || !Int(0, 1).Finite() {
		t.Error("finiteness wrong")
	}
	if Enum("a", "b").EnumIndex("b") != 1 || Enum("a").EnumIndex("z") != -1 {
		t.Error("EnumIndex wrong")
	}
}

func TestTypePanics(t *testing.T) {
	cases := []func(){
		func() { Int(3, 2) },
		func() { Enum() },
		func() { Enum("a", "a") },
		func() { EnumConst(Enum("a"), "b") },
		func() { Not(IntConst(1)) },
		func() { And(IntConst(1)) },
		func() { Add(True()) },
		func() { Lt(True(), False()) },
		func() { Eq(EnumConst(Enum("a"), "a"), EnumConst(Enum("b"), "b")) },
		func() { Ite(True(), True(), IntConst(1)) },
		func() { Count(IntConst(1)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueEqualCrossKind(t *testing.T) {
	if !IntValue(3).Equal(RealInt(3)) {
		t.Error("3 != 3.0")
	}
	if !RealInt(3).Equal(IntValue(3)) {
		t.Error("3.0 != 3")
	}
	if IntValue(3).Equal(RealValue(big.NewRat(7, 2))) {
		t.Error("3 == 3.5")
	}
	if BoolValue(true).Equal(IntValue(1)) {
		t.Error("true == 1")
	}
}

// Comparisons of every operator across int/int, int/real and real/real
// operands, evaluated (not constant-folded) through bound variables.
func TestEvalCompareKinds(t *testing.T) {
	i := &Var{Name: "i", T: Int(-10, 10)}
	j := &Var{Name: "j", T: Int(-10, 10)}
	q := &Var{Name: "q", T: Real()}
	s := &Var{Name: "s", T: Real()}
	type pair struct {
		name string
		a, b *Expr
		env  MapEnv
		cmp  int // sign of a - b
	}
	pairs := []pair{
		{"int<int", i.Ref(), j.Ref(), MapEnv{i: IntValue(-3), j: IntValue(4)}, -1},
		{"int=int", i.Ref(), j.Ref(), MapEnv{i: IntValue(7), j: IntValue(7)}, 0},
		{"int>int", i.Ref(), j.Ref(), MapEnv{i: IntValue(5), j: IntValue(-5)}, 1},
		{"int<real", i.Ref(), q.Ref(), MapEnv{i: IntValue(2), q: RealValue(big.NewRat(5, 2))}, -1},
		{"int=real", i.Ref(), q.Ref(), MapEnv{i: IntValue(3), q: RealValue(big.NewRat(6, 2))}, 0},
		{"real>int", q.Ref(), i.Ref(), MapEnv{i: IntValue(-1), q: RealValue(big.NewRat(-1, 3))}, 1},
		{"real<real", q.Ref(), s.Ref(), MapEnv{q: RealValue(big.NewRat(1, 3)), s: RealValue(big.NewRat(1, 2))}, -1},
		{"real=real", q.Ref(), s.Ref(), MapEnv{q: RealValue(big.NewRat(2, 4)), s: RealValue(big.NewRat(1, 2))}, 0},
		{"real>real", q.Ref(), s.Ref(), MapEnv{q: RealValue(big.NewRat(-1, 7)), s: RealValue(big.NewRat(-1, 6))}, 1},
	}
	ops := []struct {
		name string
		mk   func(a, b *Expr) *Expr
		want func(c int) bool
	}{
		{"=", Eq, func(c int) bool { return c == 0 }},
		{"!=", Ne, func(c int) bool { return c != 0 }},
		{"<", Lt, func(c int) bool { return c < 0 }},
		{"<=", Le, func(c int) bool { return c <= 0 }},
		{">", Gt, func(c int) bool { return c > 0 }},
		{">=", Ge, func(c int) bool { return c >= 0 }},
	}
	for _, p := range pairs {
		for _, op := range ops {
			got, err := EvalBool(op.mk(p.a, p.b), p.env, nil)
			if err != nil || got != op.want(p.cmp) {
				t.Errorf("%s %s: %v, %v; want %v", p.name, op.name, got, err, op.want(p.cmp))
			}
		}
		// Value.Equal agrees with = across kinds.
		av, _ := Eval(p.a, p.env, nil)
		bv, _ := Eval(p.b, p.env, nil)
		if av.Equal(bv) != (p.cmp == 0) || bv.Equal(av) != (p.cmp == 0) {
			t.Errorf("%s: Value.Equal(%v, %v) wrong", p.name, av, bv)
		}
	}
}

func TestValueEqualProperties(t *testing.T) {
	// Symmetry of Equal over int/real values via testing/quick.
	f := func(a, b int32) bool {
		va, vb := IntValue(int64(a)), RealInt(int64(b))
		return va.Equal(vb) == vb.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Reflexivity.
	g := func(a int64) bool { return IntValue(a).Equal(IntValue(a)) }
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestConstFolding(t *testing.T) {
	if !And(True(), True()).IsTrue() {
		t.Error("and fold")
	}
	if !And(True(), False()).IsFalse() {
		t.Error("and absorb")
	}
	if !Or(False(), True()).IsTrue() {
		t.Error("or fold")
	}
	if !Not(Not(True())).IsTrue() {
		t.Error("double negation")
	}
	if v, ok := Add(IntConst(2), IntConst(3)).IsConst(); !ok || v.I != 5 {
		t.Error("add fold")
	}
	if v, ok := Mul(IntConst(2), IntConst(-3)).IsConst(); !ok || v.I != -6 {
		t.Error("mul fold")
	}
	if v, ok := Sub(IntConst(2), IntConst(3)).IsConst(); !ok || v.I != -1 {
		t.Error("sub fold")
	}
	if !Lt(IntConst(1), IntConst(2)).IsTrue() {
		t.Error("lt fold")
	}
	if !Eq(RealFrac(1, 2), RealFrac(2, 4)).IsTrue() {
		t.Error("rational eq fold")
	}
	if !Ge(IntConst(1), RealFrac(3, 2)).IsFalse() {
		t.Error("mixed cmp fold")
	}
}

func TestIntervalDerivation(t *testing.T) {
	x := &Var{Name: "x", T: Int(-2, 3)}
	y := &Var{Name: "y", T: Int(0, 5)}
	if tt := Add(x.Ref(), y.Ref()).Type(); tt.Lo != -2 || tt.Hi != 8 {
		t.Errorf("add interval %v", tt)
	}
	if tt := Sub(x.Ref(), y.Ref()).Type(); tt.Lo != -7 || tt.Hi != 3 {
		t.Errorf("sub interval %v", tt)
	}
	if tt := Neg(x.Ref()).Type(); tt.Lo != -3 || tt.Hi != 2 {
		t.Errorf("neg interval %v", tt)
	}
	if tt := Mul(x.Ref(), y.Ref()).Type(); tt.Lo != -10 || tt.Hi != 15 {
		t.Errorf("mul interval %v", tt)
	}
	if tt := Count(True(), x.Ref().eqZero(), y.Ref().eqZero()).Type(); tt.Lo < 0 {
		t.Errorf("count interval %v", tt)
	}
}

// eqZero is a test helper producing a boolean from an int expr.
func (e *Expr) eqZero() *Expr { return Eq(e, IntConst(0)) }

// TestIntervalSoundness: the derived interval always contains the
// evaluated value, on random expressions and assignments.
func TestIntervalSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := &Var{Name: "x", T: Int(-3, 3)}
	y := &Var{Name: "y", T: Int(0, 4)}
	var gen func(d int) *Expr
	gen = func(d int) *Expr {
		if d == 0 {
			switch rng.Intn(3) {
			case 0:
				return x.Ref()
			case 1:
				return y.Ref()
			default:
				return IntConst(int64(rng.Intn(9) - 4))
			}
		}
		switch rng.Intn(4) {
		case 0:
			return Add(gen(d-1), gen(d-1))
		case 1:
			return Sub(gen(d-1), gen(d-1))
		case 2:
			return Neg(gen(d - 1))
		default:
			return Mul(gen(d-1), gen(d-1))
		}
	}
	for trial := 0; trial < 200; trial++ {
		e := gen(3)
		for xi := int64(-3); xi <= 3; xi++ {
			for yi := int64(0); yi <= 4; yi++ {
				env := MapEnv{x: IntValue(xi), y: IntValue(yi)}
				v, err := Eval(e, env, nil)
				if err != nil {
					t.Fatal(err)
				}
				if v.I < e.Type().Lo || v.I > e.Type().Hi {
					t.Fatalf("value %d outside derived interval %s of %s", v.I, e.Type(), e)
				}
			}
		}
	}
}

func TestEvalErrors(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	if _, err := Eval(x.Ref(), MapEnv{}, nil); err == nil {
		t.Error("unbound variable should error")
	}
	if _, err := Eval(x.Next(), MapEnv{x: IntValue(1)}, nil); err == nil {
		t.Error("next without next-env should error")
	}
	if _, err := Eval(Div(RealFrac(1, 1), RealFrac(0, 1)), MapEnv{}, nil); err == nil {
		t.Error("division by zero should error")
	}
}

func TestEvalNextState(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	cur := MapEnv{x: IntValue(1)}
	next := MapEnv{x: IntValue(2)}
	v, err := EvalBool(Eq(x.Next(), Add(x.Ref(), IntConst(1))), cur, next)
	if err != nil || !v {
		t.Errorf("next-state eval: %v %v", v, err)
	}
}

func TestWalkAndVars(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	y := &Var{Name: "y", T: Bool()}
	e := And(y.Ref(), Eq(x.Ref(), IntConst(1)), Implies(y.Ref(), Lt(x.Next(), IntConst(2))))
	vs := Vars(e)
	if len(vs) != 2 {
		t.Fatalf("Vars = %v", vs)
	}
	if !HasNext(e) {
		t.Error("HasNext missed next(x)")
	}
	if HasNext(y.Ref()) {
		t.Error("HasNext false positive")
	}
}

func TestSubstitute(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	e := Add(x.Ref(), x.Next())
	sub := Substitute(e, map[*Var]*Expr{x: IntConst(2)})
	// Current ref replaced; next ref untouched.
	env := MapEnv{x: IntValue(0)}
	next := MapEnv{x: IntValue(1)}
	v, err := Eval(sub, env, next)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 3 { // 2 + next(x)=1
		t.Errorf("substituted eval = %d, want 3", v.I)
	}
}

func TestPrimeUnprime(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	e := Eq(x.Ref(), IntConst(1))
	p := Prime(e)
	if !HasNext(p) {
		t.Fatal("Prime did not introduce next()")
	}
	u := Unprime(p)
	if HasNext(u) {
		t.Fatal("Unprime left next()")
	}
	env := MapEnv{x: IntValue(1)}
	v, _ := EvalBool(u, env, nil)
	if !v {
		t.Error("round-trip changed semantics")
	}
}

func TestIsFinite(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	r := &Var{Name: "r", T: Real()}
	if !IsFinite(Eq(x.Ref(), IntConst(1))) {
		t.Error("finite expr reported infinite")
	}
	if IsFinite(Gt(r.Ref(), RealFrac(0, 1))) {
		t.Error("real expr reported finite")
	}
}

func TestCountSemantics(t *testing.T) {
	a := &Var{Name: "a", T: Bool()}
	b := &Var{Name: "b", T: Bool()}
	c := Count(a.Ref(), True(), b.Ref(), False())
	env := MapEnv{a: BoolValue(true), b: BoolValue(false)}
	v, err := Eval(c, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 { // a + the constant true
		t.Errorf("count = %d, want 2", v.I)
	}
	// All-constant count folds.
	if v, ok := Count(True(), False(), True()).IsConst(); !ok || v.I != 2 {
		t.Error("constant count should fold")
	}
}

func TestStringRendering(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	e := Implies(Lt(x.Ref(), IntConst(2)), Eq(x.Next(), IntConst(0)))
	s := e.String()
	for _, frag := range []string{"x", "next(x)", "->", "<"} {
		if !contains(s, frag) {
			t.Errorf("%q missing %q", s, frag)
		}
	}
	if Ite(Eq(x.Ref(), IntConst(0)), x.Ref(), IntConst(1)).String() == "" {
		t.Error("empty ite string")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTransformIdempotence uses testing/quick-style randomization: a
// Transform with identity callback preserves evaluation on all inputs.
func TestTransformIdentityPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := &Var{Name: "x", T: Int(-2, 2)}
	b := &Var{Name: "b", T: Bool()}
	var gen func(d int) *Expr
	gen = func(d int) *Expr {
		if d == 0 {
			switch rng.Intn(3) {
			case 0:
				return b.Ref()
			case 1:
				return Lt(x.Ref(), IntConst(int64(rng.Intn(5)-2)))
			default:
				return BoolConst(rng.Intn(2) == 0)
			}
		}
		switch rng.Intn(4) {
		case 0:
			return And(gen(d-1), gen(d-1))
		case 1:
			return Or(gen(d-1), gen(d-1))
		case 2:
			return Not(gen(d - 1))
		default:
			return Iff(gen(d-1), gen(d-1))
		}
	}
	for trial := 0; trial < 100; trial++ {
		e := gen(3)
		e2 := Transform(e, func(n *Expr) *Expr { return nil })
		for xi := int64(-2); xi <= 2; xi++ {
			for _, bv := range []bool{false, true} {
				env := MapEnv{x: IntValue(xi), b: BoolValue(bv)}
				v1, err1 := EvalBool(e, env, nil)
				v2, err2 := EvalBool(e2, env, nil)
				if err1 != nil || err2 != nil || v1 != v2 {
					t.Fatalf("transform changed semantics of %s", e)
				}
			}
		}
	}
}

func TestQuickTypeUnify(t *testing.T) {
	// Ite branch unification is commutative in the derived interval.
	f := func(a1, b1, a2, b2 int8) bool {
		lo1, hi1 := int64(a1), int64(b1)
		if lo1 > hi1 {
			lo1, hi1 = hi1, lo1
		}
		lo2, hi2 := int64(a2), int64(b2)
		if lo2 > hi2 {
			lo2, hi2 = hi2, lo2
		}
		t1, ok1 := unify(Int(lo1, hi1), Int(lo2, hi2))
		t2, ok2 := unify(Int(lo2, hi2), Int(lo1, hi1))
		return ok1 && ok2 && t1.Equal(t2)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVarKindsViaReflection(t *testing.T) {
	// Values round-trip through the generic Const constructor.
	vals := []struct {
		v Value
		t Type
	}{
		{BoolValue(true), Bool()},
		{IntValue(-7), Int(-10, 10)},
		{EnumValue("b"), Enum("a", "b")},
		{RealValue(big.NewRat(22, 7)), Real()},
	}
	for _, c := range vals {
		e := Const(c.v, c.t)
		got, ok := e.IsConst()
		if !ok || !reflect.DeepEqual(got.Kind, c.v.Kind) || !got.Equal(c.v) {
			t.Errorf("Const round trip failed for %v", c.v)
		}
	}
}
