package expr

// Tests for the compiled DAG evaluator (Compile / Program): agreement
// with a plain recursive tree walk, laziness in untaken branches,
// linear cost on shared subterms, and exact numeric comparison.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// treeEval is the reference semantics: a recursive walk of e as a
// tree, re-evaluating shared subterms on every path. Comparisons go
// through big.Rat unconditionally, so it also checks the evaluator's
// integer fast path.
func treeEval(e *Expr, cur, next Env) (Value, error) {
	switch e.Op {
	case OpConst:
		return e.Val, nil
	case OpVar:
		if v, ok := cur.Value(e.V); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("unbound %s", e.V.Name)
	case OpNext:
		if next == nil {
			return Value{}, fmt.Errorf("no next env")
		}
		if v, ok := next.Value(e.V); ok {
			return v, nil
		}
		return Value{}, fmt.Errorf("unbound next %s", e.V.Name)
	case OpAnd, OpOr:
		stop := e.Op == OpOr
		for _, a := range e.Args {
			v, err := treeEval(a, cur, next)
			if err != nil {
				return Value{}, err
			}
			if v.B == stop {
				return BoolValue(stop), nil
			}
		}
		return BoolValue(!stop), nil
	case OpImplies:
		a, err := treeEval(e.Args[0], cur, next)
		if err != nil {
			return Value{}, err
		}
		if !a.B {
			return BoolValue(true), nil
		}
		return treeEval(e.Args[1], cur, next)
	case OpIte:
		c, err := treeEval(e.Args[0], cur, next)
		if err != nil {
			return Value{}, err
		}
		if c.B {
			return treeEval(e.Args[1], cur, next)
		}
		return treeEval(e.Args[2], cur, next)
	}
	vals := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, err := treeEval(a, cur, next)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	switch e.Op {
	case OpNot:
		return BoolValue(!vals[0].B), nil
	case OpIff:
		return BoolValue(vals[0].B == vals[1].B), nil
	case OpXor:
		return BoolValue(vals[0].B != vals[1].B), nil
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if vals[0].Kind == KindBool || vals[0].Kind == KindEnum {
			return BoolValue(vals[0].Equal(vals[1]) == (e.Op == OpEq)), nil
		}
		c := vals[0].Rat().Cmp(vals[1].Rat())
		return BoolValue(map[Op]bool{OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0}[e.Op]), nil
	case OpCount:
		var n int64
		for _, v := range vals {
			if v.B {
				n++
			}
		}
		return IntValue(n), nil
	case OpDiv:
		if vals[1].Rat().Sign() == 0 {
			return Value{}, fmt.Errorf("division by zero")
		}
		return RealValue(new(big.Rat).Quo(vals[0].Rat(), vals[1].Rat())), nil
	}
	// Like the engines' evaluator, integer-ness follows the runtime
	// operand values: a real-typed Ite may yield an int.
	allInt := true
	for _, v := range vals {
		allInt = allInt && v.Kind == KindInt
	}
	acc := new(big.Rat)
	switch e.Op {
	case OpAdd:
		for _, v := range vals {
			acc.Add(acc, v.Rat())
		}
	case OpSub:
		acc.Sub(vals[0].Rat(), vals[1].Rat())
	case OpNeg:
		acc.Neg(vals[0].Rat())
	case OpMul:
		acc.SetInt64(1)
		for _, v := range vals {
			acc.Mul(acc, v.Rat())
		}
	default:
		return Value{}, fmt.Errorf("op %v", e.Op)
	}
	if allInt {
		return IntValue(acc.Num().Int64()), nil
	}
	return RealValue(acc), nil
}

// dagGen builds random well-typed expressions whose subterms are often
// reused, so the results are DAGs with heavy sharing. Variables u and
// w are never bound, and divisions by (x - x) or 0 appear freely: the
// evaluators must agree on which of these are reached.
type dagGen struct {
	r          *rand.Rand
	x, y, b, c *Var // bound
	r1         *Var // bound real
	u, w       *Var // unbound int, bool
	pool       map[Kind][]*Expr
}

func newDagGen(seed int64) *dagGen {
	return &dagGen{
		r: rand.New(rand.NewSource(seed)),
		x: &Var{Name: "x", T: Int(0, 7)}, y: &Var{Name: "y", T: Int(0, 7)},
		b: &Var{Name: "b", T: Bool()}, c: &Var{Name: "c", T: Bool()},
		r1: &Var{Name: "r", T: Real()},
		u:  &Var{Name: "u", T: Int(0, 7)}, w: &Var{Name: "w", T: Bool()},
		pool: make(map[Kind][]*Expr),
	}
}

func (g *dagGen) env() (MapEnv, MapEnv) {
	cur := MapEnv{
		g.x: IntValue(g.r.Int63n(8)), g.y: IntValue(g.r.Int63n(8)),
		g.b: BoolValue(g.r.Intn(2) == 0), g.c: BoolValue(g.r.Intn(2) == 0),
		g.r1: RealValue(big.NewRat(g.r.Int63n(15)-7, g.r.Int63n(3)+1)),
	}
	next := MapEnv{g.x: IntValue(g.r.Int63n(8)), g.b: BoolValue(g.r.Intn(2) == 0)}
	return cur, next
}

func (g *dagGen) gen(k Kind, depth int) *Expr {
	if pool := g.pool[k]; len(pool) > 0 && g.r.Intn(3) == 0 {
		return pool[g.r.Intn(len(pool))]
	}
	var e *Expr
	if depth == 0 || g.r.Intn(5) == 0 {
		e = g.leaf(k)
	} else if k == KindBool {
		e = g.boolNode(depth - 1)
	} else {
		e = g.numNode(k, depth-1)
	}
	g.pool[k] = append(g.pool[k], e)
	return e
}

func (g *dagGen) leaf(k Kind) *Expr {
	switch k {
	case KindBool:
		return []*Expr{g.b.Ref(), g.c.Ref(), g.w.Ref(), g.b.Next(), True(), False()}[g.r.Intn(6)]
	case KindInt:
		return []*Expr{g.x.Ref(), g.y.Ref(), g.u.Ref(), g.x.Next(), IntConst(g.r.Int63n(8))}[g.r.Intn(5)]
	}
	return []*Expr{g.r1.Ref(), RealFrac(g.r.Int63n(9)-4, 2)}[g.r.Intn(2)]
}

func (g *dagGen) num(depth int) *Expr {
	if g.r.Intn(3) == 0 {
		return g.gen(KindReal, depth)
	}
	return g.gen(KindInt, depth)
}

// boolNode builds nodes directly, bypassing constructor folding, so
// every operator (Xor included) reaches the evaluators.
func (g *dagGen) boolNode(d int) *Expr {
	node := func(op Op, args ...*Expr) *Expr { return &Expr{Op: op, T: Bool(), Args: args} }
	bl := func() *Expr { return g.gen(KindBool, d) }
	switch g.r.Intn(9) {
	case 0:
		return node(OpNot, bl())
	case 1:
		return node(OpAnd, bl(), bl(), bl())
	case 2:
		return node(OpOr, bl(), bl())
	case 3:
		return node(OpImplies, bl(), bl())
	case 4:
		return node(OpIff, bl(), bl())
	case 5:
		return node(OpXor, bl(), bl())
	case 6:
		return node(OpIte, bl(), bl(), bl())
	}
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	return node(ops[g.r.Intn(len(ops))], g.num(d), g.num(d))
}

func (g *dagGen) numNode(k Kind, d int) *Expr {
	if k == KindReal {
		switch g.r.Intn(3) {
		case 0: // a division whose denominator is often zero
			den := []*Expr{Sub(g.x.Ref(), g.x.Ref()), IntConst(0), g.num(d)}[g.r.Intn(3)]
			return Div(g.num(d), den)
		case 1:
			return Add(g.gen(KindReal, d), g.num(d))
		}
		return Ite(g.gen(KindBool, d), g.gen(KindReal, d), g.num(d))
	}
	switch g.r.Intn(6) {
	case 0:
		return Add(g.gen(KindInt, d), g.gen(KindInt, d))
	case 1:
		return Sub(g.gen(KindInt, d), g.gen(KindInt, d))
	case 2:
		return Neg(g.gen(KindInt, d))
	case 3:
		return Mul(g.gen(KindInt, d), IntConst(g.r.Int63n(5)-2))
	case 4:
		return Count(g.gen(KindBool, d), g.gen(KindBool, d))
	}
	return Ite(g.gen(KindBool, d), g.gen(KindInt, d), g.gen(KindInt, d))
}

// The compiled evaluator must agree with the tree walk on every value
// and on whether an error occurs, including unbound variables and
// division by zero sitting in branches that are never taken.
func TestProgramMatchesTreeWalk(t *testing.T) {
	var errs, oks int
	for seed := int64(1); seed <= 300; seed++ {
		g := newDagGen(seed)
		e := g.gen(KindBool, 6)
		if seed%3 == 0 {
			e = g.gen(KindReal, 5)
		}
		p := Compile(e)
		for trial := 0; trial < 8; trial++ {
			cur, next := g.env()
			var nextEnv Env = next
			if trial%4 == 3 {
				nextEnv = nil
			}
			want, werr := treeEval(e, cur, nextEnv)
			got, gerr := p.Eval(cur, nextEnv)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("seed %d trial %d: tree err %v, program err %v\n%s", seed, trial, werr, gerr, e)
			}
			if werr != nil {
				errs++
				continue
			}
			oks++
			if got.Kind != want.Kind || !got.Equal(want) {
				t.Fatalf("seed %d trial %d: tree %v, program %v\n%s", seed, trial, want, got, e)
			}
			if v, err := Eval(e, cur, nextEnv); err != nil || !v.Equal(want) {
				t.Fatalf("seed %d trial %d: Eval = %v, %v; want %v", seed, trial, v, err, want)
			}
		}
	}
	// Both outcomes must be well represented or the test proves little.
	if errs < 100 || oks < 100 {
		t.Fatalf("unbalanced corpus: %d errors, %d values", errs, oks)
	}
}

// Errors in branches the evaluation does not take are never raised.
func TestProgramLazyBranches(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 3)}
	u := &Var{Name: "u", T: Bool()} // never bound
	div0 := Gt(Div(IntConst(1), Sub(x.Ref(), x.Ref())), IntConst(0))
	env := MapEnv{x: IntValue(1)}
	for _, c := range []struct {
		e    *Expr
		want bool
	}{
		{&Expr{Op: OpAnd, T: Bool(), Args: []*Expr{Eq(x.Ref(), IntConst(2)), u.Ref(), div0}}, false},
		{&Expr{Op: OpOr, T: Bool(), Args: []*Expr{Eq(x.Ref(), IntConst(1)), u.Ref(), div0}}, true},
		{&Expr{Op: OpImplies, T: Bool(), Args: []*Expr{Eq(x.Ref(), IntConst(2)), div0}}, true},
		{Ite(Eq(x.Ref(), IntConst(1)), True(), div0), true},
		{Ite(Eq(x.Ref(), IntConst(2)), u.Ref(), False()), false},
	} {
		if got, err := Compile(c.e).EvalBool(env, nil); err != nil || got != c.want {
			t.Errorf("%s = %v, %v; want %v, no error", c.e, got, err, c.want)
		}
	}
	// The same subterms on a taken path do raise.
	for _, e := range []*Expr{div0, Ite(Eq(x.Ref(), IntConst(1)), u.Ref(), True())} {
		if _, err := Compile(e).EvalBool(env, nil); err == nil {
			t.Errorf("%s: want an error", e)
		}
	}
}

// A Program is reused across environments: stale slots from one Eval
// must never leak into the next, including across an epoch wrap.
func TestProgramReuse(t *testing.T) {
	x := &Var{Name: "x", T: Int(0, 7)}
	e := Ite(Gt(x.Ref(), IntConst(3)), Mul(x.Ref(), IntConst(2)), Add(x.Ref(), IntConst(1)))
	p := Compile(e)
	// The epoch wraps at x = 4, the first Eval to take the then-branch,
	// whose slots have never been written.
	p.epoch = ^uint32(0) - 4
	for i := int64(0); i < 8; i++ {
		want := i + 1
		if i > 3 {
			want = 2 * i
		}
		v, err := p.Eval(MapEnv{x: IntValue(i)}, nil)
		if err != nil || v.I != want {
			t.Fatalf("x=%d: %v, %v; want %d", i, v, err, want)
		}
	}
	if _, err := p.Eval(MapEnv{}, nil); err == nil {
		t.Fatal("unbound x after reuse: want an error")
	}
	if _, err := p.EvalBool(MapEnv{x: IntValue(1)}, nil); err == nil {
		t.Fatal("EvalBool on an int expression: want an error")
	}
}

// minChain builds the distance-round shape acc = Ite(c < acc, c, acc)
// n times over fresh variables: every step reuses acc twice, so the
// unfolded tree has about 2^n nodes while the DAG has O(n).
func minChain(n int) (*Expr, []*Var) {
	vars := make([]*Var, n)
	acc := IntConst(100)
	for i := range vars {
		vars[i] = &Var{Name: fmt.Sprintf("c%d", i), T: Int(0, 100)}
		c := vars[i].Ref()
		acc = Ite(Lt(c, acc), c, acc)
	}
	return acc, vars
}

// Evaluating the depth-48 chain takes milliseconds; a tree walk would
// need about 2^48 node visits.
func TestProgramSharedChainIsLinear(t *testing.T) {
	e, vars := minChain(48)
	env, want := MapEnv{}, int64(100)
	for i, v := range vars {
		val := int64(90 - (i*37)%80)
		env[v], want = IntValue(val), min(want, val)
	}
	done := make(chan Value, 1)
	go func() {
		v, err := Eval(e, env, nil)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v.I != want {
			t.Fatalf("min = %v, want %d", v, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluating a depth-48 shared chain did not finish: evaluation is exponential in sharing")
	}
}

// Walk visits each distinct interior node once, so the Walk-based
// queries stay linear on shared DAGs and keep their results.
func TestWalkSharedDAG(t *testing.T) {
	e, vars := minChain(48)
	r := &Var{Name: "r", T: Real()}
	nx := &Var{Name: "n", T: Bool()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		got := Vars(e)
		if len(got) != len(vars) {
			t.Errorf("Vars: %d variables, want %d", len(got), len(vars))
			return
		}
		// Pre-order meets the outermost step's variable first.
		for i, v := range got {
			if want := vars[len(vars)-1-i]; v != want {
				t.Errorf("Vars[%d] = %s, want %s (first-occurrence order)", i, v, want)
			}
		}
		if HasNext(e) || !IsFinite(e) {
			t.Errorf("HasNext = %v, IsFinite = %v; want false, true", HasNext(e), IsFinite(e))
		}
		withNext := And(Eq(e, IntConst(3)), nx.Next())
		if !HasNext(withNext) {
			t.Error("HasNext missed next(n) after a shared chain")
		}
		withReal := Or(Lt(e, IntConst(4)), Gt(r.Ref(), RealFrac(1, 2)))
		if IsFinite(withReal) {
			t.Error("IsFinite missed a real after a shared chain")
		}
		// Per step: the Ite, the Lt and the step's variable from each
		// of its two parents; then the initial constant, twice.
		visits := 0
		Walk(e, func(*Expr) bool { visits++; return true })
		if visits != 4*48+2 {
			t.Errorf("Walk made %d visits on a %d-step chain", visits, 48)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Walk-based queries on a depth-48 shared chain did not finish")
	}
}
