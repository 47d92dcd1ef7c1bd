package mc

import (
	"fmt"
	"math/rand"
	"testing"

	"verdict/internal/ctl"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/trace"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// counterSystem: x in [0,7], starts at 0, increments mod 8.
func counterSystem() (*ts.System, *expr.Var) {
	sys := ts.New("counter")
	x := sys.Int("x", 0, 7)
	sys.Init(x, expr.IntConst(0))
	sys.Assign(x, expr.Ite(
		expr.Lt(x.Ref(), expr.IntConst(7)),
		expr.Add(x.Ref(), expr.IntConst(1)),
		expr.IntConst(0),
	))
	return sys, x
}

func TestKInductionHolds(t *testing.T) {
	sys, x := counterSystem()
	r, err := KInduction(sys, expr.Le(x.Ref(), expr.IntConst(7)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("G(x<=7): %v, want holds", r)
	}
}

func TestKInductionViolated(t *testing.T) {
	sys, x := counterSystem()
	r, err := KInduction(sys, expr.Le(x.Ref(), expr.IntConst(5)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("G(x<=5): %v, want violated", r)
	}
	if r.Trace == nil || r.Trace.Len() != 7 {
		t.Fatalf("trace should reach x=6 in 6 steps (7 states), got %d", r.Trace.Len())
	}
	if v, _ := r.Trace.States[6].Get("x"); v.I != 6 {
		t.Errorf("final state x = %v, want 6", v)
	}
}

func TestBMCFindsSafetyCex(t *testing.T) {
	sys, x := counterSystem()
	phi := ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(5))))
	r, err := BMC(sys, phi, Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("BMC: %v, want violated", r)
	}
	if r.Depth != 6 {
		t.Errorf("counterexample depth %d, want 6 (shortest)", r.Depth)
	}
}

func TestBMCUnknownOnValidProperty(t *testing.T) {
	sys, x := counterSystem()
	phi := ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7))))
	r, err := BMC(sys, phi, Options{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown {
		t.Fatalf("BMC on valid property: %v, want unknown", r)
	}
}

func TestBDDInvariant(t *testing.T) {
	sys, x := counterSystem()
	sym, err := NewSym(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckInvariant(expr.Le(x.Ref(), expr.IntConst(7)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("BDD G(x<=7): %v", r)
	}
	r, err = sym.CheckInvariant(expr.Le(x.Ref(), expr.IntConst(5)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("BDD G(x<=5): %v", r)
	}
	if r.Trace == nil || r.Trace.Len() != 7 {
		t.Fatalf("BDD trace length %d, want 7", r.Trace.Len())
	}
	// The trace must be a genuine execution: consecutive x values.
	for i, st := range r.Trace.States {
		v, _ := st.Get("x")
		if v.I != int64(i) {
			t.Errorf("state %d: x = %d, want %d", i, v.I, i)
		}
	}
}

func TestExplicitMatchesOthers(t *testing.T) {
	sys, x := counterSystem()
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.NumStates() != 8 {
		t.Errorf("NumStates = %d, want 8", ex.NumStates())
	}
	r, err := ex.CheckInvariant(expr.Le(x.Ref(), expr.IntConst(5)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("explicit: %v", r)
	}
}

// stabilizer: y counts 0..3 and then stays; optional nondeterministic
// reset makes F(G(y=3)) fail.
func stabilizer(withReset bool) (*ts.System, *expr.Expr) {
	sys := ts.New("stabilizer")
	y := sys.Int("y", 0, 3)
	sys.Init(y, expr.IntConst(0))
	inc := expr.Ite(expr.Lt(y.Ref(), expr.IntConst(3)),
		expr.Add(y.Ref(), expr.IntConst(1)), expr.IntConst(3))
	if withReset {
		// next(y) = inc or 0, nondeterministically.
		sys.AddTrans(expr.Or(
			expr.Eq(y.Next(), inc),
			expr.Eq(y.Next(), expr.IntConst(0)),
		))
	} else {
		sys.Assign(y, inc)
	}
	return sys, expr.Eq(y.Ref(), expr.IntConst(3))
}

func TestLivenessFGHolds(t *testing.T) {
	sys, stable := stabilizer(false)
	phi := ltl.F(ltl.G(ltl.Atom(stable)))
	sym, err := NewSym(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckLTL(phi)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("BDD F(G(y=3)): %v, want holds", r)
	}
	// BMC must not find a counterexample.
	rb, err := BMC(sys, phi, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Status != Unknown {
		t.Fatalf("BMC on valid liveness: %v, want unknown", rb)
	}
	// Explicit agrees.
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := ex.CheckFG(stable)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Holds {
		t.Fatalf("explicit F(G): %v, want holds", re)
	}
}

func TestLivenessFGViolated(t *testing.T) {
	sys, stable := stabilizer(true)
	phi := ltl.F(ltl.G(ltl.Atom(stable)))
	sym, err := NewSym(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckLTL(phi)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("BDD F(G(y=3)) with resets: %v, want violated", r)
	}
	// BMC finds a lasso.
	rb, err := BMC(sys, phi, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Status != Violated {
		t.Fatalf("BMC: %v, want violated", rb)
	}
	if rb.Trace == nil || !rb.Trace.IsLasso() {
		t.Fatal("liveness counterexample must be a lasso")
	}
	// The loop must contain a ¬stable state.
	found := false
	for i := rb.Trace.LoopStart; i < rb.Trace.Len(); i++ {
		if v, _ := rb.Trace.States[i].Get("y"); v.I != 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("lasso loop never leaves y=3:\n%s", rb.Trace.Full())
	}
	// Explicit agrees.
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := ex.CheckFG(stable)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Violated {
		t.Fatalf("explicit: %v, want violated", re)
	}
}

func TestFairnessRestoresLiveness(t *testing.T) {
	// With resets, F(G(y=3)) fails — but under the fairness constraint
	// "y=3 infinitely often", G(F(y=3)) holds trivially while
	// F(G(y=3)) still fails (the path can keep resetting).
	sys, stable := stabilizer(true)
	sys.AddFairness(stable)
	phi := ltl.G(ltl.F(ltl.Atom(stable)))
	sym, err := NewSym(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckLTL(phi)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("G(F(y=3)) under fairness: %v, want holds", r)
	}
	// The unfair lasso that resets before y=3 forever is no
	// counterexample: BMC must not report it, so the portfolio's
	// verdict does not depend on which engine wins.
	rb, err := BMC(sys, phi, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Status == Violated {
		t.Fatalf("BMC under fairness: %v, want no counterexample\n%s", rb, rb.Trace.Full())
	}
	for i := 0; i < 5; i++ {
		rp, err := Portfolio(sys, phi, Options{MaxDepth: 8, ValidateWitness: true})
		if err != nil {
			t.Fatal(err)
		}
		if rp.Status != Holds {
			t.Fatalf("run %d: portfolio under fairness: %v (%s), want holds", i, rp, rp.Engine)
		}
	}
}

// Under fairness BMC's counterexamples are fair lassos: F(G(y=3))
// still fails with y=3 infinitely often, but only on a loop that
// reaches y=3 and resets.
func TestBMCFindsFairLasso(t *testing.T) {
	sys, stable := stabilizer(true)
	sys.AddFairness(stable)
	phi := ltl.F(ltl.G(ltl.Atom(stable)))
	r, err := BMC(sys, phi, Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated || r.Trace == nil || !r.Trace.IsLasso() {
		t.Fatalf("BMC F(G(y=3)) under fairness: %v, want a violating lasso", r)
	}
	if err := witness.Validate(sys, phi, r.Trace); err != nil {
		t.Fatalf("fair lasso rejected: %v\n%s", err, r.Trace.Full())
	}
	fair := false
	for i := r.Trace.LoopStart; i < r.Trace.Len(); i++ {
		if v, _ := r.Trace.States[i].Get("y"); v.I == 3 {
			fair = true
		}
	}
	if !fair {
		t.Fatalf("lasso loop never meets the fairness constraint y=3:\n%s", r.Trace.Full())
	}
}

// The referee holds counterexamples to the same fair-path semantics:
// the lasso that stays at y=0 violates G(F(y=3)) on an unfair path
// only, and a finite prefix is no fair path at all.
func TestValidateRejectsUnfairLasso(t *testing.T) {
	sys, stable := stabilizer(true)
	phi := ltl.G(ltl.F(ltl.Atom(stable)))
	lasso := trace.New()
	st := trace.NewState()
	st.Values["y"] = expr.IntValue(0)
	lasso.States = append(lasso.States, st)
	lasso.LoopStart = 0
	if err := witness.Validate(sys, phi, lasso); err != nil {
		t.Fatalf("without fairness the y=0 lasso is a counterexample: %v", err)
	}
	sys.AddFairness(stable)
	if err := witness.Validate(sys, phi, lasso); err == nil {
		t.Fatal("unfair lasso accepted as a counterexample under FAIRNESS y=3")
	}
	prefix := lasso.Clone()
	prefix.LoopStart = -1
	if err := witness.Validate(sys, ltl.Atom(stable), prefix); err == nil {
		t.Fatal("finite prefix accepted as a counterexample under FAIRNESS")
	}
	// An invariant stays a property of reachable states.
	if err := witness.Validate(sys, ltl.G(ltl.Atom(stable)), prefix); err != nil {
		t.Fatalf("invariant counterexample rejected under fairness: %v", err)
	}
}

// A system whose only fair paths visit x: F(x) holds under FAIRNESS x,
// and the portfolio says so whichever engine answers first. Twelve
// free counters give BDD work and BMC time to find the unfair lasso
// that stays at x=FALSE.
func TestPortfolioFairnessVerdict(t *testing.T) {
	sys := ts.New("fair-eventually")
	x := sys.Bool("x")
	sys.AddInit(expr.Not(x.Ref()))
	sys.AddFairness(x.Ref())
	for i := 0; i < 12; i++ {
		sys.Int(fmt.Sprintf("c%d", i), 0, 200)
	}
	phi := ltl.F(ltl.Atom(x.Ref()))
	for i := 0; i < 5; i++ {
		r, err := Portfolio(sys, phi, Options{MaxDepth: 10, ValidateWitness: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Holds {
			t.Fatalf("run %d: %v (%s), want holds", i, r, r.Engine)
		}
	}
}

func TestGFWithoutFairnessViolated(t *testing.T) {
	// Without fairness, a path may reset to 0 and... resets go to 0,
	// then increment — can a path avoid y=3 forever? Yes: reset before
	// reaching 3 each time. G(F(y=3)) is violated.
	sys, stable := stabilizer(true)
	phi := ltl.G(ltl.F(ltl.Atom(stable)))
	sym, err := NewSym(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sym.CheckLTL(phi)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("G(F(y=3)) without fairness: %v, want violated", r)
	}
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := ex.CheckGF(stable)
	if err != nil {
		t.Fatal(err)
	}
	if re.Status != Violated {
		t.Fatalf("explicit G(F): %v, want violated", re)
	}
}

// paramSystem: x starts at 0 and increases by parameter p (saturating
// at 10). G(x != 7) is safe exactly for p ∈ {0, 2, 3} within [0,3].
func paramSystem() (*ts.System, *expr.Expr) {
	sys := ts.New("param-step")
	x := sys.Int("x", 0, 10)
	p := sys.IntParam("p", 0, 3)
	sys.Init(x, expr.IntConst(0))
	step := expr.Add(x.Ref(), p.Ref())
	sys.Assign(x, expr.Ite(expr.Le(step, expr.IntConst(10)), step, expr.IntConst(10)))
	return sys, expr.Ne(x.Ref(), expr.IntConst(7))
}

func TestSynthesizeParams(t *testing.T) {
	sys, prop := paramSystem()
	res, err := SynthesizeParams(sys, ltl.G(ltl.Atom(prop)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantSafe := map[string]bool{"p=0": true, "p=2": true, "p=3": true}
	if len(res.Safe) != 3 {
		t.Fatalf("safe = %v, want p ∈ {0,2,3}", res.Safe)
	}
	for _, a := range res.Safe {
		if !wantSafe[a.String()] {
			t.Errorf("unexpected safe valuation %s", a)
		}
	}
	if len(res.Unsafe) != 1 || res.Unsafe[0].String() != "p=1" {
		t.Errorf("unsafe = %v, want p=1", res.Unsafe)
	}
}

// Every valuation gets the verdict the explicit engine gives it
// pinned, and the one unsafe valuation costs one check and the safe
// rest another.
func TestSynthesizeParamsMatchesExplicit(t *testing.T) {
	sys, prop := paramSystem()
	phi := ltl.G(ltl.Atom(prop))
	res, err := SynthesizeParams(sys, phi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := explicitPartition(t, sys, func(ex *Explicit) (*Result, error) { return ex.CheckInvariant(prop) }); partition(res) != want {
		t.Errorf("synthesis %s, explicit %s", partition(res), want)
	}
	if res.Checks != 2 || res.Engine != "portfolio-synth" {
		t.Errorf("%s took %d checks, want portfolio-synth in 2", res.Engine, res.Checks)
	}
	if err := witness.Validate(sys, phi, res.Witnesses["p=1"]); err != nil {
		t.Errorf("p=1 witness: %v", err)
	}
}

func TestPortfolioProvesSafetyAndLiveness(t *testing.T) {
	sys, x := counterSystem()
	r, err := Portfolio(sys, ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7)))), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("G(x<=7) on a mod-8 counter: %v, want holds", r)
	}
	r, err = Portfolio(sys, ltl.F(ltl.Atom(expr.Eq(x.Ref(), expr.IntConst(5)))), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("F(x=5) on a mod-8 counter: %v, want holds", r)
	}
}

// --- randomized cross-validation ---

// randSystem builds a small random guarded-command system.
func randSystem(rng *rand.Rand) (*ts.System, *expr.Var, *expr.Var) {
	sys := ts.New("rand")
	b := sys.Bool("b")
	x := sys.Int("x", 0, 3)
	sys.Init(b, expr.False())
	sys.Init(x, expr.IntConst(0))

	guards := []func() *expr.Expr{
		func() *expr.Expr { return b.Ref() },
		func() *expr.Expr { return expr.Not(b.Ref()) },
		func() *expr.Expr { return expr.Eq(x.Ref(), expr.IntConst(int64(rng.Intn(4)))) },
		func() *expr.Expr { return expr.Lt(x.Ref(), expr.IntConst(int64(rng.Intn(4)))) },
		func() *expr.Expr { return expr.True() },
	}
	nRules := 2 + rng.Intn(4)
	var rules []*expr.Expr
	for i := 0; i < nRules; i++ {
		g := guards[rng.Intn(len(guards))]()
		tb := expr.BoolConst(rng.Intn(2) == 0)
		tx := expr.IntConst(int64(rng.Intn(4)))
		rules = append(rules, expr.And(g, expr.Eq(b.Next(), tb), expr.Eq(x.Next(), tx)))
	}
	// Stutter rule guarantees totality.
	rules = append(rules, expr.And(expr.Eq(b.Next(), b.Ref()), expr.Eq(x.Next(), x.Ref())))
	sys.AddTrans(expr.Or(rules...))
	return sys, b, x
}

func randPredicate(rng *rand.Rand, b, x *expr.Var) *expr.Expr {
	switch rng.Intn(4) {
	case 0:
		return expr.Or(b.Ref(), expr.Lt(x.Ref(), expr.IntConst(int64(1+rng.Intn(3)))))
	case 1:
		return expr.Ne(x.Ref(), expr.IntConst(int64(rng.Intn(4))))
	case 2:
		return expr.Implies(b.Ref(), expr.Ge(x.Ref(), expr.IntConst(int64(rng.Intn(3)))))
	default:
		return expr.Not(expr.And(b.Ref(), expr.Eq(x.Ref(), expr.IntConst(int64(rng.Intn(4))))))
	}
}

func TestRandomSystemsInvariantCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	for trial := 0; trial < 60; trial++ {
		sys, b, x := randSystem(rng)
		p := randPredicate(rng, b, x)

		ex, err := NewExplicit(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.CheckInvariant(p)
		if err != nil {
			t.Fatal(err)
		}

		ki, err := KInduction(sys, p, Options{MaxDepth: 20})
		if err != nil {
			t.Fatal(err)
		}
		if ki.Status != want.Status {
			t.Fatalf("trial %d: k-induction=%v explicit=%v (p: %s)", trial, ki.Status, want.Status, p)
		}

		sym, err := NewSym(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bd, err := sym.CheckInvariant(p)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Status != want.Status {
			t.Fatalf("trial %d: bdd=%v explicit=%v (p: %s)", trial, bd.Status, want.Status, p)
		}

		// BMC agrees on violations (it cannot prove).
		bm, err := BMC(sys, ltl.G(ltl.Atom(p)), Options{MaxDepth: 18})
		if err != nil {
			t.Fatal(err)
		}
		if want.Status == Violated && bm.Status != Violated {
			t.Fatalf("trial %d: BMC missed a violation (p: %s)", trial, p)
		}
		if want.Status == Holds && bm.Status == Violated {
			t.Fatalf("trial %d: BMC found a spurious violation (p: %s)\n%s", trial, p, bm.Trace.Full())
		}
	}
}

func TestRandomSystemsLivenessCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 40; trial++ {
		sys, b, x := randSystem(rng)
		p := randPredicate(rng, b, x)

		ex, err := NewExplicit(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantFG, err := ex.CheckFG(p)
		if err != nil {
			t.Fatal(err)
		}

		sym, err := NewSym(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotFG, err := sym.CheckLTL(ltl.F(ltl.G(ltl.Atom(p))))
		if err != nil {
			t.Fatal(err)
		}
		if gotFG.Status != wantFG.Status {
			t.Fatalf("trial %d: FG mismatch bdd=%v explicit=%v (p: %s)", trial, gotFG.Status, wantFG.Status, p)
		}

		bm, err := BMC(sys, ltl.F(ltl.G(ltl.Atom(p))), Options{MaxDepth: 14})
		if err != nil {
			t.Fatal(err)
		}
		if wantFG.Status == Violated && bm.Status != Violated {
			t.Fatalf("trial %d: BMC missed FG violation (p: %s)", trial, p)
		}
		if wantFG.Status == Holds && bm.Status == Violated {
			t.Fatalf("trial %d: BMC spurious FG violation (p: %s)", trial, p)
		}

		wantGF, err := ex.CheckGF(p)
		if err != nil {
			t.Fatal(err)
		}
		gotGF, err := sym.CheckLTL(ltl.G(ltl.F(ltl.Atom(p))))
		if err != nil {
			t.Fatal(err)
		}
		if gotGF.Status != wantGF.Status {
			t.Fatalf("trial %d: GF mismatch bdd=%v explicit=%v (p: %s)", trial, gotGF.Status, wantGF.Status, p)
		}
	}
}

func TestTimeoutReturnsUnknown(t *testing.T) {
	sys, x := counterSystem()
	r, err := BMC(sys, ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7)))), Options{MaxDepth: 1000, Timeout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown {
		t.Fatalf("BMC with 1ns timeout: %v, want unknown", r)
	}
}

// randCTL builds random CTL formulas over the two variables.
func randCTL(rng *rand.Rand, b, x *expr.Var, depth int) *ctl.Formula {
	if depth == 0 {
		return ctl.Atom(randPredicate(rng, b, x))
	}
	switch rng.Intn(8) {
	case 0:
		return ctl.Not(randCTL(rng, b, x, depth-1))
	case 1:
		return ctl.And(randCTL(rng, b, x, depth-1), randCTL(rng, b, x, depth-1))
	case 2:
		return ctl.Or(randCTL(rng, b, x, depth-1), randCTL(rng, b, x, depth-1))
	case 3:
		return ctl.EX(randCTL(rng, b, x, depth-1))
	case 4:
		return ctl.EF(randCTL(rng, b, x, depth-1))
	case 5:
		return ctl.EG(randCTL(rng, b, x, depth-1))
	case 6:
		return ctl.AG(randCTL(rng, b, x, depth-1))
	default:
		return ctl.EU(randCTL(rng, b, x, depth-1), randCTL(rng, b, x, depth-1))
	}
}

// TestRandomSystemsCTLCrossValidation compares the BDD CTL engine
// against the explicit-state oracle on random systems and formulas.
// The random systems include a stutter rule, so the transition
// relation is total and the two engines' path semantics coincide.
func TestRandomSystemsCTLCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 60; trial++ {
		sys, b, x := randSystem(rng)
		f := randCTL(rng, b, x, 2+rng.Intn(2))

		ex, err := NewExplicit(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ex.CheckCTL(f)
		if err != nil {
			t.Fatal(err)
		}
		sym, err := NewSym(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sym.CheckCTL(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Fatalf("trial %d: bdd=%v explicit=%v for %s", trial, got.Status, want.Status, f)
		}
	}
}

// TestIncrementalBMCAgrees holds both BMC paths to the explicit
// referee: G p runs the incremental unrolling (its negation is
// co-safety), F G p the per-depth rebuild of the lasso search. The
// random systems have 8 states, so MaxDepth 10 covers every shortest
// counterexample and lasso, and BMC must find a violation exactly when
// the referee does — for G p at the depth of the referee's BFS
// (shortest) trace.
func TestIncrementalBMCAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	var violations [2]int
	for trial := 0; trial < 25; trial++ {
		sys, b, x := randSystem(rng)
		p := randPredicate(rng, b, x)
		ex, err := NewExplicit(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, tc := range []struct {
			phi   *ltl.Formula
			check func(*expr.Expr) (*Result, error)
		}{
			{ltl.G(ltl.Atom(p)), ex.CheckInvariant},
			{ltl.F(ltl.G(ltl.Atom(p))), ex.CheckFG},
		} {
			want, err := tc.check(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BMC(sys, tc.phi, Options{MaxDepth: 10})
			if err != nil {
				t.Fatal(err)
			}
			if (got.Status == Violated) != (want.Status == Violated) {
				t.Fatalf("trial %d (%s): bmc=%v explicit=%v", trial, tc.phi, got.Status, want.Status)
			}
			if got.Status != Violated {
				continue
			}
			violations[i]++
			if err := witness.Validate(sys, tc.phi, got.Trace); err != nil {
				t.Fatalf("trial %d (%s): bmc trace invalid: %v", trial, tc.phi, err)
			}
			if want.Trace != nil && got.Depth != want.Trace.Len()-1 {
				t.Errorf("trial %d (%s): bmc depth %d, shortest counterexample has %d steps",
					trial, tc.phi, got.Depth, want.Trace.Len()-1)
			}
		}
	}
	if violations[0] == 0 || violations[1] == 0 {
		t.Errorf("violations per property shape %v: comparison vacuous", violations)
	}
}

// randLTL generates rich NNF-able LTL formulas (nested U, X, response
// shapes) for tableau cross-validation.
func randLTL(rng *rand.Rand, b, x *expr.Var, depth int) *ltl.Formula {
	if depth == 0 {
		return ltl.Atom(randPredicate(rng, b, x))
	}
	switch rng.Intn(9) {
	case 0:
		return ltl.Not(randLTL(rng, b, x, depth-1))
	case 1:
		return ltl.And(randLTL(rng, b, x, depth-1), randLTL(rng, b, x, depth-1))
	case 2:
		return ltl.Or(randLTL(rng, b, x, depth-1), randLTL(rng, b, x, depth-1))
	case 3:
		return ltl.X(randLTL(rng, b, x, depth-1))
	case 4:
		return ltl.F(randLTL(rng, b, x, depth-1))
	case 5:
		return ltl.G(randLTL(rng, b, x, depth-1))
	case 6:
		return ltl.U(randLTL(rng, b, x, depth-1), randLTL(rng, b, x, depth-1))
	case 7:
		return ltl.R(randLTL(rng, b, x, depth-1), randLTL(rng, b, x, depth-1))
	default: // response: G(p -> F q)
		return ltl.G(ltl.Implies(ltl.Atom(randPredicate(rng, b, x)),
			ltl.F(ltl.Atom(randPredicate(rng, b, x)))))
	}
}

// TestRandomSystemsRichLTLCrossValidation checks mutual consistency of
// the BDD tableau engine and BMC on arbitrary LTL: a BMC lasso
// counterexample contradicts a BDD "holds" (and vice versa a BDD
// "violated" must never coincide with... BMC cannot prove, so the only
// hard assertions are: BMC violated ⇒ BDD violated, and every BMC
// trace replays through the semantics).
func TestRandomSystemsRichLTLCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	agreeViolated := 0
	for trial := 0; trial < 50; trial++ {
		sys, b, x := randSystem(rng)
		phi := randLTL(rng, b, x, 2)

		sym, err := NewSym(sys, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := sym.CheckLTL(phi)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := BMC(sys, phi, Options{MaxDepth: 12})
		if err != nil {
			t.Fatal(err)
		}
		if rm.Status == Violated {
			if rb.Status != Violated {
				t.Fatalf("trial %d: BMC found a counterexample but BDD says %v for %s\n%s",
					trial, rb.Status, phi, rm.Trace.Full())
			}
			if err := witness.Validate(sys, phi, rm.Trace); err != nil {
				t.Fatalf("trial %d: BMC trace invalid: %v", trial, err)
			}
			agreeViolated++
		}
		if rb.Status == Holds && rm.Status == Violated {
			t.Fatalf("trial %d: contradiction on %s", trial, phi)
		}
	}
	if agreeViolated == 0 {
		t.Error("no violated instances generated; cross-validation vacuous")
	}
}
