package lbecmp

import (
	"math/big"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/mc"
	"verdict/internal/trace"
	"verdict/internal/witness"
)

// stableAt evaluates m.Stable in state i of tr, with the trace's
// parameters bound.
func stableAt(m *Model, tr *trace.Trace, i int) (bool, error) {
	env := expr.MapEnv{}
	for _, v := range m.Sys.Vars() {
		env[v], _ = tr.States[i].Get(v.Name)
	}
	for _, p := range m.Sys.Params() {
		env[p] = tr.Params[p.Name]
	}
	return expr.EvalBool(m.Stable, env, nil)
}

// TestOscillationFound reproduces the paper's second case study: the
// model checker finds a lasso counterexample to F(G(stable)) together
// with concrete rational traffic parameters.
func TestOscillationFound(t *testing.T) {
	m := Build(Default())
	if err := m.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := mc.BMC(m.Sys, m.PropertyFG, mc.Options{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("F(G(stable)): %v, want violated", r)
	}
	if r.Trace == nil || !r.Trace.IsLasso() {
		t.Fatal("oscillation counterexample must be a lasso")
	}
	if err := witness.Validate(m.Sys, m.PropertyFG, r.Trace); err != nil {
		t.Fatalf("trace replay failed: %v\n%s", err, r.Trace.Full())
	}
	// The loop must contain an unstable state.
	unstable := false
	for i := r.Trace.LoopStart; i < r.Trace.Len(); i++ {
		ok, err := stableAt(m, r.Trace, i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			unstable = true
		}
	}
	if !unstable {
		t.Errorf("lasso loop is entirely stable:\n%s", r.Trace.Full())
	}
	// Parameters must be strictly positive rationals.
	for _, name := range []string{"ta", "tb", "e"} {
		v, ok := r.Trace.Params[name]
		if !ok || v.Kind != expr.KindReal {
			t.Fatalf("missing real parameter %s in trace", name)
		}
		if v.R.Sign() <= 0 {
			t.Errorf("parameter %s = %v, want > 0", name, v.R)
		}
	}
}

// TestConditionalOscillation reproduces the refined experiment: even
// restricted to initially-stable configurations, the system can start
// oscillating after the external traffic increase
// (stable -> F(G(stable)) is violated).
func TestConditionalOscillation(t *testing.T) {
	m := Build(Default())
	r, err := mc.BMC(m.Sys, m.PropertyCond, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("stable -> F(G(stable)): %v, want violated", r)
	}
	if err := witness.Validate(m.Sys, m.PropertyCond, r.Trace); err != nil {
		t.Fatalf("trace replay failed: %v\n%s", err, r.Trace.Full())
	}
	// State 0 must be stable.
	ok, err := stableAt(m, r.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("initial state is not stable:\n%s", r.Trace.Full())
	}
	// Somewhere in the loop the system is unstable.
	unstable := false
	for i := r.Trace.LoopStart; i < r.Trace.Len(); i++ {
		st, err := stableAt(m, r.Trace, i)
		if err != nil {
			t.Fatal(err)
		}
		if !st {
			unstable = true
		}
	}
	if !unstable {
		t.Error("loop is entirely stable; not an oscillation")
	}
}

// TestHandPickedParametersOscillate replays the analytical oscillation
// cycle (1,4)→(1,3)→(2,3)→(2,4) with ta=1, tb=2, e=8 (external traffic
// on R1–R4) through the raw evaluator, verifying the model's LB
// decisions match the paper's narrative steps (3)–(6).
func TestHandPickedParametersOscillate(t *testing.T) {
	m := Build(Default())
	sys := m.Sys
	chooseA, _ := sys.DefineByName("choose_a")
	chooseB, _ := sys.DefineByName("choose_b")

	mkEnv := func(wa, wb, turnA bool, ext string) expr.MapEnv {
		return expr.MapEnv{
			m.WA:      expr.BoolValue(wa),
			m.WB:      expr.BoolValue(wb),
			m.TurnA:   expr.BoolValue(turnA),
			m.ExtLink: expr.EnumValue(ext),
			m.Ta:      expr.RealValue(big.NewRat(1, 1)),
			m.Tb:      expr.RealValue(big.NewRat(2, 1)),
			m.E:       expr.RealValue(big.NewRat(8, 1)),
		}
	}
	evalB := func(e *expr.Expr, env expr.MapEnv) bool {
		v, err := expr.EvalBool(e, env, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// Without external traffic, (wa=p1, wb=p4) is stable.
	env := mkEnv(true, false, false, "none")
	if !evalB(m.Stable, env) {
		t.Fatal("(p1,p4) without external traffic should be stable")
	}
	// With external traffic on R1–R4: app b prefers p3 (step 3).
	env = mkEnv(true, false, false, "R1R4")
	if !evalB(chooseB, env) {
		t.Error("step 3: app b should move to p3")
	}
	// At (p1,p3): app a prefers p2 (step 4).
	env = mkEnv(true, true, true, "R1R4")
	if evalB(chooseA, env) {
		t.Error("step 4: app a should move to p2")
	}
	// At (p2,p3): app b moves back to p4 (step 5).
	env = mkEnv(false, true, false, "R1R4")
	if evalB(chooseB, env) {
		t.Error("step 5: app b should move back to p4")
	}
	// At (p2,p4): app a moves back to p1 (step 6) — closing the cycle.
	env = mkEnv(false, false, true, "R1R4")
	if !evalB(chooseA, env) {
		t.Error("step 6: app a should move back to p1")
	}
}

// TestStableConfigurationStaysStable: with external traffic never
// arriving and stable weights, the transition keeps weights unchanged.
func TestStableConfigurationStaysStable(t *testing.T) {
	m := Build(Default())
	env := expr.MapEnv{
		m.WA:      expr.BoolValue(true),
		m.WB:      expr.BoolValue(false),
		m.TurnA:   expr.BoolValue(true),
		m.ExtLink: expr.EnumValue("none"),
		m.Ta:      expr.RealValue(big.NewRat(1, 1)),
		m.Tb:      expr.RealValue(big.NewRat(2, 1)),
		m.E:       expr.RealValue(big.NewRat(8, 1)),
	}
	next := expr.MapEnv{
		m.WA:      expr.BoolValue(true),
		m.WB:      expr.BoolValue(false),
		m.TurnA:   expr.BoolValue(false),
		m.ExtLink: expr.EnumValue("none"),
	}
	ok, err := expr.EvalBool(m.Sys.TransExpr(), env, next)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("keeping stable weights should be a valid transition")
	}
	// Changing wa on a's turn against the choice function is invalid.
	next[m.WA] = expr.BoolValue(false)
	ok, err = expr.EvalBool(m.Sys.TransExpr(), env, next)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("LB must follow its choice function deterministically")
	}
}

// TestResponseTimeFormulas spot-checks the RT DEFINEs at a known point.
func TestResponseTimeFormulas(t *testing.T) {
	m := Build(Default())
	env := expr.MapEnv{
		m.WA:      expr.BoolValue(true), // p1 active
		m.WB:      expr.BoolValue(true), // p3 active
		m.TurnA:   expr.BoolValue(false),
		m.ExtLink: expr.EnumValue("none"),
		m.Ta:      expr.RealValue(big.NewRat(1, 1)),
		m.Tb:      expr.RealValue(big.NewRat(2, 1)),
		m.E:       expr.RealValue(big.NewRat(8, 1)),
	}
	// load R1R2 = ta + tb = 3; RT p1 = 1·3 + 0 = 3.
	v, err := expr.Eval(m.RT["p1"], env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.R.Cmp(big.NewRat(3, 1)) != 0 {
		t.Errorf("rt_p1 = %v, want 3", v.R)
	}
	// load s2 = tb = 2 (only p3); RT p3 = 3·2 + 1·3 = 9.
	v, err = expr.Eval(m.RT["p3"], env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.R.Cmp(big.NewRat(9, 1)) != 0 {
		t.Errorf("rt_p3 = %v, want 9", v.R)
	}
}
