package mc

import (
	"sync/atomic"
	"testing"
	"time"

	"verdict/internal/ctl"
	"verdict/internal/expr"
	"verdict/internal/ts"
)

func TestExplicitDeadlockDetection(t *testing.T) {
	// x counts up and has no successor at the top: deadlock at x=2.
	sys := ts.New("dead")
	x := sys.Int("x", 0, 2)
	sys.Init(x, expr.IntConst(0))
	sys.AddTrans(expr.Eq(x.Next(), expr.Add(x.Ref(), expr.IntConst(1))))
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.HasDeadlock() {
		t.Error("deadlock at x=2 not detected")
	}

	sys2, _ := counterSystem()
	ex2, err := NewExplicit(sys2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex2.HasDeadlock() {
		t.Error("total system reported deadlocked")
	}
}

func TestExplicitStateLimit(t *testing.T) {
	sys := ts.New("big")
	sys.Int("a", 0, 63)
	sys.Int("b", 0, 63)
	// Fully nondeterministic: 4096 states.
	if _, err := NewExplicit(sys, Options{MaxExplicitStates: 10}); err == nil {
		t.Error("state limit not enforced")
	}
}

func TestExplicitCTLOnCounter(t *testing.T) {
	sys, x := counterSystem()
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    *ctl.Formula
		want Status
	}{
		{ctl.AG(ctl.Atom(expr.Le(x.Ref(), expr.IntConst(7)))), Holds},
		{ctl.AG(ctl.Atom(expr.Le(x.Ref(), expr.IntConst(5)))), Violated},
		{ctl.EF(ctl.Atom(expr.Eq(x.Ref(), expr.IntConst(6)))), Holds},
		{ctl.AF(ctl.Atom(expr.Eq(x.Ref(), expr.IntConst(6)))), Holds}, // deterministic cycle
		{ctl.EG(ctl.Atom(expr.Le(x.Ref(), expr.IntConst(5)))), Violated},
	}
	for i, c := range cases {
		r, err := ex.CheckCTL(c.f)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != c.want {
			t.Errorf("case %d (%s): %v, want %v", i, c.f, r.Status, c.want)
		}
	}
}

func TestExplicitCTLRejectsFairness(t *testing.T) {
	sys, x := counterSystem()
	sys.AddFairness(expr.Eq(x.Ref(), expr.IntConst(0)))
	ex, err := NewExplicit(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.CheckCTL(ctl.True()); err == nil {
		t.Error("fairness should be rejected by the explicit CTL checker")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.maxDepth() != 25 || o.maxExplicit() != 1_000_000 {
		t.Error("defaults wrong")
	}
	var stop atomic.Bool
	o.Timeout = time.Hour
	defer o.armStop(&stop, time.Now())()
	if stop.Load() {
		t.Error("fresh hour-long budget should not be expired")
	}
}
