package mc

import (
	"context"
	"strings"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

func TestPortfolioViolated(t *testing.T) {
	sys, x := counterSystem()
	p := expr.Le(x.Ref(), expr.IntConst(5))
	r, err := Portfolio(sys, ltl.G(ltl.Atom(p)), Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("G(x<=5): %v, want violated", r)
	}
	if !strings.HasPrefix(r.Engine, "portfolio/") {
		t.Errorf("engine %q, want portfolio/ prefix", r.Engine)
	}
	replayCex(t, sys, r.Trace, p, r.Engine)
}

func TestPortfolioHolds(t *testing.T) {
	sys, x := counterSystem()
	r, err := Portfolio(sys, ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7)))), Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("G(x<=7): %v, want holds", r)
	}
	// BMC cannot prove, so the winner must be one of the deciders.
	if r.Engine != "portfolio/k-induction" && r.Engine != "portfolio/bdd" {
		t.Errorf("engine %q, want portfolio/{k-induction,bdd}", r.Engine)
	}
	if r.Stats == nil {
		t.Error("winner should carry its engine stats")
	}
}

// Non-invariant properties drop k-induction from the lineup but must
// still be decided (by BDD) or refuted (by BMC).
func TestPortfolioLiveness(t *testing.T) {
	sys, x := counterSystem()
	// F(G(x=0)) is violated: the counter leaves 0 forever-periodically.
	r, err := Portfolio(sys, ltl.F(ltl.G(ltl.Atom(expr.Eq(x.Ref(), expr.IntConst(0))))), Options{MaxDepth: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("F(G(x=0)): %v, want violated", r)
	}
}

func TestPortfolioCancelled(t *testing.T) {
	sys, x := counterSystem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: every engine must give up cooperatively
	r, err := Portfolio(sys, ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7)))),
		Options{MaxDepth: 20, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown {
		t.Fatalf("cancelled portfolio: %v, want unknown", r)
	}
	if r.Note != "cancelled" {
		t.Errorf("note %q, want cancelled", r.Note)
	}
}

// A real-valued system restricts the lineup to BMC, which can still
// refute.
func TestPortfolioRealValued(t *testing.T) {
	sys := ts.New("real")
	v := sys.Real("v")
	sys.Init(v, expr.RealFrac(0, 1))
	sys.Assign(v, expr.Add(v.Ref(), expr.RealFrac(1, 2)))
	p := expr.Lt(v.Ref(), expr.RealFrac(3, 2))
	r, err := Portfolio(sys, ltl.G(ltl.Atom(p)), Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated {
		t.Fatalf("G(v<3/2) on v+=1/2: %v, want violated", r)
	}
	if r.Engine != "portfolio/bmc" && !strings.HasPrefix(r.Engine, "portfolio/") {
		t.Errorf("engine %q, want a portfolio engine", r.Engine)
	}
}

// wrapCounter is a counter that walks 0..n-1 and wraps around: F G
// (x=0) fails, and the only counterexample is a lasso through the whole
// n-state cycle. BDD decides it after n image steps on a few bits,
// long before BMC's per-depth lasso search reaches depth n.
func wrapCounter(n int64) (*ts.System, *ltl.Formula) {
	sys := ts.New("wrap")
	x := sys.Int("x", 0, n-1)
	sys.Init(x, expr.IntConst(0))
	sys.Assign(x, expr.Ite(expr.Lt(x.Ref(), expr.IntConst(n-1)),
		expr.Add(x.Ref(), expr.IntConst(1)), expr.IntConst(0)))
	return sys, ltl.F(ltl.G(ltl.Atom(expr.Eq(x.Ref(), expr.IntConst(0)))))
}

// A violation carries a trace whenever BMC can find one: BDD's
// traceless verdict waits for BMC's lasso instead of winning outright.
// When the lasso lies beyond MaxDepth the held verdict comes back
// traceless, never Unknown.
func TestPortfolioViolationCarriesTrace(t *testing.T) {
	const n = 24
	sys, phi := wrapCounter(n)
	for i := 0; i < 3; i++ {
		r, err := Portfolio(sys, phi, Options{MaxDepth: n + 5, ValidateWitness: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Violated || r.Trace == nil {
			t.Fatalf("run %d: %v (trace %v), want violated with a trace", i, r, r.Trace != nil)
		}
		if err := witness.Validate(sys, phi, r.Trace); err != nil {
			t.Fatalf("run %d: %s trace rejected: %v", i, r.Engine, err)
		}
		if r.Witness != witness.Validated {
			t.Fatalf("run %d: witness %q, want validated", i, r.Witness)
		}
	}

	r, err := Portfolio(sys, phi, Options{MaxDepth: n / 4, ValidateWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated || r.Trace != nil || r.Engine != "portfolio/bdd" {
		t.Fatalf("lasso beyond MaxDepth: %v (trace %v), want a traceless violated from bdd", r, r.Trace != nil)
	}
}
