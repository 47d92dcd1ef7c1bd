package mc

import (
	"strings"
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/resilience"
	"verdict/internal/ts"
)

// wideSystem builds a system hard enough that tiny budgets exhaust:
// n interacting counters whose safety invariant needs a deep search.
func wideSystem(n int) (*ts.System, *expr.Expr) {
	sys := ts.New("wide")
	var sum *expr.Expr
	for i := 0; i < n; i++ {
		x := sys.Int(string(rune('a'+i)), 0, 7)
		sys.Init(x, expr.IntConst(0))
		sys.Assign(x, expr.Ite(
			expr.Lt(x.Ref(), expr.IntConst(7)),
			expr.Add(x.Ref(), expr.IntConst(1)),
			expr.IntConst(0),
		))
		if sum == nil {
			sum = x.Ref()
		} else {
			sum = expr.Add(sum, x.Ref())
		}
	}
	return sys, expr.Le(sum, expr.IntConst(int64(7*n)))
}

func TestSATConflictBudgetDegrades(t *testing.T) {
	sys, x := counterSystem()
	// An unsatisfiable induction step forced deep: G(x<=7) holds but a
	// 1-conflict budget cannot finish the base/step solves for long.
	r, err := KInduction(sys, expr.Le(x.Ref(), expr.IntConst(7)),
		Options{Budget: Budget{SATConflicts: 1}, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Either the engine finished within a conflict (fine) or degraded
	// to Unknown with the budget note — it must never error or hang.
	if r.Status == Unknown && !strings.Contains(r.Note, "budget") {
		t.Fatalf("unknown without budget note: %v", r)
	}
}

func TestBDDNodeBudgetDegrades(t *testing.T) {
	sys, _ := wideSystem(6)
	_, err := NewSym(sys, Options{Budget: Budget{BDDNodes: 64}})
	if err != ErrBudget {
		t.Fatalf("NewSym with 64-node budget: err=%v, want ErrBudget", err)
	}
}

func TestBDDNodeBudgetCheckUnknown(t *testing.T) {
	sys, x := counterSystem()
	// Build with a generous budget so compilation succeeds...
	sym, err := NewSym(sys, Options{Budget: Budget{BDDNodes: 100000}})
	if err != nil {
		t.Fatal(err)
	}
	// ...then tighten the arena to just above its current size so the
	// check's fixpoint exhausts it.
	sym.m.NodeBudget = sym.m.Size() + 2
	r, err := sym.CheckInvariant(expr.Le(x.Ref(), expr.IntConst(7)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown || !strings.Contains(r.Note, "bdd node budget") {
		t.Fatalf("check under exhausted arena: %v, want unknown with budget note", r)
	}
}

func TestWithRetryEscalates(t *testing.T) {
	sys, x := counterSystem()
	phi := ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7))))
	var budgets []int64
	r, err := WithRetry(
		Options{Budget: Budget{SATConflicts: 1}},
		resilience.RetryPolicy{Attempts: 4, Factor: 4},
		func(o Options) (*Result, error) {
			budgets = append(budgets, o.Budget.SATConflicts)
			if o.Budget.SATConflicts < 16 {
				return &Result{Status: Unknown, Note: "sat conflict budget exhausted"}, nil
			}
			return Portfolio(sys, phi, o)
		})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("retry ladder: %v, want holds", r)
	}
	want := []int64{1, 4, 16}
	if len(budgets) != len(want) {
		t.Fatalf("budgets seen: %v, want %v", budgets, want)
	}
	for i := range want {
		if budgets[i] != want[i] {
			t.Fatalf("budgets seen: %v, want %v", budgets, want)
		}
	}
	if !strings.Contains(r.Note, "retry attempt 3") {
		t.Fatalf("winning note should name the attempt, got %q", r.Note)
	}
}

func TestWithRetryNoBudgetRunsOnce(t *testing.T) {
	calls := 0
	r, err := WithRetry(Options{}, resilience.RetryPolicy{Attempts: 5, Factor: 2},
		func(o Options) (*Result, error) {
			calls++
			return &Result{Status: Unknown}, nil
		})
	if err != nil || calls != 1 || r.Status != Unknown {
		t.Fatalf("zero budget should run once: calls=%d r=%v err=%v", calls, r, err)
	}
}

func TestWithRetryNoAttemptsRunsOnceUntouched(t *testing.T) {
	calls := 0
	r, err := WithRetry(Options{Budget: Budget{SATConflicts: 1}}, resilience.RetryPolicy{},
		func(o Options) (*Result, error) {
			calls++
			return &Result{Status: Unknown, Note: "sat conflict budget exhausted"}, nil
		})
	if err != nil || calls != 1 || r.Note != "sat conflict budget exhausted" {
		t.Fatalf("zero attempts should run once with no retry note: calls=%d r=%v err=%v", calls, r, err)
	}
}

func TestPortfolioWithRetry(t *testing.T) {
	sys, x := counterSystem()
	phi := ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(7))))
	r, err := WithRetry(Options{Budget: Budget{SATConflicts: 1, BDDNodes: 32}},
		resilience.RetryPolicy{Attempts: 6, Factor: 4},
		func(o Options) (*Result, error) { return Portfolio(sys, phi, o) })
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("portfolio under the retry ladder: %v, want holds", r)
	}
}
