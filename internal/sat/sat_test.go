package sat

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestBasicSat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.AddClause(Neg(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if s.Value(a) != FalseV {
		t.Errorf("a = %v, want false", s.Value(a))
	}
	if s.Value(b) != TrueV {
		t.Errorf("b = %v, want true", s.Value(b))
	}
}

func TestBasicUnsat(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	s.AddClause(Pos(a), Neg(b))
	s.AddClause(Neg(a), Pos(b))
	s.AddClause(Neg(a), Neg(b))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	s.NewVar()
	if s.AddClause() {
		t.Fatal("AddClause() of empty clause returned true")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(Pos(a), Neg(a)) {
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Errorf("NumClauses = %d, want 0 (tautology dropped)", s.NumClauses())
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(Pos(a), Pos(a), Pos(a))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if s.Value(a) != TrueV {
		t.Errorf("a = %v, want true", s.Value(a))
	}
}

func TestUnitPropagationChain(t *testing.T) {
	s := New()
	n := 50
	vs := make([]int, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	s.AddClause(Pos(vs[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(Neg(vs[i]), Pos(vs[i+1]))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	for i, v := range vs {
		if s.Value(v) != TrueV {
			t.Fatalf("v%d = %v, want true", i, s.Value(v))
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Neg(a), Pos(b))

	if got := s.Solve(Pos(a)); got != Sat {
		t.Fatalf("Solve(a) = %v, want sat", got)
	}
	if s.Value(b) != TrueV {
		t.Errorf("b = %v under assumption a, want true", s.Value(b))
	}
	// Incompatible assumptions.
	if got := s.Solve(Pos(a), Neg(b)); got != Unsat {
		t.Fatalf("Solve(a, !b) = %v, want unsat", got)
	}
	core := s.Core()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("Core = %v, want nonempty subset of assumptions", core)
	}
	for _, l := range core {
		if l != Pos(a) && l != Neg(b) {
			t.Errorf("core literal %v is not an assumption", l)
		}
	}
	// Solver must remain usable afterwards.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() after assumption-unsat = %v, want sat", got)
	}
}

func TestCoreMinimalish(t *testing.T) {
	// x1..x4 assumptions, but only x1 & x2 conflict via clauses.
	s := New()
	x := make([]int, 4)
	for i := range x {
		x[i] = s.NewVar()
	}
	s.AddClause(Neg(x[0]), Neg(x[1]))
	asm := []Lit{Pos(x[0]), Pos(x[1]), Pos(x[2]), Pos(x[3])}
	if got := s.Solve(asm...); got != Unsat {
		t.Fatalf("Solve = %v, want unsat", got)
	}
	core := s.Core()
	inCore := map[Lit]bool{}
	for _, l := range core {
		inCore[l] = true
	}
	if !inCore[Pos(x[0])] || !inCore[Pos(x[1])] {
		t.Errorf("Core = %v, must contain x0 and x1", core)
	}
	if inCore[Pos(x[2])] || inCore[Pos(x[3])] {
		t.Errorf("Core = %v, should not contain irrelevant assumptions", core)
	}
}

func TestIncrementalAdding(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(Pos(a), Pos(b))
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve = %v, want sat", got)
	}
	s.AddClause(Neg(a))
	s.AddClause(Neg(b))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after narrowing, Solve = %v, want unsat", got)
	}
}

func TestPhaseSuggestion(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(Pos(a), Pos(b)) // satisfiable either way
	s.SetPhase(a, false)
	s.SetPhase(b, true)
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want sat", got)
	}
	if s.Value(b) != TrueV {
		t.Errorf("b = %v, want suggested phase true", s.Value(b))
	}
}

// bruteForce checks satisfiability by enumeration; n must be small.
func bruteForce(n int, clauses [][]Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				bit := m>>(l.Var())&1 == 1
				if bit != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		m := 1 + rng.Intn(5*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			c := make([]Lit, k)
			for j := range c {
				c[j] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForce(n, clauses)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce sat=%v clauses=%v", trial, got, want, clauses)
		}
		if got == Sat {
			// Verify the model satisfies every clause.
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if s.ValueLit(l) == TrueV {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy clause %v", trial, c)
				}
			}
		}
	}
}

func TestRandomWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(8)
		m := 1 + rng.Intn(4*n)
		clauses := make([][]Lit, m)
		for i := range clauses {
			k := 1 + rng.Intn(3)
			c := make([]Lit, k)
			for j := range c {
				c[j] = MkLit(rng.Intn(n), rng.Intn(2) == 0)
			}
			clauses[i] = c
		}
		nAsm := rng.Intn(3)
		asm := make([]Lit, 0, nAsm)
		used := map[int]bool{}
		for len(asm) < nAsm {
			v := rng.Intn(n)
			if used[v] {
				continue
			}
			used[v] = true
			asm = append(asm, MkLit(v, rng.Intn(2) == 0))
		}
		s := New()
		for i := 0; i < n; i++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve(asm...)
		// Brute force with assumptions as unit clauses.
		all := append([][]Lit{}, clauses...)
		for _, a := range asm {
			all = append(all, []Lit{a})
		}
		want := bruteForce(n, all)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v asm=%v clauses=%v", trial, got, want, asm, clauses)
		}
		if got == Unsat {
			// The core, added as units, must itself be unsat with clauses.
			coreCl := append([][]Lit{}, clauses...)
			for _, l := range s.Core() {
				coreCl = append(coreCl, []Lit{l})
			}
			if bruteForce(n, coreCl) {
				t.Fatalf("trial %d: core %v is not actually conflicting", trial, s.Core())
			}
		}
	}
}

// pigeonhole returns a solver holding PHP(p, h): p pigeons in h holes,
// each pigeon in some hole and no two in one; unsatisfiable for p > h,
// and hard for resolution.
func pigeonhole(p, h int) *Solver {
	s := New()
	first := s.NewVars(p * h)
	in := func(i, j int) int { return first + i*h + j }
	for i := 0; i < p; i++ {
		c := make([]Lit, h)
		for j := 0; j < h; j++ {
			c[j] = Pos(in(i, j))
		}
		s.AddClause(c...)
	}
	for j := 0; j < h; j++ {
		for i1 := 0; i1 < p; i1++ {
			for i2 := i1 + 1; i2 < p; i2++ {
				s.AddClause(Neg(in(i1, j)), Neg(in(i2, j)))
			}
		}
	}
	return s
}

func TestPigeonhole(t *testing.T) {
	// PHP(5,4): 5 pigeons, 4 holes — classic small hard UNSAT.
	s := pigeonhole(5, 4)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(5,4) = %v, want unsat", got)
	}
	if s.Conflicts == 0 {
		t.Error("expected a nontrivial search (no conflicts recorded)")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard instance with a tiny budget must return Unknown.
	s := pigeonhole(8, 7)
	s.ConflictBudget = 10
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with tiny budget = %v, want unknown", got)
	}
	s.ConflictBudget = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve without budget = %v, want unsat", got)
	}
}

// A Stop flag set before the search starts ends it at once: Unknown
// with StopInterrupt after at most one conflict, where the first
// restart alone runs 100. Clearing the flag lets the same solver
// decide the instance.
func TestStopBeforeSolve(t *testing.T) {
	s := pigeonhole(8, 7)
	var stop atomic.Bool
	stop.Store(true)
	s.Stop = &stop
	if got := s.SolveAssuming(); got != Unknown || s.LastStop() != StopInterrupt {
		t.Fatalf("stopped solve = %v (stop cause %v), want unknown by interrupt", got, s.LastStop())
	}
	if s.Conflicts > 1 {
		t.Errorf("stopped solve ran %d conflicts, want at most 1", s.Conflicts)
	}
	stop.Store(false)
	if got := s.SolveAssuming(); got != Unsat || s.LastStop() != StopNone {
		t.Fatalf("solve after clearing stop = %v (stop cause %v), want unsat", got, s.LastStop())
	}
}

// A Stop flag set by another goroutine mid-search ends the search
// with StopInterrupt.
func TestStopDuringSolve(t *testing.T) {
	s := pigeonhole(11, 10) // far beyond what this test waits for
	var stop atomic.Bool
	s.Stop = &stop
	time.AfterFunc(20*time.Millisecond, func() { stop.Store(true) })
	if got := s.SolveAssuming(); got != Unknown || s.LastStop() != StopInterrupt {
		t.Fatalf("solve = %v (stop cause %v), want unknown by interrupt", got, s.LastStop())
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(5, true)
	if l.Var() != 5 || !l.Sign() {
		t.Errorf("MkLit(5,true): Var=%d Sign=%v", l.Var(), l.Sign())
	}
	if l.Not().Sign() || l.Not().Var() != 5 {
		t.Errorf("Not broken: %v", l.Not())
	}
	if Pos(3).String() != "4" || Neg(3).String() != "-4" {
		t.Errorf("String: %s %s", Pos(3), Neg(3))
	}
}
