package mc

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/models/rollout"
	"verdict/internal/resilience"
	"verdict/internal/smvlang"
	"verdict/internal/topo"
	"verdict/internal/ts"
)

// deepEven loads testdata/deep-even.vsmv: 40 state bits, an invariant
// that holds, and no k-inductive strengthening below depth 250, so
// only the BDD fixpoint decides it. widen replaces x's range to make
// that fixpoint 2^19 images long instead of 512.
func deepEven(t *testing.T, widen bool) (*ts.System, *ltl.Formula) {
	t.Helper()
	src, err := os.ReadFile("testdata/deep-even.vsmv")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if widen {
		text = strings.NewReplacer("x : 0..1023", "x : 0..1048575", "x < 1022", "x < 1048574").Replace(text)
	}
	prog, err := smvlang.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if n := stateBits(prog.Sys); n <= bddRaceBits {
		t.Fatalf("deep-even has %d state bits, want more than bddRaceBits (%d)", n, bddRaceBits)
	}
	return prog.Sys, prog.LTLSpecs[0]
}

// The lineup rule, pinned without timing: every case below is decided
// by a racer that started at once, so no fallback can start and
// Stats.Racers is exactly the admitted lineup.
func TestPortfolioLineup(t *testing.T) {
	small, x := counterSystem()
	m, err := rollout.Build(rollout.Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	deep, _ := deepEven(t, false)
	dx, _ := deep.VarByName("x")
	real := ts.New("real")
	v := real.Real("v")
	real.Init(v, expr.RealFrac(0, 1))
	real.Assign(v, expr.Add(v.Ref(), expr.RealFrac(1, 2)))

	for _, c := range []struct {
		name string
		sys  *ts.System
		phi  *ltl.Formula
		want []string
	}{
		{"small invariant", small, ltl.G(ltl.Atom(expr.Le(x.Ref(), expr.IntConst(5)))),
			[]string{"bmc", "k-induction", "bdd"}},
		{"test rollout", m.Sys, m.Property, []string{"bmc", "k-induction"}},
		// G(x=0 -> X x=4) is not of the form G(p): no k-induction, and
		// BDD races whatever the model's size.
		{"large non-invariant", deep, ltl.G(ltl.Implies(ltl.Atom(expr.Eq(dx.Ref(), expr.IntConst(0))),
			ltl.X(ltl.Atom(expr.Eq(dx.Ref(), expr.IntConst(4)))))), []string{"bmc", "bdd"}},
		{"real-valued", real, ltl.G(ltl.Atom(expr.Lt(v.Ref(), expr.RealFrac(3, 2)))), []string{"bmc"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := Portfolio(c.sys, c.phi, Options{MaxDepth: 25})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != Violated {
				t.Fatalf("%v, want violated", r)
			}
			if !reflect.DeepEqual(r.Stats.Racers, c.want) {
				t.Errorf("racers %v (%d state bits), want %v", r.Stats.Racers, stateBits(c.sys), c.want)
			}
		})
	}
}

// BMC and k-induction both give up on deep-even at depth 25; a rule
// that dropped BDD above the threshold would answer Unknown. The
// fallback decides it.
func TestPortfolioFallbackDecidesDeepModel(t *testing.T) {
	sys, phi := deepEven(t, false)
	for _, noCoop := range []bool{true, false} {
		r, err := Portfolio(sys, phi, Options{MaxDepth: 25, NoCooperation: noCoop})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Holds {
			t.Fatalf("no-coop=%v: %v, want holds", noCoop, r)
		}
		if want := []string{"bmc", "k-induction", "bdd(fallback)"}; !reflect.DeepEqual(r.Stats.Racers, want) {
			t.Errorf("no-coop=%v: racers %v, want %v", noCoop, r.Stats.Racers, want)
		}
		if !strings.Contains(r.Stats.String(), "racers: bmc k-induction bdd(fallback)") {
			t.Errorf("no-coop=%v: -stats line %q does not show the lineup", noCoop, r.Stats)
		}
		// With the bus on, a k-induction still running may install the
		// fallback's published reach set and prove first; either way the
		// fallback's fixpoint decided the check.
		if r.Engine != "portfolio/bdd" && (noCoop || r.Engine != "portfolio/k-induction") {
			t.Errorf("no-coop=%v: engine %q, want portfolio/bdd", noCoop, r.Engine)
		}
	}
}

// A fallback started late gets what is left of the race's time limit,
// not a fresh one: it stops on the race's deadline and reports a
// timeout, instead of overrunning until the stall timer writes it off.
func TestPortfolioFallbackKeepsRaceDeadline(t *testing.T) {
	sys, phi := deepEven(t, true)
	const timeout = time.Second
	began := time.Now()
	r, err := Portfolio(sys, phi, Options{MaxDepth: 25, Timeout: timeout})
	elapsed := time.Since(began)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown || r.Note != "timeout" {
		t.Fatalf("%v, want unknown with a timeout note", r)
	}
	if elapsed > timeout+stallGrace {
		t.Errorf("race took %v, beyond Timeout + stallGrace", elapsed)
	}
	if want := []string{"bmc", "k-induction", "bdd(fallback)"}; !reflect.DeepEqual(r.Stats.Racers, want) {
		t.Errorf("racers %v, want %v", r.Stats.Racers, want)
	}
	if engineErrorsContain(r, "stalled") {
		t.Errorf("a racer was written off as stalled: %v", r.Stats.EngineErrors)
	}
}

// A panic in the fallback is isolated like a panic in any racer: the
// race still returns, with the failure recorded.
func TestPortfolioFallbackPanicIsolated(t *testing.T) {
	restore := resilience.InjectFaults(map[string]resilience.Fault{
		"portfolio/bdd": resilience.FaultPanic,
	})
	defer restore()
	sys, phi := deepEven(t, false)
	r, err := Portfolio(sys, phi, Options{MaxDepth: 25})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unknown {
		t.Fatalf("%v, want unknown: BMC and k-induction cannot decide and the fallback died", r)
	}
	if want := []string{"bmc", "k-induction", "bdd(fallback)"}; !reflect.DeepEqual(r.Stats.Racers, want) {
		t.Errorf("racers %v, want %v", r.Stats.Racers, want)
	}
	if !engineErrorsContain(r, "bdd: ") || !engineErrorsContain(r, "injected panic") {
		t.Errorf("stats should record the panicked fallback, got %v", r.Stats.EngineErrors)
	}
}

// The fallback's deadline rule without a clock race: an engine started
// late gets only what is left of the limit, whichever of Timeout and
// Budget.Time set it.
func TestOptionsRemaining(t *testing.T) {
	began := time.Now().Add(-600 * time.Millisecond)
	for _, o := range []Options{
		{Timeout: time.Second},
		{Budget: Budget{Time: time.Second, BDDNodes: 7}},
		{Timeout: time.Hour, Budget: Budget{Time: time.Second}},
	} {
		late, ok := o.remaining(began)
		if !ok {
			t.Fatalf("timeout %v, budget %v: deadline reported passed after 600ms of 1s", o.Timeout, o.Budget)
		}
		if l := late.timeLimit(); l <= 0 || l > 400*time.Millisecond {
			t.Errorf("timeout %v, budget %v: late start gets %v, want at most the 400ms left", o.Timeout, o.Budget, l)
		}
		if late.Budget.BDDNodes != o.Budget.BDDNodes {
			t.Errorf("budget %v: node budget changed to %d", o.Budget, late.Budget.BDDNodes)
		}
	}
	if _, ok := (Options{Timeout: 500 * time.Millisecond}).remaining(began); ok {
		t.Error("a passed deadline must not start a late engine")
	}
	if o, ok := (Options{}).remaining(began); !ok || o.timeLimit() != 0 {
		t.Errorf("no limit: got %v, %v; want unlimited", o.timeLimit(), ok)
	}
}
