package abstract

// Spurious-counterexample regressions: hand-built topologies where the
// naive (unrefined) quotient provably lies — the lumped failure
// counters claim a cheap cut that the concrete topology does not
// suffer — pinned as tests that (a) the lie is real, i.e. the initial
// quotient alone returns Violated where the concrete answer is Holds,
// and (b) the CEGAR loop repairs it within a small, explicit number of
// refinements. The budget-exhaustion path is pinned in cegar_test.go.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// podsWithBackdoor: two aggregation switches that the partition lumps
// into one class, joined by a core backdoor.
//
//	     fe
//	    /  \
//	  a1    a2
//	 /  \  /  \
//	s1 s2 c s3 s4   (c links a1-a2; each service has one uplink)
//
// The naive quotient lies at k=1: one failure in the fe__a bundle
// drives the bundle counter to the per-member degree (1), claiming
// both aggs are cut from the frontend — but concretely the failure
// lands on one agg, and its services stay reachable over the core
// backdoor. CEGAR must split the victim agg out and prove Holds.
func podsWithBackdoor() *topo.Graph {
	g := topo.New("pods-backdoor")
	fe := g.AddNode("fe", "frontend")
	a1 := g.AddNode("a1", "agg")
	a2 := g.AddNode("a2", "agg")
	c := g.AddNode("c", "core")
	g.AddLink(fe, a1)
	g.AddLink(fe, a2)
	g.AddLink(a1, c)
	g.AddLink(a2, c)
	for i, a := range []int{a1, a1, a2, a2} {
		s := g.AddNode([]string{"s1", "s2", "s3", "s4"}[i], "service")
		g.AddLink(a, s)
	}
	return g
}

// crossedRelays: the Figure 5 shape rebuilt by hand with uneven,
// crossed attachment — s1 reaches only r1 and s4 only r2, while s2
// and s3 reach both. The partition lumps {s1,s4} and {s2,s3} even
// though their concrete environments differ, which is exactly the
// lumping the naive quotient's lie exploits.
func crossedRelays() *topo.Graph {
	g := topo.New("crossed-relays")
	fe := g.AddNode("fe", "frontend")
	r1 := g.AddNode("r1", "relay")
	r2 := g.AddNode("r2", "relay")
	s1 := g.AddNode("s1", "service")
	s2 := g.AddNode("s2", "service")
	s3 := g.AddNode("s3", "service")
	s4 := g.AddNode("s4", "service")
	g.AddLink(fe, r1)
	g.AddLink(fe, r2)
	g.AddLink(r1, s1)
	g.AddLink(r1, s2)
	g.AddLink(r1, s3)
	g.AddLink(r2, s2)
	g.AddLink(r2, s3)
	g.AddLink(r2, s4)
	return g
}

// naiveQuotientLies asserts the initial quotient alone (no CEGAR)
// returns Violated while the concrete system holds — the premise of
// the refinement tests below.
func naiveQuotientLies(t *testing.T, cfg rollout.Config) {
	t.Helper()
	opts := mc.Options{MaxDepth: 14, Timeout: 30 * time.Second, ValidateWitness: true}
	q, err := BuildQuotient(cfg, NewPartition(cfg.Topo))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := mc.Portfolio(q.Sys, q.Property, opts)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Status != mc.Violated {
		t.Fatalf("naive quotient on %s: got %s, want the provable lie (violated)",
			cfg.Topo.Name, naive.Status)
	}
	cm, err := rollout.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	concrete, err := mc.Portfolio(cm.Sys, cm.Property, opts)
	if err != nil {
		t.Fatal(err)
	}
	if concrete.Status != mc.Holds {
		t.Fatalf("concrete %s: got %s, want holds — test premise broken", cfg.Topo.Name, concrete.Status)
	}
}

func TestSpuriousPodsWithBackdoor(t *testing.T) {
	cfg := rollout.Config{Topo: podsWithBackdoor(), P: 1, K: 1, M: 1}
	naiveQuotientLies(t, cfg)

	res, err := Check(cfg, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mc.Holds {
		t.Fatalf("CEGAR: got %s, want holds (note: %s)", res.Status, res.Note)
	}
	if res.Spurious == 0 {
		t.Fatal("CEGAR reported no spurious traces on a lying quotient")
	}
	if res.Refinements > 4 {
		t.Fatalf("CEGAR needed %d refinements, want <= 4 on a 9-node topology", res.Refinements)
	}
}

func TestSpuriousCrossedRelays(t *testing.T) {
	// m=2: one failure plus one updating node can take availability to
	// exactly 2, never below — the property holds, but only after the
	// relay (and service) lumping is split.
	cfg := rollout.Config{Topo: crossedRelays(), P: 1, K: 1, M: 2}
	naiveQuotientLies(t, cfg)

	res, err := Check(cfg, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mc.Holds {
		t.Fatalf("CEGAR: got %s, want holds (note: %s)", res.Status, res.Note)
	}
	if res.Spurious == 0 || res.Refinements > 6 {
		t.Fatalf("CEGAR trajectory out of bounds: %d refinements, %d spurious",
			res.Refinements, res.Spurious)
	}

	// m=3 flips the concrete verdict: cutting s1 (or s4) plus one
	// updating node leaves two available. The abstracted pipeline must
	// find it and certify by replay.
	cfg.M = 3
	res, err = Check(cfg, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != mc.Violated || !res.CertifiedReplay {
		t.Fatalf("m=3: got %s (replay=%v), want certified violation (note: %s)",
			res.Status, res.CertifiedReplay, res.Note)
	}
}

// TestSpuriousBudgetTooSmall pins the clean-error contract: when
// every counterexample an engine produces is spurious, exhausting the
// refinement budget must surface ErrRefinementBudget (wrapped, with
// topology context), never a wrong verdict. The engine is a stub that
// always reports a violation with all counters zero — a trace that
// can never concretize, making the exhaustion deterministic
// regardless of real-engine scheduling.
func TestSpuriousBudgetTooSmall(t *testing.T) {
	cfg := rollout.Config{Topo: crossedRelays(), P: 1, K: 1, M: 2}
	opts := testOpts()
	opts.RefinementBudget = 1
	opts.Check = alwaysSpurious
	res, err := Check(cfg, opts)
	if err == nil {
		t.Fatalf("got verdict %s, want ErrRefinementBudget", res.Status)
	}
	if !errors.Is(err, ErrRefinementBudget) {
		t.Fatalf("error does not wrap ErrRefinementBudget: %v", err)
	}
	if got := err.Error(); !strings.Contains(got, "crossed-relays") {
		t.Fatalf("budget error lacks topology context: %v", err)
	}
	if res == nil || res.Refinements != 1 || res.Spurious != 2 {
		t.Fatalf("partial result missing or wrong trajectory: %+v", res)
	}
}

// alwaysSpurious claims a violation whose trace has every counter at
// zero: the concretization reproduces the unperturbed topology, finds
// full availability, and must classify it spurious every time.
func alwaysSpurious(sys *ts.System, phi *ltl.Formula, o mc.Options) (*mc.Result, error) {
	tr := trace.New()
	for i := 0; i < 2; i++ {
		st := trace.NewState()
		for _, v := range sys.Vars() {
			st.Values[v.Name] = expr.IntValue(0)
		}
		tr.States = append(tr.States, st)
	}
	return &mc.Result{Status: mc.Violated, Trace: tr, Engine: "stub"}, nil
}
