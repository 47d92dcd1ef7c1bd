package rollout

import (
	"testing"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/topo"
)

func build(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Sys.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestIncrementalReuseCounted pins incremental solver reuse on the
// Figure 5 violation by counter rather than by timing: BMC extends one
// solver once per depth past 0, and k-induction extends its base and
// step solvers once each per depth. A change that re-blasts the
// unrolling at some depth lowers the count.
func TestIncrementalReuseCounted(t *testing.T) {
	m := build(t, Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
	p, ok := ltl.IsSafetyInvariant(m.Property)
	if !ok {
		t.Fatalf("property %s is not an invariant", m.Property)
	}
	for _, c := range []struct {
		name     string
		run      func() (*mc.Result, error)
		perDepth int64
	}{
		{"bmc", func() (*mc.Result, error) { return mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 25}) }, 1},
		{"k-induction", func() (*mc.Result, error) { return mc.KInduction(m.Sys, p, mc.Options{MaxDepth: 25}) }, 2},
	} {
		r, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != mc.Violated || r.Depth == 0 {
			t.Fatalf("%s: %v at depth %d, want violated past depth 0", c.name, r.Status, r.Depth)
		}
		if want := c.perDepth * int64(r.Depth); r.Stats.IncrementalReuses != want {
			t.Errorf("%s: %d incremental reuses at depth %d, want %d",
				c.name, r.Stats.IncrementalReuses, r.Depth, want)
		}
	}
}

// TestFigure5Counterexample reproduces the paper's Figure 5: with
// p = m = 1 and k = 2 on the test topology, the property
// G(converged -> available >= 1) is violated.
func TestFigure5Counterexample(t *testing.T) {
	m := build(t, Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
	r, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("p=m=1,k=2: %v, want violated", r)
	}
	if r.Trace == nil {
		t.Fatal("expected a counterexample trace")
	}
	// The final state must be converged with zero available nodes.
	last := r.Trace.States[r.Trace.Len()-1]
	if v, ok := last.Get("converged"); !ok || !v.B {
		t.Errorf("final state not converged:\n%s", r.Trace.Full())
	}
	if v, ok := last.Get("available"); !ok || v.I >= 1 {
		t.Errorf("final state available = %v, want 0", last.Values["available"])
	}
	// Sanity: at most 2 links failed along the trace.
	failed := 0
	for name, v := range last.Values {
		if len(name) > 7 && name[:7] == "failed_" && v.B {
			failed++
		}
	}
	if failed > 2 {
		t.Errorf("%d links failed, budget was 2", failed)
	}
}

// TestK0AndK1Hold verifies the property holds for k = 0 and k = 1 with
// p = m = 1 on the test topology (the Figure 6 footnote: the property
// only fails at k = 2 on "test").
func TestK0AndK1Hold(t *testing.T) {
	for _, k := range []int{0, 1} {
		m := build(t, Config{Topo: topo.Test(), P: 1, K: k, M: 1})
		sym, err := mc.NewSym(m.Sys, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := m.Sys.DefineByName("converged")
		_ = p
		prop := expr.Implies(m.Converged, expr.Ge(m.Available, expr.IntConst(1)))
		r, err := sym.CheckInvariant(prop)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != mc.Holds {
			t.Fatalf("k=%d: %v, want holds", k, r)
		}
	}
}

// TestParamSynthesis reproduces the paper's synthesis result: for
// k = 1, m = 1 the safe non-zero values of p are exactly {1, 2}.
func TestParamSynthesis(t *testing.T) {
	m := build(t, Config{Topo: topo.Test(), SynthP: true, PMax: 4, K: 1, M: 1})
	res, err := mc.SynthesizeParams(m.Sys, m.Property, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Safe) != 2 || res.Safe[0].String() != "p=1" || res.Safe[1].String() != "p=2" {
		t.Errorf("safe = %v, want {p=1, p=2}", res.Safe)
	}
	if len(res.Unsafe) != 2 || res.Unsafe[0].String() != "p=3" || res.Unsafe[1].String() != "p=4" {
		t.Errorf("unsafe = %v, want {p=3, p=4}", res.Unsafe)
	}
}

// TestBMCAndBDDAgree cross-validates the two engines on a grid of
// (p, k) configurations.
func TestBMCAndBDDAgree(t *testing.T) {
	grid := [][2]int{{1, 2}, {3, 0}, {3, 1}}
	if testing.Short() {
		grid = grid[:1]
	}
	for _, pk := range grid {
		{
			p, k := pk[0], pk[1]
			m := build(t, Config{Topo: topo.Test(), P: p, K: k, M: 1})
			prop := expr.Implies(m.Converged, expr.Ge(m.Available, expr.IntConst(1)))
			sym, err := mc.NewSym(m.Sys, mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rb, err := sym.CheckInvariant(prop)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 10})
			if err != nil {
				t.Fatal(err)
			}
			if rb.Status == mc.Violated && rs.Status != mc.Violated {
				t.Errorf("p=%d k=%d: BDD violated but BMC missed it", p, k)
			}
			if rb.Status == mc.Holds && rs.Status == mc.Violated {
				t.Errorf("p=%d k=%d: BMC found spurious violation:\n%s", p, k, rs.Trace.Full())
			}
		}
	}
}

// TestInitialStateConverged checks that the generated initial state
// satisfies the convergence DEFINE (distances start at their BFS
// values).
func TestInitialStateConverged(t *testing.T) {
	m := build(t, Config{Topo: topo.Test(), P: 1, K: 0, M: 1})
	// available should initially equal the number of service nodes and
	// converged should be true; check by evaluating the DEFINEs in the
	// init environment extracted from a depth-0 BMC "witness".
	env := expr.MapEnv{}
	g := topo.Test()
	dist := bfsDistances(g, g.NodesByRole("frontend")[0], 6)
	for id, v := range m.Dist {
		env[v] = expr.IntValue(dist[id])
	}
	for _, v := range m.Phases {
		env[v] = expr.EnumValue(PhasePending)
	}
	for _, v := range m.Failed {
		env[v] = expr.BoolValue(false)
	}
	conv, err := expr.EvalBool(m.Converged, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !conv {
		t.Error("initial distances are not a fixpoint")
	}
	avail, err := expr.Eval(m.Available, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if avail.I != 4 {
		t.Errorf("initial available = %v, want 4", avail)
	}
}

// TestFatTreeViolationAtHalfK checks the Figure 6 relationship: on a
// fat tree of parameter kf, isolating the front-end needs exactly kf/2
// link failures, so the property fails at k = kf/2 and holds at
// k = kf/2 - 1 (with p = m = 1).
func TestFatTreeViolationAtHalfK(t *testing.T) {
	m := build(t, Config{Topo: topo.FatTree(4), P: 1, K: 2, M: 1})
	r, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != mc.Violated {
		t.Fatalf("fattree4 k=2: %v, want violated", r)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("nil topology accepted")
	}
	g := topo.New("empty")
	g.AddNode("a", "frontend")
	if _, err := Build(Config{Topo: g}); err == nil {
		t.Error("topology without service nodes accepted")
	}
	if _, err := Build(Config{Topo: topo.Test(), SynthP: true, PMax: 0}); err == nil {
		t.Error("SynthP with PMax=0 accepted")
	}
}
