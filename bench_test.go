// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of verdict's own design choices. Run:
//
//	go test -bench=. -benchmem
//
// The cmd/verdict-bench command prints the same experiments as tables;
// EXPERIMENTS.md records paper-vs-measured values.
package verdict_test

import (
	"context"
	"fmt"
	"testing"

	"verdict"
	"verdict/internal/incidents"
	"verdict/internal/mc"
	"verdict/internal/models/lbecmp"
	"verdict/internal/models/rollout"
	"verdict/internal/pool"
	"verdict/internal/topo"
)

// BenchmarkTable1 regenerates the incident-study aggregation.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := incidents.Table1(incidents.Dataset())
		if tab[incidents.DynamicControl][2].Count != 38 {
			b.Fatal("table 1 mismatch")
		}
	}
}

// BenchmarkFigure2 regenerates the descheduler-oscillation series.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _ := verdict.SimulateFigure2(verdict.Figure2Config{})
		if verdict.SimTransitions(series) < 5 {
			b.Fatal("no oscillation")
		}
	}
}

// BenchmarkFigure5 regenerates the case-study-1 counterexample search
// (p=m=1, k=2 on the test topology).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := verdict.BuildRollout(verdict.RolloutConfig{
			Topo: verdict.TestTopology(), P: 1, K: 2, M: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := verdict.FindCounterexample(m.Sys, m.Property, verdict.Options{MaxDepth: 10})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != verdict.Violated {
			b.Fatal("expected violation")
		}
	}
}

// BenchmarkParamSynthesis regenerates the p ∈ {1,2} synthesis result.
func BenchmarkParamSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := verdict.BuildRollout(verdict.RolloutConfig{
			Topo: verdict.TestTopology(), SynthP: true, PMax: 4, K: 1, M: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := verdict.SynthesizeParams(m.Sys, m.Property, verdict.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Safe) != 2 {
			b.Fatalf("safe = %v", res.Safe)
		}
	}
}

// BenchmarkCaseStudy2 regenerates the LB+ECMP oscillation lassos for
// both liveness properties.
func BenchmarkCaseStudy2(b *testing.B) {
	cfgs := []struct {
		name string
		pick func(m *lbecmp.Model) *verdict.LTL
	}{
		{"FG_stable", func(m *lbecmp.Model) *verdict.LTL { return m.PropertyFG }},
		{"stable_implies_FG_stable", func(m *lbecmp.Model) *verdict.LTL { return m.PropertyCond }},
	}
	for _, c := range cfgs {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := lbecmp.Build(lbecmp.Default())
				res, err := mc.BMC(m.Sys, c.pick(m), mc.Options{MaxDepth: 8})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != mc.Violated {
					b.Fatal("expected oscillation")
				}
			}
		})
	}
}

// BenchmarkFigure6 regenerates the scalability sweep points: violation
// search at the critical k per topology, and verification (k-induction
// and BDD) on the small cases. Larger fat trees run under
// cmd/verdict-bench where a wall-clock budget applies.
func BenchmarkFigure6(b *testing.B) {
	topos := []struct {
		name  string
		build func() *topo.Graph
		kViol int
	}{
		{"test", topo.Test, 2},
		{"fattree4", func() *topo.Graph { return topo.FatTree(4) }, 2},
		{"fattree6", func() *topo.Graph { return topo.FatTree(6) }, 3},
		{"fattree8", func() *topo.Graph { return topo.FatTree(8) }, 4},
	}
	for _, tc := range topos {
		b.Run("violation/"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := rollout.Build(rollout.Config{Topo: tc.build(), P: 1, K: tc.kViol, M: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 10})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != mc.Violated {
					b.Fatalf("%s: expected violation at k=%d", tc.name, tc.kViol)
				}
			}
		})
	}
	for _, tc := range topos[:3] { // k-induction verification stays fast
		for k := 0; k <= 1; k++ {
			b.Run(fmt.Sprintf("verify-kind/%s/k=%d", tc.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m, err := rollout.Build(rollout.Config{Topo: tc.build(), P: 1, K: k, M: 1})
					if err != nil {
						b.Fatal(err)
					}
					res, err := mc.KInduction(m.Sys, m.SafetyPredicate(), mc.Options{MaxDepth: 20})
					if err != nil {
						b.Fatal(err)
					}
					if res.Status != mc.Holds {
						b.Fatalf("expected holds, got %v", res)
					}
				}
			})
		}
	}
	// BDD verification reproduces the paper's exhaustive-search cost;
	// only the test topology fits a benchmark budget.
	for k := 0; k <= 1; k++ {
		b.Run(fmt.Sprintf("verify-bdd/test/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := rollout.Build(rollout.Config{Topo: topo.Test(), P: 1, K: k, M: 1})
				if err != nil {
					b.Fatal(err)
				}
				res, err := verdict.CheckInvariantBDD(m.Sys, m.SafetyPredicate(), verdict.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Status != verdict.Holds {
					b.Fatalf("expected holds, got %v", res)
				}
			}
		})
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationEngines compares the three finite engines on the
// same violated instance (the taint-loop liveness property).
func BenchmarkAblationEngines(b *testing.B) {
	build := func() *verdict.TaintLoopModel {
		return verdict.BuildTaintLoop(verdict.TaintLoopConfig{RespectTaints: false})
	}
	b.Run("bmc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := build()
			r, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 8})
			if err != nil || r.Status != mc.Violated {
				b.Fatalf("%v %v", r, err)
			}
		}
	})
	b.Run("bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := build()
			sym, err := mc.NewSym(m.Sys, mc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r, err := sym.CheckLTL(m.Property)
			if err != nil || r.Status != mc.Violated {
				b.Fatalf("%v %v", r, err)
			}
		}
	})
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := build()
			ex, err := mc.NewExplicit(m.Sys, mc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			r, err := ex.CheckFG(m.Stable)
			if err != nil || r.Status != mc.Violated {
				b.Fatalf("%v %v", r, err)
			}
		}
	})
}

// BenchmarkPortfolio races BMC, k-induction and the BDD engine on the
// Figure 5 violation instance against BMC alone. On a multi-core host
// the portfolio should cost about the same wall-clock as the fastest
// member; on one core it measures the overhead of running the losers.
func BenchmarkPortfolio(b *testing.B) {
	build := func() *rollout.Model {
		m, err := rollout.Build(rollout.Config{Topo: topo.Test(), P: 1, K: 2, M: 1})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	b.Run("bmc-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := build()
			res, err := mc.BMC(m.Sys, m.Property, mc.Options{MaxDepth: 10})
			if err != nil || res.Status != mc.Violated {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
	b.Run("portfolio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := build()
			res, err := mc.Portfolio(m.Sys, m.Property, mc.Options{MaxDepth: 10})
			if err != nil || res.Status != mc.Violated {
				b.Fatalf("%v %v", res, err)
			}
			if res.Stats == nil {
				b.Fatal("portfolio winner lost its stats")
			}
		}
	})
}

// BenchmarkFig6Parallel runs a small slice of the Figure 6 sweep —
// the (topology, k) verification cells for test and fattree4 — both
// serially and over 4 workers, mirroring `verdict-bench -exp fig6
// -workers N`.
func BenchmarkFig6Parallel(b *testing.B) {
	type cell struct {
		topo func() *topo.Graph
		k    int
	}
	var cells []cell
	for _, tb := range []func() *topo.Graph{topo.Test, func() *topo.Graph { return topo.FatTree(4) }} {
		for k := 0; k <= 2; k++ {
			cells = append(cells, cell{tb, k})
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := pool.Run(context.Background(), workers, len(cells), func(ctx context.Context, j int) error {
					c := cells[j]
					m, err := rollout.Build(rollout.Config{Topo: c.topo(), P: 1, K: c.k, M: 1})
					if err != nil {
						return err
					}
					res, err := mc.Portfolio(m.Sys, m.Property, mc.Options{MaxDepth: 30, Context: ctx})
					if err != nil {
						return err
					}
					if res.Status == mc.Unknown {
						return fmt.Errorf("cell k=%d undecided", c.k)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
