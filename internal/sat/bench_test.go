package sat

import (
	"math/rand"
	"testing"
)

// Solver micro-benchmarks on fixed instances, for a same-run A/B of a
// solver change: build the test binary at both commits and alternate
//
//	go test -run '^$' -bench . -benchtime 20x -count 5 ./internal/sat
//
// Besides ns/op each reports props/s, unit propagations per second of
// solving, which is the figure a change to the clause store moves.

// benchSolve times one op as a fresh solve of every instance: build
// adds the clauses to a new solver and returns the assumptions.
func benchSolve(b *testing.B, builds ...func(*Solver) []Lit) {
	var props int64
	for i := 0; i < b.N; i++ {
		for _, build := range builds {
			s := New()
			if s.SolveAssuming(build(s)...) == Unknown {
				b.Fatal("solve without a budget returned unknown")
			}
			props += s.Propagations
		}
	}
	b.ReportMetric(float64(props)/b.Elapsed().Seconds(), "props/s")
}

// BenchmarkPigeonhole refutes PHP(8,7), guarded by a selector that is
// assumed, as BMC guards its per-depth property clauses.
func BenchmarkPigeonhole(b *testing.B) {
	benchSolve(b, func(s *Solver) []Lit {
		sel := s.NewVar()
		addPigeonhole(s, 7, Pos(sel))
		return []Lit{Neg(sel)}
	})
}

// BenchmarkRandom3SAT solves eight seeded random 3-SAT instances of 150
// variables at clause ratio 4.26, the satisfiability threshold, where
// both answers occur.
func BenchmarkRandom3SAT(b *testing.B) {
	const nVars, nClauses = 150, 639
	var builds []func(*Solver) []Lit
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var cnf [][]Lit
		for j := 0; j < nClauses; j++ {
			cnf = append(cnf, []Lit{MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1)})
		}
		builds = append(builds, func(s *Solver) []Lit {
			for v := 0; v < nVars; v++ {
				s.NewVar()
			}
			for _, c := range cnf {
				s.AddClause(c...)
			}
			return nil
		})
	}
	benchSolve(b, builds...)
}
