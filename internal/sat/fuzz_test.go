package sat

import (
	"math/rand"
	"testing"
)

// Differential fuzzing of the CDCL solver against a brute-force
// enumerator on small CNFs (≤ 12 variables, so the enumerator can
// decide by trying all ≤ 4096 assignments). Two entry points share
// the oracle: FuzzSolver explores byte-encoded CNFs under `go test
// -fuzz`, and TestSolverVsBruteForce replays a seeded random corpus on
// every plain `go test` run.
//
// Both oracles use newTestSolver, whose learnt-clause limit is so low
// that reduceDB fires after a handful of conflicts, and both reduce and
// compact the clause arena after every solve they cross-check
// (compactAndAudit). So even these tiny instances exercise clause
// deletion and compaction, including at a non-zero decision level
// after a Sat answer.

const fuzzMaxVars = 12

// testMaxLearnt is the learnt-clause limit of newTestSolver: reduceDB
// runs once more than this many learnt clauses exist.
const testMaxLearnt = 2

func newTestSolver() *Solver {
	s := New()
	s.maxLearnt = testMaxLearnt
	return s
}

// decodeCNF maps arbitrary bytes onto a CNF: the first byte fixes the
// variable count, zero bytes end clauses, and every other byte is one
// literal. Any input decodes to something, so the fuzzer wastes no
// executions on parse failures.
func decodeCNF(data []byte) (nVars int, clauses [][]Lit) {
	if len(data) == 0 {
		return 1, nil
	}
	nVars = 1 + int(data[0])%fuzzMaxVars
	var cur []Lit
	for _, b := range data[1:] {
		if b == 0 {
			if len(cur) > 0 {
				clauses = append(clauses, cur)
				cur = nil
			}
			continue
		}
		if len(cur) < 8 {
			cur = append(cur, MkLit(int(b>>1)%nVars, b&1 == 1))
		}
		if len(clauses) == 64 {
			return nVars, clauses
		}
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	return nVars, clauses
}

// checkCNF runs the solver on the CNF and cross-checks status and
// model against the enumerator.
func checkCNF(t *testing.T, nVars int, clauses [][]Lit) {
	t.Helper()
	s := newTestSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	addOK := true
	for _, c := range clauses {
		if !s.AddClause(c...) {
			addOK = false
			break
		}
	}
	wantSat := bruteForce(nVars, clauses) // enumeration oracle from sat_test.go
	if !addOK {
		// AddClause detected top-level unsatisfiability early; the
		// enumerator must agree.
		if wantSat {
			t.Fatalf("AddClause says unsat, brute force says sat\nnVars=%d clauses=%v", nVars, clauses)
		}
		return
	}
	st := s.Solve()
	if st == Unknown {
		t.Fatalf("solver returned unknown without a budget\nnVars=%d clauses=%v", nVars, clauses)
	}
	compactAndAudit(t, s) // must leave the model intact
	if (st == Sat) != wantSat {
		t.Fatalf("solver says %v, brute force says sat=%v\nnVars=%d clauses=%v", st, wantSat, nVars, clauses)
	}
	if st != Sat {
		return
	}
	// The solver's model must actually satisfy every input clause.
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			switch s.ValueLit(l) {
			case TrueV:
				ok = true
			case Undef:
				t.Fatalf("sat model leaves %v unassigned\nnVars=%d clauses=%v", l, nVars, clauses)
			}
			if ok {
				break
			}
		}
		if !ok {
			t.Fatalf("model falsifies clause %v\nnVars=%d clauses=%v", c, nVars, clauses)
		}
	}
}

// checkIncrementalCNF is the differential oracle for SolveAssuming:
// the same CNF is fed to one solver in randomized chunks, with a
// randomized assumption query after every chunk, and each verdict is
// cross-checked against brute-force enumeration of the clause prefix
// plus the assumptions. Models must satisfy clauses and assumptions;
// unsat cores must be subsets of the assumptions that are genuinely
// inconsistent with the prefix. The final assumption-free call must
// agree with a fresh solver on the full CNF.
func checkIncrementalCNF(t *testing.T, nVars int, clauses [][]Lit, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := newTestSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	randAssumps := func() []Lit {
		a := make([]Lit, 0, 3)
		for i := r.Intn(4); i > 0; i-- {
			a = append(a, MkLit(r.Intn(nVars), r.Intn(2) == 1))
		}
		return a
	}
	// withUnits appends assumptions as unit clauses for the enumerator.
	withUnits := func(prefix [][]Lit, assumps []Lit) [][]Lit {
		all := append([][]Lit{}, prefix...)
		for _, a := range assumps {
			all = append(all, []Lit{a})
		}
		return all
	}
	query := func(prefix [][]Lit, assumps []Lit) {
		t.Helper()
		st := s.SolveAssuming(assumps...)
		if st == Unknown {
			t.Fatalf("SolveAssuming returned unknown without a budget\nprefix=%v assumps=%v", prefix, assumps)
		}
		// After Sat the solver still sits at the model's decision
		// levels, so this compacts under the assumptions; later
		// queries then run on the compacted arena.
		compactAndAudit(t, s)
		want := bruteForce(nVars, withUnits(prefix, assumps))
		if (st == Sat) != want {
			t.Fatalf("incremental SolveAssuming(%v) = %v, brute force says sat=%v\nnVars=%d prefix=%v", assumps, st, want, nVars, prefix)
		}
		if st == Sat {
			// The model must satisfy the clauses added so far AND the
			// assumptions of this call.
			for _, a := range assumps {
				if s.ValueLit(a) != TrueV {
					t.Fatalf("model under assumptions violates assumption %v\nprefix=%v", a, prefix)
				}
			}
			for _, c := range prefix {
				ok := false
				for _, l := range c {
					if s.ValueLit(l) == TrueV {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("model under assumptions %v falsifies clause %v\nprefix=%v", assumps, c, prefix)
				}
			}
			return
		}
		// Unsat: the reported core must be assumptions, and must be
		// genuinely inconsistent with the prefix on its own.
		asm := make(map[Lit]bool, len(assumps))
		for _, a := range assumps {
			asm[a] = true
		}
		core := s.Core()
		for _, l := range core {
			if !asm[l] {
				t.Fatalf("core literal %v is not among the assumptions %v\nprefix=%v", l, assumps, prefix)
			}
		}
		if len(assumps) > 0 && bruteForce(nVars, withUnits(prefix, core)) {
			t.Fatalf("core %v of assumptions %v is not actually unsat with the prefix\nprefix=%v", core, assumps, prefix)
		}
	}

	var prefix [][]Lit
	dead := false // AddClause proved top-level unsat
	for len(clauses) > 0 {
		chunk := 1 + r.Intn(len(clauses))
		for _, c := range clauses[:chunk] {
			prefix = append(prefix, c)
			if !dead && !s.AddClause(c...) {
				dead = true
				if bruteForce(nVars, prefix) {
					t.Fatalf("AddClause says top-level unsat, brute force says sat\nprefix=%v", prefix)
				}
			}
		}
		clauses = clauses[chunk:]
		if dead {
			// A dead solver must answer Unsat to every later query.
			if st := s.SolveAssuming(randAssumps()...); st != Unsat {
				t.Fatalf("solver answered %v after top-level unsat", st)
			}
			continue
		}
		query(prefix, randAssumps())
	}
	if dead {
		return
	}
	// Final assumption-free call vs a fresh solver on the full CNF.
	query(prefix, nil)
	fresh := New()
	for i := 0; i < nVars; i++ {
		fresh.NewVar()
	}
	freshSt := Status(Unsat)
	ok := true
	for _, c := range prefix {
		if !fresh.AddClause(c...) {
			ok = false
			break
		}
	}
	if ok {
		freshSt = fresh.Solve()
	}
	if incSt := s.SolveAssuming(); incSt != freshSt {
		t.Fatalf("incremental solver says %v, fresh solver says %v\nnVars=%d clauses=%v", incSt, freshSt, nVars, prefix)
	}
}

// incrementalSeed derives a deterministic chunking/assumption seed
// from the CNF itself, so fuzz executions are reproducible.
func incrementalSeed(nVars int, clauses [][]Lit) int64 {
	h := int64(nVars)
	for _, c := range clauses {
		h = h*131 + int64(len(c))
		for _, l := range c {
			h = h*31 + int64(l)
		}
	}
	return h
}

func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 3, 0, 5, 0})            // (x1 ∨ ¬x1)(¬x2)
	f.Add([]byte{1, 2, 0, 3, 0})               // x1 ∧ ¬x1: unsat
	f.Add([]byte{11, 4, 7, 0, 9, 12, 0, 2, 0}) // mixed 3-clause instance
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, clauses := decodeCNF(data)
		checkCNF(t, nVars, clauses)
		checkIncrementalCNF(t, nVars, clauses, incrementalSeed(nVars, clauses))
	})
}

// TestSolverVsBruteForce replays a fixed random corpus so the
// differential oracle runs on every `go test`, not only under -fuzz.
func TestSolverVsBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 300
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		nVars := 1 + r.Intn(fuzzMaxVars)
		nClauses := r.Intn(4 * nVars)
		clauses := make([][]Lit, 0, nClauses)
		for j := 0; j < nClauses; j++ {
			width := 1 + r.Intn(4)
			c := make([]Lit, 0, width)
			for k := 0; k < width; k++ {
				// Duplicate and complementary literals are left in on
				// purpose: AddClause must handle both.
				c = append(c, MkLit(r.Intn(nVars), r.Intn(2) == 1))
			}
			clauses = append(clauses, c)
		}
		checkCNF(t, nVars, clauses)
		checkIncrementalCNF(t, nVars, clauses, int64(1000+i))
	}
}
