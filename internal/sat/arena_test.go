package sat

import (
	"math/rand"
	"testing"
)

// auditArena walks the clause arena and checks every structure that
// points into it: the deleted words add up to s.wasted, each live
// clause is watched exactly by its first two literals (binary clauses
// on the binary lists), the learnt list names exactly the live learnt
// clauses, and every reason on the trail is a live clause that implies
// its literal. The watch lists are read through their spans, which
// auditSpans checks first.
func auditArena(t *testing.T, s *Solver) {
	t.Helper()
	auditSpans(t, s)
	live := map[int32]int{} // cref -> watchers seen
	dead := map[int32]bool{}
	deadWords, problem, learnt := 0, 0, 0
	for c := 0; c < len(s.arena); {
		h := s.arena[c]
		if h < 0 {
			t.Fatalf("arena word %d holds a relocation mark outside compaction", c)
		}
		size := int(h >> sizeShift)
		if size < 2 {
			t.Fatalf("clause at %d has %d literals", c, size)
		}
		switch {
		case h&deletedBit != 0:
			dead[int32(c)] = true
			deadWords += clauseHdr + size
		case h&learntBit != 0:
			live[int32(c)] = 0
			learnt++
		default:
			live[int32(c)] = 0
			problem++
		}
		c += clauseHdr + size
	}
	if deadWords != s.wasted {
		t.Fatalf("arena holds %d deleted words, wasted counter says %d", deadWords, s.wasted)
	}
	if problem != s.NumClauses() {
		t.Fatalf("arena holds %d problem clauses, NumClauses says %d", problem, s.NumClauses())
	}
	if learnt != len(s.learnts) {
		t.Fatalf("arena holds %d learnt clauses, learnt list has %d", learnt, len(s.learnts))
	}
	for _, c := range s.learnts {
		if _, ok := live[c]; !ok || s.arena[c]&learntBit == 0 {
			t.Fatalf("learnt list names %d, not a live learnt clause", c)
		}
	}
	for _, binary := range []bool{true, false} {
		lists := s.watches
		if binary {
			lists = s.binWatches
		}
		for l, sp := range lists {
			for _, w := range s.watchers(sp) {
				if dead[w.cref] && !binary {
					continue // dropped lazily by propagate or compact
				}
				n, ok := live[w.cref]
				if !ok {
					t.Fatalf("watcher on %v names %d, not a clause", Lit(l), w.cref)
				}
				lits := s.clauseLits(w.cref)
				if (len(lits) == 2) != binary {
					t.Fatalf("clause %v (%d literals) on the wrong watch lists", lits, len(lits))
				}
				if Lit(l) != lits[0].Not() && Lit(l) != lits[1].Not() {
					t.Fatalf("clause %v watched on %v, not by its first two literals", lits, Lit(l))
				}
				live[w.cref] = n + 1
			}
		}
	}
	for c, n := range live {
		if n != 2 {
			t.Fatalf("clause %v has %d watchers, want 2", s.clauseLits(c), n)
		}
	}
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		if r == noReason {
			continue
		}
		if _, ok := live[r]; !ok {
			t.Fatalf("reason of %v is %d, not a live clause", l, r)
		}
		implied := false
		for _, q := range s.clauseLits(r) {
			switch {
			case q == l:
				implied = true
			case s.litValue(q) != FalseV:
				t.Fatalf("reason %v of %v has a non-false literal %v", s.clauseLits(r), l, q)
			}
		}
		if !implied {
			t.Fatalf("reason %v does not contain %v", s.clauseLits(r), l)
		}
	}
}

// auditSpans checks the watch buffer's layout: every span lies inside
// wbuf with n <= cap, no two spans' rooms overlap, and the words
// outside every room add up to s.holes.
func auditSpans(t *testing.T, s *Solver) {
	t.Helper()
	if len(s.watches) != 2*s.NumVars() || len(s.binWatches) != 2*s.NumVars() {
		t.Fatalf("%d long and %d binary spans for %d variables", len(s.watches), len(s.binWatches), s.NumVars())
	}
	owner := make([]int, len(s.wbuf)) // 1 + index of the span whose room holds the word
	rooms := 0
	for kind, lists := range [2][]span{s.binWatches, s.watches} {
		for l, sp := range lists {
			if sp.n < 0 || sp.n > sp.cap || sp.start < 0 || int(sp.start+sp.cap) > len(s.wbuf) {
				t.Fatalf("span %+v of %v lies outside a %d-word buffer", sp, Lit(l), len(s.wbuf))
			}
			for i := sp.start; i < sp.start+sp.cap; i++ {
				if owner[i] != 0 {
					t.Fatalf("watch rooms overlap at word %d", i)
				}
				owner[i] = 1 + kind*len(lists) + l
			}
			rooms += int(sp.cap)
		}
	}
	if holes := len(s.wbuf) - rooms; holes != s.holes {
		t.Fatalf("watch buffer holds %d words outside every list, holes counter says %d", holes, s.holes)
	}
}

// compactAndAudit reduces the learnt clauses and compacts the arena
// wherever the solver stands, then checks that the arena holds only
// live clauses and that no assignment changed.
func compactAndAudit(t *testing.T, s *Solver) {
	t.Helper()
	auditArena(t, s)
	if s.wasted > len(s.arena)/2 {
		t.Fatalf("%d of %d arena words are deleted clauses; reduceDB should have compacted", s.wasted, len(s.arena))
	}
	before := append([]Lit(nil), s.trail...)
	s.reduceDB()
	s.compact()
	auditArena(t, s)
	liveWords := 0
	for c := 0; c < len(s.arena); c += clauseHdr + s.clauseSize(int32(c)) {
		liveWords += clauseHdr + s.clauseSize(int32(c))
	}
	if s.wasted != 0 || liveWords != len(s.arena) {
		t.Fatalf("after compaction the arena holds %d words, %d of them live (wasted %d)", len(s.arena), liveWords, s.wasted)
	}
	if s.holes != 0 {
		t.Fatalf("after compaction the watch buffer has %d holes", s.holes)
	}
	if len(s.trail) != len(before) {
		t.Fatalf("compaction changed the trail: %d literals, had %d", len(s.trail), len(before))
	}
	for i, l := range before {
		if s.trail[i] != l || s.litValue(l) != TrueV {
			t.Fatalf("compaction changed the assignment of %v", l)
		}
	}
}

// TestCompactionUnderAssumptions runs a sequence of incremental solves
// on random 3-SAT near the phase transition, with clauses added
// between solves and fresh assumptions for each. Reduction fires on
// its own (low learnt limit); after every Sat answer the solver still
// stands at the assumptions' decision levels, where the test reduces
// and compacts again and checks that the arena then holds only live
// clause words. Every verdict is checked against brute force.
func TestCompactionUnderAssumptions(t *testing.T) {
	const nVars = 18
	r := rand.New(rand.NewSource(5))
	s := newTestSolver()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	var clauses [][]Lit
	atLevel, reductions := 0, 0
	for round := 0; round < 38; round++ {
		for i := 0; i < 2; i++ {
			c := []Lit{MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1)}
			clauses = append(clauses, c)
			if !s.AddClause(c...) {
				if bruteForce(nVars, clauses) {
					t.Fatalf("AddClause says unsat, brute force says sat")
				}
				return
			}
		}
		assumps := []Lit{MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1)}
		limit := s.maxLearnt
		st := s.SolveAssuming(assumps...)
		if s.maxLearnt != limit {
			reductions++
		}
		all := append([][]Lit{}, clauses...)
		for _, a := range assumps {
			all = append(all, []Lit{a})
		}
		if want := bruteForce(nVars, all); (st == Sat) != want {
			t.Fatalf("round %d: SolveAssuming(%v) = %v, brute force says sat=%v", round, assumps, st, want)
		}
		if st == Sat && s.decisionLevel() > 0 {
			atLevel++
		}
		compactAndAudit(t, s)
		if st == Sat {
			for _, c := range all {
				sat := false
				for _, l := range c {
					sat = sat || s.ValueLit(l) == TrueV
				}
				if !sat {
					t.Fatalf("round %d: model after compaction falsifies %v", round, c)
				}
			}
		}
	}
	if atLevel == 0 || reductions == 0 {
		t.Fatalf("sequence never compacted at a non-zero level (%d times) or reduced during search (%d times)", atLevel, reductions)
	}
}

// TestReductionFreesDeletedClauses refutes pigeonhole with a low
// learnt limit and no forced compaction: reduction must have deleted
// clauses, and compaction must have kept the deleted words at no more
// than half the arena.
func TestReductionFreesDeletedClauses(t *testing.T) {
	s := newTestSolver()
	sel := s.NewVar()
	addPigeonhole(s, 5, Pos(sel))
	if st := s.SolveAssuming(Neg(sel)); st != Unsat {
		t.Fatalf("guarded pigeonhole = %v, want unsat", st)
	}
	auditArena(t, s)
	if s.Learnts <= int64(len(s.learnts)) {
		t.Fatalf("%d clauses learnt, %d still live: reduction deleted none", s.Learnts, len(s.learnts))
	}
	if s.wasted > len(s.arena)/2 {
		t.Fatalf("%d of %d arena words are deleted clauses", s.wasted, len(s.arena))
	}
}

// TestClauseActivityRescale drives learnt-clause activities past the
// rescale threshold: the solve must still refute pigeonhole, the
// increment must come back down, and every activity must stay finite.
func TestClauseActivityRescale(t *testing.T) {
	s := New()
	sel := s.NewVar()
	addPigeonhole(s, 5, Pos(sel))
	s.clauseInc = 5e19
	if st := s.SolveAssuming(Neg(sel)); st != Unsat {
		t.Fatalf("guarded pigeonhole = %v, want unsat", st)
	}
	if s.clauseInc >= 5e19 {
		t.Fatalf("clause increment %g never rescaled", s.clauseInc)
	}
	for _, c := range s.learnts {
		if a := s.clauseActivity(c); !(a >= 0 && a <= 1e20) {
			t.Fatalf("learnt clause activity %g after rescaling", a)
		}
	}
}
