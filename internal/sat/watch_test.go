package sat

import (
	"math/rand"
	"testing"
)

// decide opens a decision level with l, as search does.
func decide(s *Solver, l Lit) {
	s.trailLim = append(s.trailLim, len(s.trail))
	s.uncheckedEnqueue(l, noReason)
}

// TestPropagateGrowsListMidLoop makes one propagate call move many
// watchers onto a single literal while it keeps others in place. The
// clauses (x ∨ y_i ∨ z) are watched on x and y_i, so falsifying x moves
// each of their watchers from ¬x's list onto ¬z's, which must relocate
// several times while propagate still walks ¬x's list; the first
// relocation finds the buffer full and tidies it. Between them sit the
// clauses (x ∨ u ∨ v_i) with u already true, whose watchers stay on
// ¬x's list and are written back into it after the buffer has moved.
// Every watcher must land where it belongs, and falsifying z next must
// imply every y_i.
func TestPropagateGrowsListMidLoop(t *testing.T) {
	const n = 200
	s := New()
	x, u := s.NewVar(), s.NewVar()
	ys, vs := s.NewVars(n), s.NewVars(n)
	z := s.NewVar() // last, so each (x ∨ y_i ∨ z) watches x and y_i
	for i := 0; i < n; i++ {
		if !s.AddClause(Pos(x), Pos(ys+i), Pos(z)) || !s.AddClause(Pos(x), Pos(u), Pos(vs+i)) {
			t.Fatal("AddClause failed")
		}
	}
	zList, xList := &s.watches[Neg(z)], &s.watches[Neg(x)]
	if zList.n != 0 || zList.cap != 0 || xList.n != 2*n {
		t.Fatalf("lists ¬z %+v and ¬x %+v before propagation, want empty and %d", *zList, *xList, 2*n)
	}
	decide(s, Pos(u))
	if c := s.propagate(); c != noReason {
		t.Fatalf("propagate found conflict %d", c)
	}
	// Pack the lists, then fill the buffer's spare capacity with a
	// hole, so the first relocation finds the buffer full and tidies
	// before it moves ¬z's list.
	s.tidy(0)
	pad := cap(s.wbuf) - len(s.wbuf)
	s.wbuf = s.wbuf[:cap(s.wbuf)]
	s.holes = pad
	if pad <= len(s.wbuf)/4 {
		t.Fatalf("spare capacity %d of %d words is too small a hole to force a tidy", pad, len(s.wbuf))
	}
	auditArena(t, s)
	decide(s, Neg(x))
	if c := s.propagate(); c != noReason {
		t.Fatalf("propagate found conflict %d", c)
	}
	if zList.n != n || xList.n != n {
		t.Fatalf("¬z's list holds %d watchers and ¬x's %d, want %d each", zList.n, xList.n, n)
	}
	// Without a tidy the holes would be the pad plus what ¬z's list
	// left behind: 2+4+…+128.
	if s.holes >= pad+254 {
		t.Fatalf("%d holes (padded with %d): the buffer was never tidied mid-loop", s.holes, pad)
	}
	for _, w := range s.watchers(*xList) {
		if w.blocker != Pos(u) {
			t.Fatalf("¬x's list keeps a watcher blocked by %v; only the (x ∨ u ∨ v_i) clauses stay", w.blocker)
		}
	}
	auditArena(t, s)
	decide(s, Neg(z))
	if c := s.propagate(); c != noReason {
		t.Fatalf("propagate found conflict %d", c)
	}
	for i := 0; i < n; i++ {
		if s.Value(ys+i) != TrueV {
			t.Fatalf("y%d = %v after ¬x, ¬z; want true", i, s.Value(ys+i))
		}
	}
	auditArena(t, s)
}

// TestTidyAndCompactAtDecisionLevel tidies the watch buffer and
// compacts the arena while the solver stands at a non-zero decision
// level with implied literals on the trail: the assignment must not
// change, every structure must audit clean, and the search that
// continues from there must agree with brute force.
func TestTidyAndCompactAtDecisionLevel(t *testing.T) {
	const nVars = 16
	r := rand.New(rand.NewSource(11))
	checked := 0
	for round := 0; round < 40; round++ {
		s := New()
		s.NewVars(nVars)
		var clauses [][]Lit
		for i := 0; i < 3*nVars; i++ {
			c := []Lit{MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1), MkLit(r.Intn(nVars), r.Intn(2) == 1)}
			if i%4 == 0 {
				c = c[:2]
			}
			clauses = append(clauses, c)
			s.AddClause(c...)
		}
		if !s.Okay() {
			continue
		}
		for d := 0; d < 3; d++ {
			v := r.Intn(nVars)
			if s.Value(v) != Undef {
				continue
			}
			decide(s, MkLit(v, r.Intn(2) == 1))
			if s.propagate() != noReason {
				break
			}
		}
		if s.decisionLevel() == 0 {
			continue
		}
		before := append([]Lit(nil), s.trail...)
		s.tidy(0)
		auditArena(t, s)
		s.compact()
		auditArena(t, s)
		if s.holes != 0 {
			t.Fatalf("round %d: %d holes after compaction", round, s.holes)
		}
		for i, l := range before {
			if s.trail[i] != l || s.litValue(l) != TrueV {
				t.Fatalf("round %d: tidy/compact changed the assignment of %v", round, l)
			}
		}
		level := s.decisionLevel()
		st := s.Solve()
		if want := bruteForce(nVars, clauses); (st == Sat) != want {
			t.Fatalf("round %d: Solve = %v after tidy/compact at level %d, brute force says sat=%v", round, st, level, want)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d of 40 rounds reached a decision level", checked)
	}
}
