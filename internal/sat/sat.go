// Package sat implements an incremental CDCL SAT solver.
//
// The solver is the workhorse under verdict's bounded model checker,
// k-induction engine, lazy SMT loop, and enumeration-based parameter
// synthesis. It implements the standard modern architecture: two
// watched literals over a flat clause arena (MiniSat's layout, with
// binary clauses on watch lists of their own), first-UIP conflict
// analysis with clause learning, EVSIDS branching with phase saving,
// Luby restarts, learnt-clause database reduction by LBD with arena
// compaction, and solving under assumptions with final conflict (unsat
// core) extraction.
//
// A search stops early through Solver.Stop, a flag read with one atomic
// load at every conflict and every decision, so a solver whose answer
// is no longer wanted returns within one step of search.
package sat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Lit is a literal: variable index shifted left once, low bit set for
// negative polarity. Variables are dense ints starting at 0, allocated
// with Solver.NewVar.
type Lit int32

// MkLit builds a literal for variable v, negated if neg.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Pos returns the positive literal of variable v.
func Pos(v int) Lit { return Lit(v << 1) }

// Neg returns the negative literal of variable v.
func Neg(v int) Lit { return Lit(v<<1) | 1 }

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Sign reports whether the literal is negative.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Sign() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// LBool is a three-valued truth value.
type LBool int8

// LBool values.
const (
	Undef LBool = iota
	TrueV
	FalseV
)

func (b LBool) String() string {
	switch b {
	case TrueV:
		return "true"
	case FalseV:
		return "false"
	}
	return "undef"
}

// Status is the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

const noReason int32 = -1

// Clauses live in one flat arena of words, Solver.arena, so that
// propagation touches one contiguous range per clause. A clause is
// named by the offset of its first word (a cref) and occupies
// clauseHdr+size words: a header (size<<sizeShift | deletedBit |
// learntBit), its LBD, its activity as float32 bits, then its
// literals. Binary clauses sit in the arena too, as reasons for
// analysis, but propagate never reads them there: their watchers carry
// the other literal. Compaction overwrites the header of a moved clause
// with the complement of its new offset, which is negative.
const (
	clauseHdr  = 3
	learntBit  = 1
	deletedBit = 2
	sizeShift  = 2
)

type watcher struct {
	cref    int32
	blocker Lit // a literal of the clause; for a binary clause, the other one
}

// Every watch list, long and binary, lives in one pointer-free buffer,
// Solver.wbuf, so that growing the solver by a frame's worth of
// variables allocates a few slices the collector never scans. A span
// names one literal's list: its watchers are wbuf[start:start+n], with
// room for cap before the list must relocate. A list that outgrows its
// room moves to the end of the buffer with twice the room, leaving a
// hole behind. When the buffer itself is full and holes fill more than
// a quarter of it, tidy packs the lists into a fresh buffer instead of
// growing the old one; compact packs them too. Relocation and tidying
// copy a list in order, so the order in which propagate visits
// watchers is the append order.
type span struct{ start, n, cap int32 }

// Solver is an incremental CDCL SAT solver. The zero value is not
// usable; call New.
type Solver struct {
	arena      []Lit
	wasted     int     // arena words of deleted clauses, freed by compact
	learnts    []int32 // crefs of the live learnt clauses
	numProblem int     // live problem (non-learnt) clauses
	wbuf       []watcher
	holes      int    // wbuf words outside every span, reclaimed by tidy
	watches    []span // clauses of three or more literals, indexed by Lit
	binWatches []span // binary clauses, indexed by Lit

	value    []LBool // indexed by Lit; value under current trail
	level    []int32 // decision level at which var was assigned
	reason   []int32 // clause ref that implied var, or noReason
	trail    []Lit
	trailLim []int // trail index at each decision level

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []bool // saved phase per var
	polarity []bool // user-suggested initial phase

	seen     []bool
	qhead    int
	ok       bool  // false once a top-level conflict proves UNSAT
	conflict []Lit // final conflict clause over assumptions (negated)

	// Scratch buffers reused across calls, so that a conflict or an
	// AddClause allocates nothing once they have grown.
	addBuf     []Lit
	learntBuf  []Lit
	toClear    []int
	levelStamp []int // per decision level: the lbd call that last saw it
	stamp      int

	// Statistics, exported for the benchmark harness; Stats() returns
	// them as one snapshot.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnts      int64
	Solves       int64

	// Budget: abort Solve with Unknown after this many conflicts
	// (0 = unlimited). Used to implement verification timeouts.
	ConflictBudget int64

	// Stop, when non-nil, is read at every conflict and every
	// decision; once it is set Solve returns Unknown with LastStop
	// StopInterrupt. Another goroutine sets it to cancel the search (a
	// deadline, a lost race); a flag that is never set leaves the
	// search unchanged. The CNF encoder filling this solver reads it
	// too.
	Stop *atomic.Bool

	// stop records why the last Solve returned Unknown; see StopCause.
	stop StopCause

	clauseInc  float64
	maxLearnt  float64
	lubyBase   int64
	restartCnt int
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:        true,
		varInc:    1.0,
		clauseInc: 1.0,
		maxLearnt: 4000,
		lubyBase:  100,
		order:     &varHeap{},
	}
}

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int { return s.NewVars(1) }

// NewVars allocates n fresh variables and returns the index of the
// first; the others follow it densely. Allocating a batch grows every
// per-variable array once, where n NewVar calls would grow each n
// times; the variables, their order in the branching heap and
// everything the solver later decides are the same either way.
func (s *Solver) NewVars(n int) int {
	v := s.NumVars()
	s.value = grow(s.value, 2*n)
	s.level = grow(s.level, n)
	s.reason = grow(s.reason, n)
	for i := v; i < v+n; i++ {
		s.reason[i] = noReason
	}
	s.activity = grow(s.activity, n)
	s.phase = grow(s.phase, n)
	s.polarity = grow(s.polarity, n)
	s.seen = grow(s.seen, n)
	s.watches = grow(s.watches, 2*n)
	s.binWatches = grow(s.binWatches, 2*n)
	s.order.grow(v + n)
	for i := v; i < v+n; i++ {
		s.order.push(i, s.activity)
	}
	return v
}

// grow extends s by n zeroed elements. When s must move it grows by
// at least half, so an array grown frame by frame moves once every few
// frames, not once per frame.
func grow[T any](s []T, n int) []T {
	l := len(s)
	if cap(s)-l < n {
		s = slices.Grow(s, max(n, l/2))
	}
	s = s[:l+n]
	clear(s[l:])
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.value) / 2 }

// SetPhase suggests the first decision polarity for variable v.
func (s *Solver) SetPhase(v int, value bool) { s.phase[v] = value; s.polarity[v] = value }

func (s *Solver) litValue(l Lit) LBool { return s.value[l] }

// AddClause adds a clause. It returns false if the solver is already
// in an UNSAT state or the clause makes it so at the top level.
// Clauses may only be added when no Solve is in progress; the solver
// backtracks to level 0 automatically.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0)
	// Sort and simplify: drop duplicates and false lits, detect
	// tautologies and satisfied clauses.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	slices.Sort(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l.Var() >= s.NumVars() {
			panic(fmt.Sprintf("sat: literal %v references unallocated variable", l))
		}
		if l == prev {
			continue
		}
		if l == prev.Not() && prev != -1 {
			return true // tautology
		}
		switch s.litValue(l) {
		case TrueV:
			return true // satisfied at top level
		case FalseV:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noReason)
		if s.propagate() != noReason {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(out, false, 0)
	return true
}

// attachClause copies lits (at least two) into the arena and watches
// its first two literals.
func (s *Solver) attachClause(lits []Lit, learnt bool, lbd int) int32 {
	if len(s.arena)+clauseHdr+len(lits) > math.MaxInt32 {
		panic("sat: clause arena exceeds 2^31 words")
	}
	// Grow by at least half when the arena must move, as grow does:
	// append grows a large slice by a quarter, so an arena filled
	// frame by frame would move nearly twice as often and copy twice
	// the words.
	if need := clauseHdr + len(lits); cap(s.arena)-len(s.arena) < need {
		s.arena = slices.Grow(s.arena, max(need, len(s.arena)/2))
	}
	c := int32(len(s.arena))
	h := Lit(len(lits) << sizeShift)
	if learnt {
		h |= learntBit
		s.learnts = append(s.learnts, c)
	} else {
		s.numProblem++
	}
	s.arena = append(s.arena, h, Lit(lbd), 0)
	s.arena = append(s.arena, lits...)
	ws := s.watches
	if len(lits) == 2 {
		ws = s.binWatches
	}
	s.watch(&ws[lits[0].Not()], watcher{c, lits[1]})
	s.watch(&ws[lits[1].Not()], watcher{c, lits[0]})
	return c
}

// watch appends w to the list sp names. It may move wbuf, so a caller
// holding a slice of it must slice it again afterwards.
func (s *Solver) watch(sp *span, w watcher) {
	if sp.n == sp.cap {
		s.relocate(sp)
	}
	s.wbuf[sp.start+sp.n] = w
	sp.n++
}

// relocate moves a full list to the end of wbuf with twice its room.
// When the buffer has no capacity left, it is tidied instead of grown
// if holes fill more than a quarter of it; either way the buffer moves
// to one of twice the size it needs, so that the solver makes few
// large allocations (each leaves the heap a span to refill).
func (s *Solver) relocate(sp *span) {
	c := max(2*sp.cap, 2)
	if len(s.wbuf)+int(c) > cap(s.wbuf) {
		if s.holes > len(s.wbuf)/4 {
			s.tidy(int(c))
		} else {
			s.wbuf = slices.Grow(s.wbuf, max(int(c), len(s.wbuf)))
		}
	}
	if len(s.wbuf)+int(c) > math.MaxInt32 {
		panic("sat: watch buffer exceeds 2^31 watchers")
	}
	start := int32(len(s.wbuf))
	s.wbuf = s.wbuf[:start+c]
	copy(s.wbuf[start:], s.wbuf[sp.start:sp.start+sp.n])
	s.holes += int(sp.cap)
	sp.start, sp.cap = start, c
}

// tidy packs every list into a fresh buffer, in literal order, binary
// lists first, with capacity for twice the packed watchers plus extra.
// A list keeps no room of its own: most lists of an unrolling stop
// growing once their frame is blasted, and one that grows again
// relocates.
func (s *Solver) tidy(extra int) {
	n := 0
	for _, spans := range [2][]span{s.binWatches, s.watches} {
		for _, sp := range spans {
			n += int(sp.n)
		}
	}
	buf := make([]watcher, 0, 2*n+extra)
	for _, spans := range [2][]span{s.binWatches, s.watches} {
		for i := range spans {
			sp := &spans[i]
			start := int32(len(buf))
			buf = append(buf, s.wbuf[sp.start:sp.start+sp.n]...)
			sp.start, sp.cap = start, sp.n
		}
	}
	s.wbuf, s.holes = buf, 0
}

// watchers returns the list sp names, valid until the next watch.
func (s *Solver) watchers(sp span) []watcher { return s.wbuf[sp.start : sp.start+sp.n] }

func (s *Solver) clauseSize(c int32) int { return int(s.arena[c] >> sizeShift) }

func (s *Solver) clauseLits(c int32) []Lit {
	start := int(c) + clauseHdr
	return s.arena[start : start+s.clauseSize(c)]
}

func (s *Solver) clauseActivity(c int32) float32 {
	return math.Float32frombits(uint32(s.arena[c+2]))
}

func (s *Solver) setClauseActivity(c int32, a float32) {
	s.arena[c+2] = Lit(math.Float32bits(a))
}

func (s *Solver) uncheckedEnqueue(l Lit, from int32) {
	v := l.Var()
	s.value[l], s.value[l.Not()] = TrueV, FalseV
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Sign()
		s.value[l], s.value[l.Not()] = Undef, Undef
		s.reason[v] = noReason
		if !s.order.inHeap(v) {
			s.order.push(v, s.activity)
		}
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// propagate performs unit propagation; it returns the conflicting
// clause ref or noReason.
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		// Binary clauses: the blocker is the other literal, so no
		// arena read.
		for _, w := range s.watchers(s.binWatches[p]) {
			switch s.litValue(w.blocker) {
			case FalseV:
				s.qhead = len(s.trail)
				return w.cref
			case Undef:
				s.uncheckedEnqueue(w.blocker, w.cref)
			}
		}
		falseLit := p.Not()
		sp := &s.watches[p]
		ws := s.watchers(*sp)
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == TrueV {
				ws[j] = w
				j++
				continue
			}
			h := s.arena[w.cref]
			if h&deletedBit != 0 {
				continue // drop watcher of deleted clause
			}
			start := int(w.cref) + clauseHdr
			lits := s.arena[start : start+int(h>>sizeShift)]
			// Ensure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			w.blocker = first
			if s.litValue(first) == TrueV {
				ws[j] = w
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != FalseV {
					lits[1], lits[k] = lits[k], falseLit
					// The new list is never p's own (lits[1] is not
					// false), but the push may move or tidy the buffer,
					// p's list with it.
					s.watch(&s.watches[lits[1].Not()], w)
					ws = s.watchers(*sp)
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = w
			j++
			if s.litValue(first) == FalseV {
				// Conflict: copy remaining watchers and bail.
				j += copy(ws[j:], ws[i+1:])
				sp.n = int32(j)
				s.qhead = len(s.trail)
				return w.cref
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		sp.n = int32(j)
	}
	return noReason
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// lives in a buffer that the next call reuses.
func (s *Solver) analyze(confl int32) ([]Lit, int) {
	learnt := append(s.learntBuf[:0], 0) // placeholder for the asserting literal
	toClear := s.toClear[:0]             // every var marked seen, cleared on exit
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.arena[confl]&learntBit != 0 {
			s.bumpClause(confl)
		}
		// p, the literal confl implied, may sit in either slot of a
		// binary clause, so skip it by variable.
		for _, q := range s.clauseLits(confl) {
			v := q.Var()
			if v == p.Var() || s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find next literal to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Minimize: drop literals implied by the rest of the clause
	// (cheap local check against direct reasons).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		if r == noReason {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.clauseLits(r) {
			qv := q.Var()
			if qv == v {
				continue
			}
			if !s.seen[qv] && s.level[qv] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Compute backtrack level and move its literal to slot 1.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learntBuf, s.toClear = learnt, toClear
	return learnt, btLevel
}

// lbd counts the distinct decision levels among lits, stamping each
// level with this call's number.
func (s *Solver) lbd(lits []Lit) int {
	s.stamp++
	n := 0
	for _, l := range lits {
		lv := int(s.level[l.Var()])
		if lv >= len(s.levelStamp) {
			s.levelStamp = append(s.levelStamp, make([]int, lv+1-len(s.levelStamp))...)
		}
		if s.levelStamp[lv] != s.stamp {
			s.levelStamp[lv] = s.stamp
			n++
		}
	}
	return n
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

func (s *Solver) bumpClause(c int32) {
	a := s.clauseActivity(c) + float32(s.clauseInc)
	s.setClauseActivity(c, a)
	if a > 1e20 {
		for _, l := range s.learnts {
			s.setClauseActivity(l, s.clauseActivity(l)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.clauseInc /= 0.999
}

// reduceDB removes roughly half of the learnt clauses, preferring high
// LBD and low activity; reason clauses and binary clauses survive. Once
// deleted clauses fill more than half the arena, it compacts.
func (s *Solver) reduceDB() {
	var cands []int32
	for _, c := range s.learnts {
		// A clause of three or more literals is locked while it is the
		// reason of its slot-0 literal: propagate puts the literal it
		// implies there.
		if s.clauseSize(c) > 2 && s.reason[s.arena[int(c)+clauseHdr].Var()] != c {
			cands = append(cands, c)
		}
	}
	slices.SortFunc(cands, func(a, b int32) int {
		if la, lb := s.arena[a+1], s.arena[b+1]; la != lb {
			return cmp.Compare(lb, la)
		}
		return cmp.Compare(s.clauseActivity(a), s.clauseActivity(b))
	})
	for _, c := range cands[:len(cands)/2] {
		s.arena[c] |= deletedBit
		s.wasted += clauseHdr + s.clauseSize(c)
	}
	s.learnts = slices.DeleteFunc(s.learnts, func(c int32) bool { return s.arena[c]&deletedBit != 0 })
	if s.wasted > len(s.arena)/2 {
		s.compact()
	}
}

// compact copies the live clauses into a fresh arena, in watch-list
// order so that clauses watched together sit together, drops the
// watchers of deleted clauses and packs the watch buffer. A moved
// clause's old header records its new offset, which then rewrites the
// reasons on the trail and the learnt list. It is safe at any decision
// level.
func (s *Solver) compact() {
	to := make([]Lit, 0, len(s.arena)-s.wasted)
	move := func(c int32) int32 {
		if h := s.arena[c]; h < 0 {
			return int32(^h)
		}
		n := int32(len(to))
		to = append(to, s.arena[c:int(c)+clauseHdr+s.clauseSize(c)]...)
		s.arena[c] = ^Lit(n)
		return n
	}
	for _, spans := range [2][]span{s.binWatches, s.watches} {
		for l := range spans {
			ws := s.watchers(spans[l])
			j := 0
			for _, w := range ws {
				if h := s.arena[w.cref]; h >= 0 && h&deletedBit != 0 {
					continue
				}
				ws[j] = watcher{move(w.cref), w.blocker}
				j++
			}
			spans[l].n = int32(j)
		}
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != noReason {
			s.reason[l.Var()] = move(r)
		}
	}
	for i, c := range s.learnts {
		s.learnts[i] = move(c)
	}
	s.arena, s.wasted = to, 0
	s.tidy(0)
}

// luby returns the x-th element of the Luby restart sequence
// (1,1,2,1,1,2,4,...), 0-indexed.
func luby(x int64) int64 {
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << seq
}

// Solve determines satisfiability under the given assumptions. On Sat,
// Value reports the model; on Unsat, Core reports the subset of
// assumptions in the final conflict. Unknown is returned only when the
// conflict budget is exhausted or Stop is set (see LastStop). Solve is
// SolveAssuming under its historical name; both are fully incremental.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.SolveAssuming(assumptions...)
}

// SolveAssuming is the incremental solving entry point: it decides the
// current clause set under the given assumptions, which hold only for
// this call. Everything the search discovers persists for the next
// call — learned clauses stay in the database, literal activities and
// saved phases keep their values, and clauses added between calls
// simply join the problem — so a sequence of related queries (BMC
// depths k, k+1, ..., induction steps, loop-literal probes) shares one
// growing clause database instead of restarting from nothing. Each
// call gets its own conflict budget and restart schedule.
func (s *Solver) SolveAssuming(assumptions ...Lit) Status {
	s.Solves++
	s.conflict = s.conflict[:0]
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	s.stop = StopNone
	startConflicts := s.Conflicts
	restart := int64(0)

	for {
		budget := s.lubyBase * luby(restart)
		st := s.search(assumptions, budget)
		if st != Unknown {
			return st
		}
		if s.stop == StopInterrupt {
			return Unknown
		}
		if s.ConflictBudget > 0 && s.Conflicts-startConflicts >= s.ConflictBudget {
			s.cancelUntil(0)
			s.stop = StopBudget
			return Unknown
		}
		restart++
		s.restartCnt++
	}
}

// StopCause explains an Unknown verdict from Solve: the conflict
// budget ran out, or the Stop flag was set (wall-clock deadline or
// cooperative cancellation). It lets engines label their degraded
// results honestly instead of guessing "timeout".
type StopCause int

const (
	// StopNone: the last Solve was conclusive.
	StopNone StopCause = iota
	// StopBudget: ConflictBudget was exhausted.
	StopBudget
	// StopInterrupt: the Stop flag was set.
	StopInterrupt
)

// LastStop reports why the most recent Solve returned Unknown
// (StopNone when it was conclusive).
func (s *Solver) LastStop() StopCause { return s.stop }

// search runs CDCL until a result, a restart (after maxConfl
// conflicts; returns Unknown), or a set Stop flag (returns Unknown with
// s.stop = StopInterrupt). Each pass of the loop follows one conflict
// or one decision, so the flag is read at both.
func (s *Solver) search(assumptions []Lit, maxConfl int64) Status {
	conflicts := int64(0)
	for {
		if s.Stop != nil && s.Stop.Load() {
			s.cancelUntil(0)
			s.stop = StopInterrupt
			return Unknown
		}
		confl := s.propagate()
		if confl != noReason {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.decisionLevel() <= len(assumptions) {
				// Conflict among assumptions: build final conflict.
				s.analyzeFinal(-1, confl)
				s.cancelUntil(0)
				return Unsat
			}
			// Backjump freely, possibly below assumption levels: the
			// decision loop re-establishes assumptions on the way up.
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noReason)
			} else {
				cref := s.attachClause(learnt, true, s.lbd(learnt))
				s.bumpClause(cref)
				s.Learnts++
				s.uncheckedEnqueue(learnt[0], cref)
			}
			s.decayActivities()
			if float64(len(s.learnts)) > s.maxLearnt {
				s.reduceDB()
				s.maxLearnt *= 1.3
			}
			continue
		}

		if conflicts >= maxConfl {
			s.cancelUntil(0)
			return Unknown
		}

		// Assume the next assumption, or decide.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case TrueV:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case FalseV:
				s.analyzeFinal(a.Not(), noReason)
				s.cancelUntil(0)
				return Unsat
			default:
				next = a
			}
			break
		}
		if next == -1 {
			next = s.pickBranchLit()
			if next == -1 {
				return Sat // all variables assigned
			}
			s.Decisions++
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noReason)
	}
}

func (s *Solver) pickBranchLit() Lit {
	for {
		v, ok := s.order.pop(s.activity)
		if !ok {
			return -1
		}
		if s.value[Pos(v)] == Undef {
			return MkLit(v, !s.phase[v])
		}
	}
}

// analyzeFinal sets the final conflict: the negated assumptions that
// imply a failure. The walk back along the trail is seeded either from
// p, the complement of an assumption found false, or (p == -1) from
// confl, a clause that conflicted at an assumption level. Every
// decision below the assumption levels is an assumption and every
// variable sits on the trail once, so the decisions the walk reaches
// are the core, without duplicates.
func (s *Solver) analyzeFinal(p Lit, confl int32) {
	s.conflict = s.conflict[:0]
	mark := func(c int32) {
		for _, q := range s.clauseLits(c) {
			if s.level[q.Var()] > 0 {
				s.seen[q.Var()] = true
			}
		}
	}
	if p == -1 {
		mark(confl)
	} else {
		s.conflict = append(s.conflict, p)
		if s.decisionLevel() == 0 {
			return
		}
		s.seen[p.Var()] = true
	}
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == noReason {
			s.conflict = append(s.conflict, s.trail[i].Not())
		} else {
			mark(r)
		}
		s.seen[v] = false
	}
	if p != -1 {
		s.seen[p.Var()] = false // p may be a level-0 literal the walk never reaches
	}
}

// Value returns the model value of variable v after a Sat result.
func (s *Solver) Value(v int) LBool { return s.value[Pos(v)] }

// ValueLit returns the model value of a literal after a Sat result.
func (s *Solver) ValueLit(l Lit) LBool { return s.litValue(l) }

// Core returns the failed assumptions after an Unsat result: a subset
// of the assumptions whose conjunction is inconsistent with the
// clauses. Literals appear negated relative to how they were assumed
// in MiniSat; here we return them as the assumed literals themselves.
func (s *Solver) Core() []Lit {
	out := make([]Lit, len(s.conflict))
	for i, l := range s.conflict {
		out[i] = l.Not()
	}
	return out
}

// Okay reports whether the solver is still consistent at level 0.
func (s *Solver) Okay() bool { return s.ok }

// Stats is a snapshot of the solver's search counters.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnts      int64
	Restarts     int64
	// Solves counts Solve/SolveAssuming calls answered by this solver;
	// values above 1 mean the clause database and heuristic state were
	// reused incrementally.
	Solves  int64
	Vars    int
	Clauses int
}

// Stats snapshots the search counters. The caller owns the copy; the
// solver keeps counting. Snapshots must be taken from the goroutine
// driving Solve — the counters are not synchronized.
func (s *Solver) Stats() Stats {
	return Stats{
		Conflicts:    s.Conflicts,
		Decisions:    s.Decisions,
		Propagations: s.Propagations,
		Learnts:      s.Learnts,
		Restarts:     int64(s.restartCnt),
		Solves:       s.Solves,
		Vars:         s.NumVars(),
		Clauses:      s.NumClauses(),
	}
}

// NumClauses returns the number of live problem clauses (excluding
// learnt ones).
func (s *Solver) NumClauses() int { return s.numProblem }

// --- activity-ordered heap ---

type varHeap struct {
	heap []int32
	pos  []int32 // var -> index in heap, -1 if absent
}

func (h *varHeap) inHeap(v int) bool { return v < len(h.pos) && h.pos[v] >= 0 }

// grow makes room for variables below n, absent from the heap.
func (h *varHeap) grow(n int) {
	if old := len(h.pos); n > old {
		h.pos = grow(h.pos, n-old)
		for i := old; i < n; i++ {
			h.pos[i] = -1
		}
	}
	if n > cap(h.heap) {
		h.heap = slices.Grow(h.heap, max(n, cap(h.heap)+cap(h.heap)/2)-len(h.heap))
	}
}

func (h *varHeap) push(v int, act []float64) {
	h.grow(v + 1)
	if h.pos[v] >= 0 {
		return
	}
	h.heap = append(h.heap, int32(v))
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap)-1, act)
}

func (h *varHeap) pop(act []float64) (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.down(0, act)
	}
	return int(v), true
}

func (h *varHeap) update(v int, act []float64) {
	if h.inHeap(v) {
		h.up(int(h.pos[v]), act)
	}
}

func (h *varHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if act[h.heap[p]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[p]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) down(i int, act []float64) {
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= len(h.heap) {
			break
		}
		if c+1 < len(h.heap) && act[h.heap[c+1]] > act[h.heap[c]] {
			c++
		}
		if act[h.heap[c]] <= act[v] {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[c]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
