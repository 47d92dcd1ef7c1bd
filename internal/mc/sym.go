package mc

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

	"verdict/internal/bdd"
	"verdict/internal/ctl"
	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/resilience"
	"verdict/internal/trace"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// ErrTimeout is returned when a BDD engine construction (NewSym) or
// AnalyzeBlastRadius is stopped by its deadline or its Context.
var ErrTimeout = errors.New("mc: timeout")

// ErrBudget is returned when a BDD engine construction exceeds its
// node budget (Options.Budget.BDDNodes) before the transition relation
// is even built; checks that exhaust the budget later degrade to
// Unknown instead.
var ErrBudget = errors.New("mc: bdd node budget exhausted")

// varLayout records where a finite variable's bits live in the BDD
// order: bit j's current-state copy is at level base+2j, its
// next-state copy at base+2j+1 (interleaved, so prime/unprime shifts
// are order-preserving).
type varLayout struct {
	base  int
	width int
	lo    int64 // domain offset (enums use 0)
}

// Sym is the BDD-based symbolic engine: exact CTL/LTL checking with
// fairness for finite systems.
type Sym struct {
	sys  *ts.System
	opts Options
	m    *bdd.Manager
	// stop is the BDD manager's stop signal, armed (Options.armStop)
	// while NewSym or a check method runs.
	stop atomic.Bool

	layout map[*expr.Var]varLayout

	init  bdd.Node // initial states (incl. invariant and domains)
	trans bdd.Node // transition relation (incl. domains and invariants)
	invar bdd.Node

	curState  bdd.VarSet // current-state bit levels of state vars (not params)
	nextState bdd.VarSet // next-state bit levels of state vars
	cur2next  map[int]int
	next2cur  map[int]int

	fairness []bdd.Node

	reach     bdd.Node
	layers    []bdd.Node
	haveReach bool

	start time.Time

	boolMemo map[*expr.Expr]bdd.Node
	intMemo  map[*expr.Expr]intVec

	// Monitor bookkeeping for the LTL tableau.
	monCount int
}

type intVec struct {
	bits []bdd.Node
	off  int64
}

// NewSym compiles a finite system into BDD form. With opts.Timeout or
// a budget set, both construction and later checks abort cleanly when
// the bound is hit (construction returns ErrTimeout/ErrBudget; checks
// return Unknown). Any other panic while compiling the model is
// captured into a structured error — NewSym is an API boundary and
// must not take the caller's goroutine down on malformed input.
func NewSym(sys *ts.System, opts Options) (s *Sym, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r {
			case bdd.ErrInterrupted:
				s, err = nil, ErrTimeout
			case bdd.ErrNodeBudget:
				s, err = nil, ErrBudget
			default:
				s, err = nil, resilience.NewEngineError("bdd-compile", r)
			}
		}
	}()
	finite, err := opts.vet(sys)
	if err != nil {
		return nil, err
	}
	if !finite {
		return nil, fmt.Errorf("mc: BDD engine requires a finite system (got real-valued variables in %s)", sys.Name)
	}
	s = &Sym{
		sys:       sys,
		opts:      opts,
		layout:    make(map[*expr.Var]varLayout),
		curState:  bdd.VarSet{},
		nextState: bdd.VarSet{},
		cur2next:  make(map[int]int),
		next2cur:  make(map[int]int),
		boolMemo:  make(map[*expr.Expr]bdd.Node),
		intMemo:   make(map[*expr.Expr]intVec),
		start:     time.Now(),
	}
	total := 0
	for _, v := range sys.AllVars() {
		w := widthOf(v.T)
		s.layout[v] = varLayout{base: total, width: w, lo: loOf(v.T)}
		total += 2 * w
	}
	s.m = bdd.New(total)
	s.m.Stop = &s.stop
	defer opts.armStop(&s.stop, s.start)()
	s.m.NodeBudget = opts.Budget.BDDNodes
	for _, v := range sys.AllVars() {
		if v.Param {
			// Parameters are frozen: they keep their current-state
			// bits everywhere (never primed, never quantified during
			// image computation), which is exactly next(p) = p.
			continue
		}
		lay := s.layout[v]
		for j := 0; j < lay.width; j++ {
			cur := lay.base + 2*j
			nxt := cur + 1
			s.cur2next[cur] = nxt
			s.next2cur[nxt] = cur
			s.curState[cur] = true
			s.nextState[nxt] = true
		}
	}

	// Domain constraints.
	domCur, domNext := bdd.True, bdd.True
	for _, v := range sys.AllVars() {
		lay := s.layout[v]
		span := spanOf(v.T)
		domCur = s.m.And(domCur, s.leConstBits(s.curBits(lay), span))
		if !v.Param {
			domNext = s.m.And(domNext, s.leConstBits(s.nextBits(lay), span))
		}
	}

	s.invar = s.m.And(s.compileBool(sys.InvarExpr()), domCur)
	s.init = s.m.And(s.compileBool(sys.InitExpr()), s.invar)
	tr := s.compileBool(sys.TransExpr())
	s.trans = s.m.And(tr, s.invar, domNext, s.prime(s.m.And(s.compileBool(sys.InvarExpr()))))
	for _, f := range sys.Fairness() {
		s.fairness = append(s.fairness, s.m.And(s.compileBool(f), s.invar))
	}
	return s, nil
}

func widthOf(t expr.Type) int {
	switch t.Kind {
	case expr.KindBool:
		return 1
	default:
		span := spanOf(t)
		if span == 0 {
			return 0
		}
		return bits.Len64(span)
	}
}

func loOf(t expr.Type) int64 {
	if t.Kind == expr.KindInt {
		return t.Lo
	}
	return 0
}

func spanOf(t expr.Type) uint64 {
	switch t.Kind {
	case expr.KindBool:
		return 1
	case expr.KindInt:
		return uint64(t.Hi - t.Lo)
	case expr.KindEnum:
		return uint64(len(t.Values) - 1)
	}
	panic("mc: spanOf on " + t.String())
}

func (s *Sym) curBits(lay varLayout) []bdd.Node {
	out := make([]bdd.Node, lay.width)
	for j := range out {
		out[j] = s.m.Var(lay.base + 2*j)
	}
	return out
}

func (s *Sym) nextBits(lay varLayout) []bdd.Node {
	out := make([]bdd.Node, lay.width)
	for j := range out {
		out[j] = s.m.Var(lay.base + 2*j + 1)
	}
	return out
}

// leConstBits builds value(bits) <= c for bit BDDs (LSB first).
func (s *Sym) leConstBits(bs []bdd.Node, c uint64) bdd.Node {
	if len(bs) == 0 || c >= (1<<uint(len(bs)))-1 {
		return bdd.True
	}
	acc := bdd.True
	for i := 0; i < len(bs); i++ {
		if c>>uint(i)&1 == 1 {
			acc = s.m.Or(s.m.Not(bs[i]), acc)
		} else {
			acc = s.m.And(s.m.Not(bs[i]), acc)
		}
	}
	return acc
}

// prime renames current-state levels to next-state ones.
func (s *Sym) prime(f bdd.Node) bdd.Node { return s.m.Replace(f, s.cur2next) }

// unprime renames next-state levels back to current.
func (s *Sym) unprime(f bdd.Node) bdd.Node { return s.m.Replace(f, s.next2cur) }

// --- expression compilation ---

func (s *Sym) compileBool(e *expr.Expr) bdd.Node {
	if n, ok := s.boolMemo[e]; ok {
		return n
	}
	n := s.computeBool(e)
	s.boolMemo[e] = n
	return n
}

func (s *Sym) computeBool(e *expr.Expr) bdd.Node {
	m := s.m
	switch e.Op {
	case expr.OpConst:
		if e.Val.B {
			return bdd.True
		}
		return bdd.False
	case expr.OpVar:
		return m.Var(s.layout[e.V].base)
	case expr.OpNext:
		return m.Var(s.layout[e.V].base + 1)
	case expr.OpNot:
		return m.Not(s.compileBool(e.Args[0]))
	case expr.OpAnd:
		acc := bdd.True
		for _, a := range e.Args {
			acc = m.And(acc, s.compileBool(a))
		}
		return acc
	case expr.OpOr:
		acc := bdd.False
		for _, a := range e.Args {
			acc = m.Or(acc, s.compileBool(a))
		}
		return acc
	case expr.OpImplies:
		return m.Implies(s.compileBool(e.Args[0]), s.compileBool(e.Args[1]))
	case expr.OpIff:
		return m.Iff(s.compileBool(e.Args[0]), s.compileBool(e.Args[1]))
	case expr.OpXor:
		return m.Xor(s.compileBool(e.Args[0]), s.compileBool(e.Args[1]))
	case expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
		a := s.compileInt(e.Args[0])
		b := s.compileInt(e.Args[1])
		switch e.Op {
		case expr.OpEq:
			return s.eqVec(a, b)
		case expr.OpNe:
			return m.Not(s.eqVec(a, b))
		case expr.OpLe:
			return s.leVec(a, b)
		case expr.OpLt:
			return m.Not(s.leVec(b, a))
		case expr.OpGe:
			return s.leVec(b, a)
		case expr.OpGt:
			return m.Not(s.leVec(a, b))
		}
	}
	panic(fmt.Sprintf("mc: cannot compile boolean op %v to BDD (%s)", e.Op, e))
}

func (s *Sym) compileInt(e *expr.Expr) intVec {
	if v, ok := s.intMemo[e]; ok {
		return v
	}
	v := s.computeInt(e)
	s.intMemo[e] = v
	return v
}

func (s *Sym) computeInt(e *expr.Expr) intVec {
	switch e.Op {
	case expr.OpConst:
		switch e.Val.Kind {
		case expr.KindInt:
			return intVec{off: e.Val.I}
		case expr.KindEnum:
			return intVec{off: int64(e.Type().EnumIndex(e.Val.Sym))}
		case expr.KindBool:
			if e.Val.B {
				return intVec{bits: []bdd.Node{bdd.True}}
			}
			return intVec{}
		}
	case expr.OpVar:
		lay := s.layout[e.V]
		return intVec{bits: s.curBits(lay), off: lay.lo}
	case expr.OpNext:
		lay := s.layout[e.V]
		return intVec{bits: s.nextBits(lay), off: lay.lo}
	case expr.OpAdd:
		acc := s.compileInt(e.Args[0])
		for _, a := range e.Args[1:] {
			acc = s.addVec(acc, s.compileInt(a))
		}
		return acc
	case expr.OpSub:
		return s.addVec(s.compileInt(e.Args[0]), s.negVec(s.compileInt(e.Args[1])))
	case expr.OpNeg:
		return s.negVec(s.compileInt(e.Args[0]))
	case expr.OpMul:
		acc := s.compileInt(e.Args[0])
		for _, a := range e.Args[1:] {
			acc = s.mulVec(acc, s.compileInt(a))
		}
		return acc
	case expr.OpIte:
		c := s.compileBool(e.Args[0])
		return s.iteVec(c, s.compileInt(e.Args[1]), s.compileInt(e.Args[2]))
	case expr.OpCount:
		vecs := make([]intVec, len(e.Args))
		for i, a := range e.Args {
			vecs[i] = intVec{bits: []bdd.Node{s.compileBool(a)}}
		}
		for len(vecs) > 1 {
			var nxt []intVec
			for i := 0; i+1 < len(vecs); i += 2 {
				nxt = append(nxt, s.addVec(vecs[i], vecs[i+1]))
			}
			if len(vecs)%2 == 1 {
				nxt = append(nxt, vecs[len(vecs)-1])
			}
			vecs = nxt
		}
		if len(vecs) == 0 {
			return intVec{}
		}
		return vecs[0]
	}
	if e.Type().Kind == expr.KindBool {
		return intVec{bits: []bdd.Node{s.compileBool(e)}}
	}
	panic(fmt.Sprintf("mc: cannot compile op %v to BDD bit-vector (%s)", e.Op, e))
}

func (s *Sym) bitAt(v intVec, i int) bdd.Node {
	if i < len(v.bits) {
		return v.bits[i]
	}
	return bdd.False
}

func (s *Sym) addVec(a, b intVec) intVec {
	if len(a.bits) == 0 {
		return intVec{bits: b.bits, off: a.off + b.off}
	}
	if len(b.bits) == 0 {
		return intVec{bits: a.bits, off: a.off + b.off}
	}
	w := len(a.bits)
	if len(b.bits) > w {
		w = len(b.bits)
	}
	out := make([]bdd.Node, 0, w+1)
	carry := bdd.False
	for i := 0; i < w; i++ {
		ai, bi := s.bitAt(a, i), s.bitAt(b, i)
		out = append(out, s.m.Xor(s.m.Xor(ai, bi), carry))
		carry = s.m.Or(s.m.And(ai, bi), s.m.And(carry, s.m.Or(ai, bi)))
	}
	out = append(out, carry)
	return intVec{bits: out, off: a.off + b.off}
}

func (s *Sym) negVec(a intVec) intVec {
	out := make([]bdd.Node, len(a.bits))
	for i, b := range a.bits {
		out[i] = s.m.Not(b)
	}
	var span int64
	if len(a.bits) > 0 {
		span = int64(1)<<uint(len(a.bits)) - 1
	}
	return intVec{bits: out, off: -a.off - span}
}

func (s *Sym) mulVec(a, b intVec) intVec {
	if len(a.bits) > 0 && len(b.bits) > 0 {
		panic("mc: variable*variable multiplication is not supported in the BDD encoding")
	}
	if len(a.bits) == 0 {
		a, b = b, a
	}
	k := b.off
	if k == 0 {
		return intVec{}
	}
	neg := false
	if k < 0 {
		neg, k = true, -k
	}
	var acc intVec
	first := true
	for i := 0; i < 63 && k>>uint(i) != 0; i++ {
		if k>>uint(i)&1 == 0 {
			continue
		}
		sh := make([]bdd.Node, i+len(a.bits))
		for j := 0; j < i; j++ {
			sh[j] = bdd.False
		}
		copy(sh[i:], a.bits)
		v := intVec{bits: sh}
		if first {
			acc, first = v, false
		} else {
			acc = s.addVec(acc, v)
		}
	}
	if neg {
		acc = s.negVec(acc)
	}
	acc.off += a.off * b.off
	return acc
}

func (s *Sym) iteVec(c bdd.Node, a, b intVec) intVec {
	if a.off != b.off {
		lo := a.off
		if b.off < lo {
			lo = b.off
		}
		a = s.rebaseVec(a, lo)
		b = s.rebaseVec(b, lo)
	}
	w := len(a.bits)
	if len(b.bits) > w {
		w = len(b.bits)
	}
	out := make([]bdd.Node, w)
	for i := range out {
		out[i] = s.m.Ite(c, s.bitAt(a, i), s.bitAt(b, i))
	}
	return intVec{bits: out, off: a.off}
}

func (s *Sym) rebaseVec(a intVec, newOff int64) intVec {
	d := a.off - newOff
	if d == 0 {
		return a
	}
	var cb []bdd.Node
	for i := 0; i < 63 && d>>uint(i) != 0; i++ {
		if d>>uint(i)&1 == 1 {
			cb = append(cb, bdd.True)
		} else {
			cb = append(cb, bdd.False)
		}
	}
	r := s.addVec(intVec{bits: a.bits}, intVec{bits: cb})
	r.off = newOff
	return r
}

// eqVec / leVec compare via the same offset-difference trick as the
// CNF compiler: a ⋈ b iff U_a + ~U_b ⋈ b.off - a.off + 2^wb - 1.
func (s *Sym) eqVec(a, b intVec) bdd.Node {
	sum, c, ok := s.diffVec(a, b)
	if !ok {
		return bdd.False
	}
	if c >= 1<<uint(len(sum)) {
		return bdd.False
	}
	acc := bdd.True
	for i, bit := range sum {
		if uint64(c)>>uint(i)&1 == 1 {
			acc = s.m.And(acc, bit)
		} else {
			acc = s.m.And(acc, s.m.Not(bit))
		}
	}
	return acc
}

func (s *Sym) leVec(a, b intVec) bdd.Node {
	sum, c, ok := s.diffVec(a, b)
	if !ok {
		return bdd.False
	}
	return s.leConstBits(sum, uint64(c))
}

func (s *Sym) diffVec(a, b intVec) ([]bdd.Node, int64, bool) {
	nb := s.negVec(b)
	var spanB int64
	if len(b.bits) > 0 {
		spanB = int64(1)<<uint(len(b.bits)) - 1
	}
	c := b.off - a.off + spanB
	if c < 0 {
		return nil, 0, false
	}
	sum := s.addVec(intVec{bits: a.bits}, intVec{bits: nb.bits})
	return sum.bits, c, true
}

// --- images and reachability ---

// Image computes the successors of S.
func (s *Sym) Image(S bdd.Node) bdd.Node {
	return s.unprime(s.m.AndExists(S, s.trans, s.curState))
}

// Preimage computes the predecessors of S.
func (s *Sym) Preimage(S bdd.Node) bdd.Node {
	return s.m.AndExists(s.trans, s.prime(S), s.nextState)
}

// Reach computes (and caches) the reachable state set, keeping the BFS
// layers for counterexample reconstruction. Like every fixpoint here it
// polls nothing itself: a set stop signal aborts it from inside the BDD
// manager (a bdd.ErrInterrupted panic, which recoverTimeout recovers).
func (s *Sym) Reach() bdd.Node {
	if s.haveReach {
		return s.reach
	}
	r := s.init
	s.layers = []bdd.Node{r}
	frontier := r
	for frontier != bdd.False {
		img := s.m.And(s.Image(frontier), s.invar)
		frontier = s.m.And(img, s.m.Not(r))
		if frontier == bdd.False {
			break
		}
		s.layers = append(s.layers, frontier)
		r = s.m.Or(r, frontier)
	}
	s.reach = r
	s.haveReach = true
	return r
}

// --- CTL ---

// eu computes E[a U b] within care.
func (s *Sym) eu(a, b, care bdd.Node) bdd.Node {
	y := s.m.And(b, care)
	for {
		ny := s.m.Or(y, s.m.And(a, s.m.And(care, s.Preimage(y))))
		if ny == y {
			return y
		}
		y = ny
	}
}

// eg computes EG a within care (no fairness).
func (s *Sym) eg(a, care bdd.Node) bdd.Node {
	y := s.m.And(a, care)
	for {
		ny := s.m.And(y, s.Preimage(y))
		if ny == y {
			return y
		}
		y = ny
	}
}

// egFair computes the states from which a fair path satisfying
// "globally a" exists (Emerson–Lei).
func (s *Sym) egFair(a, care bdd.Node) bdd.Node {
	fair := s.fairness
	if len(fair) == 0 {
		return s.eg(a, care)
	}
	z := s.m.And(a, care)
	for {
		nz := z
		for _, c := range fair {
			target := s.m.And(nz, c)
			u := s.eu(s.m.And(a, nz), target, care)
			nz = s.m.And(nz, s.Preimage(u))
		}
		if nz == z {
			return z
		}
		z = nz
	}
}

// fairStates returns EGfair(true): states from which some fair path
// starts.
func (s *Sym) fairStates(care bdd.Node) bdd.Node {
	return s.egFair(care, care)
}

// stats snapshots the engine's observability counters.
func (s *Sym) stats() *Stats { return &Stats{BDDNodes: s.m.Size()} }

// recoverTimeout converts a BDD interrupt or node-budget panic into an
// Unknown result, and any other panic into a structured engine error;
// install it with defer in every public checking method, beside the
// deferred release of the method's armed stop signal. The engine
// degrades gracefully — it never takes the process down mid-check.
func (s *Sym) recoverTimeout(res **Result, err *error, start time.Time) {
	if r := recover(); r != nil {
		switch r {
		case bdd.ErrInterrupted:
			*res = &Result{Status: Unknown, Engine: "bdd", Elapsed: time.Since(start), Note: s.opts.stopNote(), Stats: s.stats()}
			*err = nil
		case bdd.ErrNodeBudget:
			*res = &Result{Status: Unknown, Engine: "bdd", Elapsed: time.Since(start),
				Note: fmt.Sprintf("bdd node budget exhausted (%d nodes)", s.opts.Budget.BDDNodes), Stats: s.stats()}
			*err = nil
		default:
			*res, *err = nil, resilience.NewEngineError("bdd", r)
		}
	}
}

// CheckCTL evaluates a CTL formula with fairness; it Holds iff every
// initial state satisfies it.
func (s *Sym) CheckCTL(f *ctl.Formula) (res *Result, err error) {
	start := time.Now()
	defer s.recoverTimeout(&res, &err, start)
	defer s.opts.armStop(&s.stop, s.start)()
	sat := s.evalCTL(ctl.Normalize(f), s.Reach())
	bad := s.m.And(s.init, s.m.Not(sat))
	res = &Result{Engine: "bdd", Elapsed: time.Since(start), Stats: s.stats()}
	if bad == bdd.False {
		res.Status = Holds
	} else {
		res.Status = Violated
		res.Note = "some initial state violates the CTL property"
	}
	return res, nil
}

func (s *Sym) evalCTL(f *ctl.Formula, care bdd.Node) bdd.Node {
	switch f.Kind {
	case ctl.KindAtom:
		return s.m.And(s.compileBool(f.Atom), care)
	case ctl.KindNot:
		return s.m.And(s.m.Not(s.evalCTL(f.L, care)), care)
	case ctl.KindAnd:
		return s.m.And(s.evalCTL(f.L, care), s.evalCTL(f.R, care))
	case ctl.KindOr:
		return s.m.Or(s.evalCTL(f.L, care), s.evalCTL(f.R, care))
	case ctl.KindEX:
		// Fair semantics: successor must start a fair path.
		x := s.evalCTL(f.L, care)
		return s.m.And(s.Preimage(s.m.And(x, s.fairStates(care))), care)
	case ctl.KindEU:
		x, y := s.evalCTL(f.L, care), s.evalCTL(f.R, care)
		return s.eu(x, s.m.And(y, s.fairStates(care)), care)
	case ctl.KindEG:
		return s.egFair(s.evalCTL(f.L, care), care)
	}
	panic("mc: evalCTL expects normalized formulas")
}

// --- LTL via tableau ---

// tableau augments the system with monitor variables for the NNF
// formula's temporal subformulas and returns the product ingredients.
type tableau struct {
	sat      bdd.Node   // sat(f): product states where f "promises" to hold
	trans    bdd.Node   // monitor transition constraints
	fairness []bdd.Node // tableau fairness (one per U-subformula)
	monCur   bdd.VarSet // monitor current-state levels
	monNext  bdd.VarSet
}

// buildTableau constructs the symbolic tableau for an NNF formula.
func (s *Sym) buildTableau(f *ltl.Formula) *tableau {
	tb := &tableau{trans: bdd.True, monCur: bdd.VarSet{}, monNext: bdd.VarSet{}}
	sats := make(map[*ltl.Formula]bdd.Node)
	var rec func(g *ltl.Formula) bdd.Node
	newMonitor := func() (cur bdd.Node, curL int) {
		base := s.m.AddVars(2)
		s.cur2next[base] = base + 1
		s.next2cur[base+1] = base
		tb.monCur[base] = true
		tb.monNext[base+1] = true
		s.monCount++
		return s.m.Var(base), base
	}
	rec = func(g *ltl.Formula) bdd.Node {
		if n, ok := sats[g]; ok {
			return n
		}
		var n bdd.Node
		switch g.Kind {
		case ltl.KindAtom:
			n = s.compileBool(g.Atom)
		case ltl.KindNot:
			n = s.m.Not(rec(g.L))
		case ltl.KindAnd:
			n = s.m.And(rec(g.L), rec(g.R))
		case ltl.KindOr:
			n = s.m.Or(rec(g.L), rec(g.R))
		case ltl.KindX:
			sub := rec(g.L)
			mon, _ := newMonitor()
			tb.trans = s.m.And(tb.trans, s.m.Iff(mon, s.prime(sub)))
			n = mon
		case ltl.KindU:
			l, r := rec(g.L), rec(g.R)
			mon, _ := newMonitor()
			n = s.m.Or(r, s.m.And(l, mon))
			tb.trans = s.m.And(tb.trans, s.m.Iff(mon, s.prime(n)))
			// Fairness: ¬(f U g) ∨ g infinitely often.
			tb.fairness = append(tb.fairness, s.m.Or(s.m.Not(n), r))
		case ltl.KindR:
			l, r := rec(g.L), rec(g.R)
			mon, _ := newMonitor()
			n = s.m.And(r, s.m.Or(l, mon))
			tb.trans = s.m.And(tb.trans, s.m.Iff(mon, s.prime(n)))
		case ltl.KindF:
			return rec(ltl.U(ltl.True(), g.L))
		case ltl.KindG:
			return rec(ltl.R(ltl.Atom(expr.False()), g.L))
		default:
			panic("mc: unexpected LTL kind in tableau")
		}
		sats[g] = n
		return n
	}
	tb.sat = rec(f)
	return tb
}

// CheckLTL decides an LTL property exactly: Holds or Violated. The
// property is violated iff some fair path from an initial state
// satisfies its negation, detected by fair-cycle search on the
// system × tableau product.
func (s *Sym) CheckLTL(phi *ltl.Formula) (res *Result, err error) {
	start := time.Now()
	defer s.recoverTimeout(&res, &err, start)
	defer s.opts.armStop(&s.stop, s.start)()
	// Fast path: plain safety invariant.
	if p, ok := ltl.IsSafetyInvariant(phi); ok {
		return s.CheckInvariant(p)
	}
	neg := ltl.Not(phi).NNF()
	tb := s.buildTableau(neg)

	// Product system: extend transition relation and quantifier sets.
	savedTrans, savedCurState, savedNextState := s.trans, s.curState, s.nextState
	savedFair := s.fairness
	defer func() {
		s.trans, s.curState, s.nextState, s.fairness = savedTrans, savedCurState, savedNextState, savedFair
	}()
	s.trans = s.m.And(s.trans, tb.trans)
	cs := bdd.VarSet{}
	for v := range s.curState {
		cs[v] = true
	}
	for v := range tb.monCur {
		cs[v] = true
	}
	ns := bdd.VarSet{}
	for v := range s.nextState {
		ns[v] = true
	}
	for v := range tb.monNext {
		ns[v] = true
	}
	s.curState, s.nextState = cs, ns
	s.fairness = append(append([]bdd.Node{}, savedFair...), tb.fairness...)

	pinit := s.m.And(s.init, tb.sat)
	// Reachable product states (fresh computation; do not reuse cache).
	reach := pinit
	frontier := pinit
	for frontier != bdd.False {
		img := s.Image(frontier)
		frontier = s.m.And(img, s.m.Not(reach))
		reach = s.m.Or(reach, frontier)
	}
	fair := s.fairStates(reach)
	res = &Result{Engine: "bdd", Elapsed: time.Since(start), Stats: s.stats()}
	if s.m.And(pinit, fair) == bdd.False {
		res.Status = Holds
	} else {
		res.Status = Violated
		res.Note = "fair counterexample exists (use BMC to extract a lasso trace)"
	}
	return res, nil
}

// CheckInvariant decides G(p) by reachability and reconstructs a
// counterexample trace from the BFS layers on violation.
func (s *Sym) CheckInvariant(p *expr.Expr) (res *Result, err error) {
	start := time.Now()
	defer s.recoverTimeout(&res, &err, start)
	defer s.opts.armStop(&s.stop, s.start)()
	reach := s.Reach()
	bad := s.m.And(reach, s.m.Not(s.compileBool(p)))
	res = &Result{Engine: "bdd", Elapsed: time.Since(start), Stats: s.stats()}
	if bad == bdd.False {
		res.Status = Holds
		res.Depth = len(s.layers)
		// Certify the proof with the reachability fixpoint itself: the
		// reach set, rendered back as a state predicate, is an inductive
		// invariant (closed under TRANS, contains INIT, implies p) that
		// witness.ValidateCertificate can check by direct evaluation.
		if s.opts.ValidateWitness {
			if inv := s.invariantExpr(reach); inv != nil {
				res.Cert = &witness.Certificate{Kind: "bdd-reach", Property: p, Invariant: inv, Depth: len(s.layers)}
			}
		}
		return res, nil
	}
	res.Status = Violated
	res.Trace = s.traceTo(bad)
	res.Depth = res.Trace.Len() - 1
	res.Elapsed = time.Since(start)
	return res, nil
}

// traceTo reconstructs a shortest path from init to a target set using
// the cached BFS layers.
func (s *Sym) traceTo(target bdd.Node) *trace.Trace {
	// Find the earliest layer intersecting target.
	hit := -1
	for i, layer := range s.layers {
		if s.m.And(layer, target) != bdd.False {
			hit = i
			break
		}
	}
	if hit < 0 {
		return nil
	}
	// Walk backwards picking concrete states.
	states := make([]map[int]bool, hit+1)
	cur := s.m.And(s.layers[hit], target)
	states[hit] = s.pickState(cur)
	for i := hit - 1; i >= 0; i-- {
		nextCube := s.stateCube(states[i+1])
		pred := s.m.And(s.layers[i], s.Preimage(nextCube))
		states[i] = s.pickState(pred)
	}
	t := trace.New()
	for _, p := range s.sys.Params() {
		t.Params[p.Name] = s.decodeVar(p, states[0])
	}
	showDefines := defineDisplay(s.sys)
	for _, asn := range states {
		st := trace.NewState()
		env := expr.MapEnv{}
		for _, v := range s.sys.Vars() {
			val := s.decodeVar(v, asn)
			st.Values[v.Name] = val
			env[v] = val
		}
		for _, p := range s.sys.Params() {
			env[p] = t.Params[p.Name]
		}
		showDefines(env, st)
		t.States = append(t.States, st)
	}
	return t
}

// pickState picks one member of set and completes it to a total
// assignment over every system variable's current-state bits. Levels
// absent from PickOne's partial assignment are don't-cares in set, so
// completing them with false stays inside the set.
func (s *Sym) pickState(set bdd.Node) map[int]bool {
	asn := s.m.PickOne(set)
	if asn == nil {
		return nil
	}
	for _, v := range s.sys.AllVars() {
		lay := s.layout[v]
		for j := 0; j < lay.width; j++ {
			l := lay.base + 2*j
			if _, ok := asn[l]; !ok {
				asn[l] = false
			}
		}
	}
	return asn
}

// stateCube builds the BDD cube for a (partial) current-state
// assignment over current-state and parameter bits.
func (s *Sym) stateCube(asn map[int]bool) bdd.Node {
	levels := make([]int, 0, len(asn))
	for l := range asn {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	cube := bdd.True
	for i := len(levels) - 1; i >= 0; i-- {
		l := levels[i]
		if l%2 == 1 {
			continue // ignore any next-state bits
		}
		if asn[l] {
			cube = s.m.And(cube, s.m.Var(l))
		} else {
			cube = s.m.And(cube, s.m.NVar(l))
		}
	}
	return cube
}

func (s *Sym) decodeVar(v *expr.Var, asn map[int]bool) expr.Value {
	lay := s.layout[v]
	var u int64
	for j := 0; j < lay.width; j++ {
		if asn[lay.base+2*j] {
			u |= 1 << uint(j)
		}
	}
	val := lay.lo + u
	switch v.T.Kind {
	case expr.KindBool:
		return expr.BoolValue(val != 0)
	case expr.KindInt:
		return expr.IntValue(val)
	case expr.KindEnum:
		idx := int(val)
		if idx >= len(v.T.Values) {
			idx = 0
		}
		return expr.EnumValue(v.T.Values[idx])
	}
	panic("mc: decodeVar on non-finite variable")
}

// NodeCount exposes the BDD arena size for the benchmark harness.
func (s *Sym) NodeCount() int { return s.m.Size() }

// certNodeLimit bounds how many BDD nodes invariantExpr converts:
// beyond it the certificate is dropped (no cert) rather than building
// an expression nobody can afford to evaluate.
const certNodeLimit = 4096

// invariantExpr converts a BDD over current-state bits of the system's
// variables and parameters back into an equivalent *expr.Expr by
// Shannon expansion over the BDD graph: node n at the level of bit j
// of variable v becomes (bit ∧ hi) ∨ (¬bit ∧ lo), where bit is the
// state predicate "bit j of v is set". Shared BDD nodes become shared
// subexpressions, and because evaluation short-circuits ∧/∨, checking
// the result on one concrete state follows exactly one root-to-leaf
// path — O(BDD depth), not O(BDD size).
//
// Returns nil when the BDD mentions a non-state level (next-state or
// tableau monitor bits — not a state invariant) or exceeds
// certNodeLimit.
func (s *Sym) invariantExpr(f bdd.Node) *expr.Expr {
	bitOf := make(map[int]*expr.Expr)
	for _, v := range s.sys.AllVars() {
		lay := s.layout[v]
		for j := 0; j < lay.width; j++ {
			bitOf[lay.base+2*j] = s.bitPredicate(v, lay, j)
		}
	}
	memo := map[bdd.Node]*expr.Expr{bdd.True: expr.True(), bdd.False: expr.False()}
	count := 0
	var rec func(n bdd.Node) *expr.Expr
	rec = func(n bdd.Node) *expr.Expr {
		if e, ok := memo[n]; ok {
			return e
		}
		count++
		if count > certNodeLimit {
			return nil
		}
		l := s.m.Level(n)
		bit, ok := bitOf[l]
		if !ok {
			return nil
		}
		lo := rec(s.m.Restrict(n, l, false))
		if lo == nil {
			return nil
		}
		hi := rec(s.m.Restrict(n, l, true))
		if hi == nil {
			return nil
		}
		e := expr.Or(expr.And(bit, hi), expr.And(expr.Not(bit), lo))
		memo[n] = e
		return e
	}
	return rec(f)
}

// bitPredicate is the state predicate "bit j of v's encoded value is
// set": the variable itself for booleans, otherwise the disjunction of
// v = d over the domain values d whose offset-encoding has bit j set.
func (s *Sym) bitPredicate(v *expr.Var, lay varLayout, j int) *expr.Expr {
	if v.T.Kind == expr.KindBool {
		return v.Ref()
	}
	var alts []*expr.Expr
	for _, val := range v.T.Domain() {
		var u int64
		switch val.Kind {
		case expr.KindInt:
			u = val.I - lay.lo
		case expr.KindEnum:
			u = int64(v.T.EnumIndex(val.Sym))
		}
		if u>>uint(j)&1 == 1 {
			alts = append(alts, expr.Eq(v.Ref(), expr.Const(val, v.T)))
		}
	}
	return expr.Or(alts...)
}
