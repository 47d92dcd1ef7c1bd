package mc

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// evenSystem is the cooperation workhorse: x steps through the even
// residues 0→2→4→6→0, so reach = {0,2,4,6}, while the odd residues
// form an unreachable cycle 1→3→5→7→1. The property G(x ≠ 1) holds
// but is only 3-inductive (the unreachable odd chain 3→5→7→1 is a
// simple path of p-states into ¬p), so k-induction and BMC both work
// through several depths and have bounds to exchange.
func evenSystem() (*ts.System, *expr.Expr) {
	sys := ts.New("even")
	x := sys.Int("x", 0, 7)
	sys.Init(x, expr.IntConst(0))
	sys.Assign(x, expr.Ite(expr.Eq(x.Ref(), expr.IntConst(6)), expr.IntConst(0),
		expr.Ite(expr.Eq(x.Ref(), expr.IntConst(7)), expr.IntConst(1),
			expr.Add(x.Ref(), expr.IntConst(2)))))
	return sys, expr.Ne(x.Ref(), expr.IntConst(1))
}

// TestCoopBoundSharing drives the bound half of the bus
// deterministically, without portfolio scheduling: BMC publishes one
// bound per clean depth, and a k-induction run sharing the same bus
// skips exactly the covered base cases while still finding the
// violation at its true depth.
func TestCoopBoundSharing(t *testing.T) {
	sys, x := counterSystem()
	p := expr.Ne(x.Ref(), expr.IntConst(5))
	phi := ltl.G(ltl.Atom(p))
	bus := newCoopBus()
	opts := Options{MaxDepth: 10}
	opts.coop = bus

	r, err := BMC(sys, phi, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Violated || r.Depth != 5 {
		t.Fatalf("BMC = %v at depth %d, want violated at 5", r.Status, r.Depth)
	}
	// Depths 0..4 were clean, each raising the bound once.
	if got := bus.boundsShared.Load(); got != 5 {
		t.Errorf("boundsShared = %d, want 5", got)
	}
	if got := bus.bound(); got != 5 {
		t.Errorf("bound = %d, want 5", got)
	}
	// Co-safety negation → incremental by default: one reuse per depth
	// past the first.
	if got := r.Stats.IncrementalReuses; got != 5 {
		t.Errorf("BMC IncrementalReuses = %d, want 5", got)
	}

	// k-induction on the same bus: base cases 0..4 are covered by the
	// bound and skipped (no new bounds published), the base case at 5
	// finds the genuine counterexample — sharing never masks it.
	r2, err := KInduction(sys, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != Violated || r2.Depth != 5 {
		t.Fatalf("k-induction = %v at depth %d, want violated at 5", r2.Status, r2.Depth)
	}
	if err := witness.Validate(sys, phi, r2.Trace); err != nil {
		t.Fatalf("k-induction trace rejected: %v", err)
	}
	if got := bus.boundsShared.Load(); got != 5 {
		t.Errorf("boundsShared after k-induction = %d, want 5 (skipped bases publish nothing)", got)
	}
	// Both incremental unrollers (base and step) extended once per
	// depth 1..5.
	if got := r2.Stats.IncrementalReuses; got != 10 {
		t.Errorf("k-induction IncrementalReuses = %d, want 10", got)
	}
}

// TestCoopBusStress hammers every bus operation from three goroutines
// (the engine count of a finite-system race); run under -race this is
// the race-safety audit for the cooperation counters. The final state
// is still deterministic: bounds are monotone and reuse counts are
// exact.
func TestCoopBusStress(t *testing.T) {
	bus := newCoopBus()
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= iters; i++ {
				bus.publishBound(g*iters + i)
				_ = bus.bound()
				bus.noteReuse()
			}
		}()
	}
	wg.Wait()
	if got := bus.bound(); got != 3*iters {
		t.Errorf("bound = %d, want %d (the maximum ever published)", got, 3*iters)
	}
	if got := bus.incrementalReuses.Load(); got != 3*iters {
		t.Errorf("incrementalReuses = %d, want %d", got, 3*iters)
	}
	if got := bus.boundsShared.Load(); got < 1 || got > 3*iters {
		t.Errorf("boundsShared = %d, want within [1, %d]", got, 3*iters)
	}
	var st Stats
	bus.fold(&st)
	if st.IncrementalReuses != 3*iters || st.BoundsShared != bus.boundsShared.Load() {
		t.Errorf("fold mismatch: %+v", st)
	}
}

// TestCoopThreeEnginesConcurrent runs the real engines — BMC,
// k-induction, and the BDD reachability engine — concurrently over one
// shared bus, the exact topology the portfolio creates. Verdicts must
// come out right under every interleaving of bound publications (and
// -race must stay quiet).
func TestCoopThreeEnginesConcurrent(t *testing.T) {
	sys, p := evenSystem()
	phi := ltl.G(ltl.Atom(p))
	bus := newCoopBus()
	opts := Options{MaxDepth: 12, Timeout: 30 * time.Second}
	opts.coop = bus

	results := make([]*Result, 3)
	errs := make([]error, 3)
	runs := []func() (*Result, error){
		func() (*Result, error) { return BMC(sys, phi, opts) },
		func() (*Result, error) { return KInduction(sys, p, opts) },
		func() (*Result, error) {
			sym, err := NewSym(sys, opts)
			if err != nil {
				return nil, err
			}
			return sym.CheckInvariant(p)
		},
	}
	var wg sync.WaitGroup
	for i, f := range runs {
		i, f := i, f
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = f()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d failed: %v", i, err)
		}
	}
	if results[0].Status != Unknown {
		t.Errorf("BMC on a holding property = %v, want unknown", results[0].Status)
	}
	if results[1].Status != Holds {
		t.Errorf("k-induction = %v, want holds", results[1].Status)
	}
	if results[2].Status != Holds {
		t.Errorf("bdd = %v, want holds", results[2].Status)
	}
	// Bounds only let k-induction skip base cases; whatever the
	// interleaving, its step case proves at the property's induction
	// depth.
	if d := results[1].Depth; d != 3 {
		t.Errorf("k-induction depth = %d, want 3", d)
	}
}

// TestPortfolioCooperationVerdicts pins the portfolio entry point on
// conclusive instances of both polarities: sharing bounds must not
// flip a verdict, and the evidence must survive validation.
func TestPortfolioCooperationVerdicts(t *testing.T) {
	holdsSys, p := evenSystem()
	violSys, x := counterSystem()
	bad := expr.Ne(x.Ref(), expr.IntConst(5))
	cases := []struct {
		name string
		sys  *ts.System
		phi  *ltl.Formula
		want Status
	}{
		{"holds", holdsSys, ltl.G(ltl.Atom(p)), Holds},
		{"violated", violSys, ltl.G(ltl.Atom(bad)), Violated},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, err := Portfolio(tc.sys, tc.phi, Options{MaxDepth: 12, Timeout: 30 * time.Second, ValidateWitness: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != tc.want {
				t.Fatalf("portfolio = %v, want %v", r.Status, tc.want)
			}
			if r.Witness == witness.Failed {
				t.Fatalf("witness validation failed: %s", r.Note)
			}
			if r.Stats == nil {
				t.Fatal("portfolio reported no stats")
			}
		})
	}
}

// TestInterruptedIncrementalNoStateLeak is the interrupted-session
// regression: cancel a portfolio mid-unrolling and interrupt a
// k-induction mid-search, then verify a fresh Check of the same
// instance behaves bit-for-bit like one in a pristine process — same
// verdicts, same depths, same deterministic solver counters. Any
// learned clause or heuristic state leaking between independent
// checks would perturb the CDCL trajectory and show up here.
func TestInterruptedIncrementalNoStateLeak(t *testing.T) {
	sys, p := evenSystem()
	phi := ltl.G(ltl.Atom(p))
	type snapshot struct {
		status Status
		depth  int
		// The deterministic CDCL trajectory counters; wall times are
		// excluded. Any learned clause leaking into a fresh check would
		// change these.
		conflicts, decisions, propagations, learnts, restarts, reuses int64
	}
	snap := func(r *Result) snapshot {
		st := r.Stats
		return snapshot{r.Status, r.Depth,
			st.Conflicts, st.Decisions, st.Propagations, st.Learnts, st.Restarts, st.IncrementalReuses}
	}
	clean := func() (snapshot, snapshot) {
		rk, err := KInduction(sys, p, Options{MaxDepth: 10})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := BMC(sys, phi, Options{MaxDepth: 10})
		if err != nil {
			t.Fatal(err)
		}
		return snap(rk), snap(rb)
	}
	k1, b1 := clean()

	// Cancel a cooperative portfolio race mid-flight...
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		cancel()
	}()
	if _, err := Portfolio(sys, phi, Options{MaxDepth: 10, Context: ctx, ValidateWitness: true}); err != nil {
		t.Fatalf("cancelled portfolio errored: %v", err)
	}
	// ...and strangle a k-induction with a one-conflict budget so its
	// incremental solvers die mid-search.
	if _, err := KInduction(sys, p, Options{MaxDepth: 10, Budget: Budget{SATConflicts: 1}}); err != nil {
		t.Fatal(err)
	}

	k2, b2 := clean()
	if k1 != k2 {
		t.Errorf("k-induction diverged after interrupted sessions:\nbefore %+v\nafter  %+v", k1, k2)
	}
	if b1 != b2 {
		t.Errorf("BMC diverged after interrupted sessions:\nbefore %+v\nafter  %+v", b1, b2)
	}
}

// TestCoopStatsWire pins the JSON wire form and String rendering of
// the cooperation counters. InvariantsHandedOff keeps its wire key for
// stored records but is no longer rendered.
func TestCoopStatsWire(t *testing.T) {
	st := &Stats{BoundsShared: 3, InvariantsHandedOff: 1, IncrementalReuses: 7}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"bounds_shared", "invariants_handed_off", "incremental_reuses"} {
		if !strings.Contains(string(data), key) {
			t.Errorf("wire form %s lacks %q", data, key)
		}
	}
	var back Stats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.BoundsShared != 3 || back.InvariantsHandedOff != 1 || back.IncrementalReuses != 7 {
		t.Errorf("round trip lost counters: %+v", back)
	}
	if s := st.String(); !strings.Contains(s, "coop: 3 bounds shared, 7 incremental reuses") {
		t.Errorf("String() = %q, want cooperation counters rendered", s)
	}
}

// chainSystem is the depth-scaling benchmark workload: a counter
// driving a small pipeline of followers, so every unroll depth blasts
// a non-trivial slice of constraints.
func chainSystem(width int) (*ts.System, *expr.Var) {
	sys := ts.New(fmt.Sprintf("chain%d", width))
	x := sys.Int("x", 0, 63)
	sys.Init(x, expr.IntConst(0))
	sys.Assign(x, expr.Ite(expr.Lt(x.Ref(), expr.IntConst(63)),
		expr.Add(x.Ref(), expr.IntConst(1)), x.Ref()))
	prev := x
	for i := 0; i < width; i++ {
		f := sys.Int(fmt.Sprintf("f%d", i), 0, 63)
		sys.Init(f, expr.IntConst(0))
		sys.Assign(f, prev.Ref())
		prev = f
	}
	return sys, x
}

// BenchmarkIncrementalBMCDepthScaling measures how incremental BMC
// scales with depth: extending one solver costs O(k) encoding work to
// reach depth k. The counterexample sits at the named depth, so each
// run pays for every depth below it.
func BenchmarkIncrementalBMCDepthScaling(b *testing.B) {
	for _, depth := range []int{8, 16, 24} {
		sys, x := chainSystem(3)
		phi := ltl.G(ltl.Atom(expr.Ne(x.Ref(), expr.IntConst(int64(depth)))))
		b.Run(fmt.Sprintf("incremental/depth%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := BMC(sys, phi, Options{MaxDepth: 32})
				if err != nil {
					b.Fatal(err)
				}
				if r.Status != Violated || r.Depth != depth {
					b.Fatalf("got %v at depth %d, want violated at %d", r.Status, r.Depth, depth)
				}
			}
		})
	}
}
