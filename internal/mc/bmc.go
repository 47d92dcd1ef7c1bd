package mc

import (
	"fmt"
	"sync/atomic"
	"time"

	"verdict/internal/cnf"
	"verdict/internal/ltl"
	"verdict/internal/sat"
	"verdict/internal/ts"
)

// BMC searches for a counterexample to phi by unrolling the transition
// relation to increasing depths, trying a finite-prefix witness and
// every lasso loop-back index at each depth. Finite systems use the
// pure SAT pipeline; systems with real-valued variables automatically
// go through the lazy SMT(LRA) context. BMC never returns Holds — use
// KInduction or the BDD engine to prove properties. On a system with
// FAIRNESS constraints every property but an invariant is checked over
// fair paths only, as the BDD engine does: the negation it searches
// for conjoins G F f per constraint f (ltl.Counterexample), so only a
// lasso whose loop meets every constraint is a witness.
//
// For pure co-safety negations (every witness is a finite prefix —
// notably safety invariants G(p)) the unrolling is incremental: depth
// k+1 extends depth k's solver through the blast layer, reusing its
// clause database and heuristics. Lasso searches rebuild the
// unrolling per depth instead: each depth's loop-witness encodings
// would pile up as stale gates that burden later depths. Under the
// portfolio's cooperation bus, BMC additionally publishes "no
// counterexample below k" bounds after each clean depth and skips
// depths another engine has already proven clean.
func BMC(sys *ts.System, phi *ltl.Formula, opts Options) (res *Result, err error) {
	finite, err := opts.vet(sys)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var stop atomic.Bool
	defer opts.armStop(&stop, start)()
	neg := ltl.Counterexample(phi, sys.Fairness())
	engine := "bmc"
	if !finite {
		engine = "smt-bmc"
	}
	incremental := coSafety(neg)
	// Depth bounds are exchangeable over the bus only for safety
	// invariants, where BMC's depth-k queries and k-induction's base
	// cases cover exactly the same witnesses (an init path ending in a
	// ¬p state).
	coop := opts.coop
	if _, isInv := ltl.IsSafetyInvariant(phi); !isInv {
		coop = nil
	}

	var u *unroller
	stats := &Stats{}
	// finish folds the live unroller in and attaches the stats; every
	// rebuilt-and-discarded one was folded in already.
	finish := func(r *Result) *Result {
		stats.addUnroller(u)
		r.Stats = stats
		return r
	}
	k := 0
	// stopped is the result of a deadline or cancellation, noticed
	// between queries or (through recoverCompile) mid-encoding.
	stopped := func() *Result {
		return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.stopNote()})
	}
	defer recoverCompile(&res, &err, stopped)
	for ; k <= opts.maxDepth(); k++ {
		depthStart := time.Now()
		if stop.Load() {
			return stopped(), nil
		}
		if u == nil || !incremental {
			stats.addUnroller(u)
			u = newUnroller(sys, finite, opts, &stop)
			u.blast(k, true)
		} else {
			u.extend()
		}
		if coop.bound() > k {
			// Another engine already proved this depth clean; keep the
			// unrolling in sync and move on.
			stats.DepthTime = append(stats.DepthTime, time.Since(depthStart))
			continue
		}
		// No-loop witness.
		st := u.solve(u.witness(neg, -1)...)
		if st == sat.Sat {
			return finish(&Result{
				Status:  Violated,
				Trace:   u.extractTrace(-1),
				Engine:  engine,
				Depth:   k,
				Elapsed: time.Since(start),
			}), nil
		}
		if st == sat.Unknown {
			return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(u.sats, start)}), nil
		}
		// Lasso witnesses, one loop index at a time. Pure co-safety
		// witnesses (no G/R in the negated NNF) are always caught by a
		// finite prefix, so the loop search is skipped for them.
		if !coSafety(neg) {
			for l := 0; l <= k; l++ {
				if stop.Load() {
					return stopped(), nil
				}
				st := u.solve(u.witness(neg, l)...)
				if st == sat.Sat {
					return finish(&Result{
						Status:  Violated,
						Trace:   u.extractTrace(l),
						Engine:  engine,
						Depth:   k,
						Elapsed: time.Since(start),
					}), nil
				}
				if st == sat.Unknown {
					return finish(&Result{Status: Unknown, Engine: engine, Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(u.sats, start)}), nil
				}
			}
		}
		// Depth k is clean; depths 0..k-1 were clean before (we iterate
		// from 0 and every skip was covered by a published bound), so
		// no counterexample exists below k+1.
		coop.publishBound(k + 1)
		stats.DepthTime = append(stats.DepthTime, time.Since(depthStart))
	}
	return finish(&Result{
		Status:  Unknown,
		Engine:  engine,
		Depth:   opts.maxDepth(),
		Elapsed: time.Since(start),
		Note:    fmt.Sprintf("no counterexample up to depth %d", opts.maxDepth()),
	}), nil
}

// recoverCompile is a SAT-based engine's API boundary for the CNF
// encoder's panics. A cnf.CompileError (unsupported input, e.g.
// var*var multiplication in TRANS) becomes an ordinary error. A
// cnf.ErrStopped (the stop signal was set mid-encoding) becomes the
// Unknown that stopped returns, never an error, so a beaten engine
// does not count as a failed one. Any other panic is re-raised
// (internal invariants should crash loudly in tests).
func recoverCompile(res **Result, err *error, stopped func() *Result) {
	if r := recover(); r != nil {
		if r == cnf.ErrStopped {
			*res, *err = stopped(), nil
			return
		}
		if ce, ok := r.(*cnf.CompileError); ok {
			*err = fmt.Errorf("mc: %w", ce)
			return
		}
		panic(r)
	}
}

// coSafety reports whether an NNF formula is a pure finite-witness
// (co-safety) formula: no G or R operators.
func coSafety(f *ltl.Formula) bool {
	if f == nil {
		return true
	}
	if f.Kind == ltl.KindG || f.Kind == ltl.KindR {
		return false
	}
	return coSafety(f.L) && coSafety(f.R)
}
