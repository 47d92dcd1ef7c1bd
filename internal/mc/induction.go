package mc

import (
	"fmt"
	"time"

	"verdict/internal/expr"
	"verdict/internal/sat"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// KInduction attempts to prove the invariant G(p) by k-induction with
// simple-path strengthening, or returns a counterexample found by the
// base case. Only finite systems are supported (the SMT engine checks
// real-valued models via BMC, which cannot prove).
//
// For each k: the base case checks that no state violating p is
// reachable in exactly k steps; the induction step checks that any
// simple path of k+1 p-states cannot be extended to a ¬p state. Base
// violated → Violated with trace; step unsatisfiable → Holds.
//
// Both query families are strictly additive in k, so the engine is
// incremental: one base unroller and one step unroller grow frame by
// frame through the blast layer, and every depth reuses the previous
// depth's clause databases via sat.Solver.SolveAssuming (the ¬p-at-end
// obligation is an assumption, never asserted). Under the portfolio's
// cooperation bus, base cases already covered by a published "no
// counterexample below k" bound are skipped, and clean base cases
// publish their own bound back. The base unrolling is built only when
// a base case must be solved, directly at that depth, so in a race
// where BMC's bound keeps ahead the INIT-rooted frames are blasted
// once, by BMC.
func KInduction(sys *ts.System, p *expr.Expr, opts Options) (res *Result, err error) {
	// See BMC: unsupported input surfaces as a cnf.CompileError panic
	// and is converted to an error here rather than crashing the caller.
	defer recoverCompile(&err)
	finite, err := opts.vet(sys)
	if err != nil {
		return nil, err
	}
	if !finite {
		return nil, fmt.Errorf("mc: k-induction requires a finite system (got real-valued variables in %s)", sys.Name)
	}
	if p.Type().Kind != expr.KindBool || expr.HasNext(p) {
		return nil, fmt.Errorf("mc: k-induction property must be a boolean state predicate")
	}
	start := time.Now()
	coop := opts.coop
	notP := expr.Not(p)

	stats := &Stats{}
	var base, step *unroller
	// finish folds both live solvers' counters exactly once, at the
	// end — incremental solvers span all depths.
	finish := func(r *Result) *Result {
		stats.addUnroller(base)
		stats.addUnroller(step)
		r.Stats = stats
		return r
	}
	for k := 0; k <= opts.maxDepth(); k++ {
		depthStart := time.Now()
		if opts.expired(start) {
			return finish(&Result{Status: Unknown, Engine: "k-induction", Depth: k, Elapsed: time.Since(start), Note: opts.stopNote()}), nil
		}
		// Grow the step unrolling to frames 0..k+1 (without INIT).
		if step == nil {
			step = newUnroller(sys, 1, false, true, opts, start)
		} else {
			step.extend()
		}
		// Frame k joined the step prefix this iteration: it must carry
		// p, and the simple-path constraint makes it pairwise distinct
		// from the earlier prefix frames (required for completeness;
		// without it k-induction can loop forever on systems with
		// unreachable p-cycles). Earlier pairs were added at earlier
		// depths.
		t := time.Now()
		step.enc.Assert(p, step.frames[k], nil)
		for i := 0; i < k; i++ {
			step.sats.AddClause(step.enc.EqFrames(step.frames[i], step.frames[k]).Not())
		}
		step.encoded(t)

		// Base case: init path of k steps ending in ¬p — skipped when a
		// published bound already covers this depth. The base unrolling
		// (frames 0..k with INIT) is built or grown only here.
		if coop.bound() <= k {
			if base == nil {
				base = newUnroller(sys, k, true, true, opts, start)
			}
			for len(base.frames) <= k {
				base.extend()
			}
			st := base.solve(base.litAt(notP, k))
			switch st {
			case sat.Sat:
				return finish(&Result{
					Status:  Violated,
					Trace:   base.extractTrace(-1),
					Engine:  "k-induction",
					Depth:   k,
					Elapsed: time.Since(start),
				}), nil
			case sat.Unknown:
				return finish(&Result{Status: Unknown, Engine: "k-induction", Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(base.sats, start)}), nil
			}
			// Depths 0..k-1 were clean before this one (iteration from
			// 0; skips were bound-covered), so no counterexample below
			// k+1.
			coop.publishBound(k + 1)
		}

		// Induction step: p-states 0..k on a simple path, ¬p at k+1.
		st := step.solve(step.litAt(notP, k+1))
		stats.DepthTime = append(stats.DepthTime, time.Since(depthStart))
		switch st {
		case sat.Unsat:
			// Certify the proof: at depth 0 the property itself is
			// inductive, so the certificate names it as its
			// strengthening and is checked by the three
			// inductive-invariant conditions. At k > 0 the strengthening
			// is the simple-path unrolling, which has no compact
			// predicate form — the certificate claims only reachability
			// and is checked by explicit replay.
			cert := &witness.Certificate{Kind: "k-induction", Property: p, Depth: k}
			if k == 0 {
				cert.Invariant = p
			}
			return finish(&Result{
				Status:  Holds,
				Engine:  "k-induction",
				Depth:   k,
				Elapsed: time.Since(start),
				Note:    fmt.Sprintf("proved at induction depth %d", k),
				Cert:    cert,
			}), nil
		case sat.Unknown:
			return finish(&Result{Status: Unknown, Engine: "k-induction", Depth: k, Elapsed: time.Since(start), Note: opts.solverNote(step.sats, start)}), nil
		}
	}
	return finish(&Result{
		Status:  Unknown,
		Engine:  "k-induction",
		Depth:   opts.maxDepth(),
		Elapsed: time.Since(start),
		Note:    fmt.Sprintf("not inductive up to depth %d", opts.maxDepth()),
	}), nil
}
