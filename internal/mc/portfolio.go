package mc

import (
	"context"
	"fmt"
	"time"

	"verdict/internal/expr"
	"verdict/internal/ltl"
	"verdict/internal/resilience"
	"verdict/internal/trace"
	"verdict/internal/ts"
)

// stallGrace is how long the portfolio waits, after cancelling the
// losing engines, for their final outcomes before writing them off as
// stalled. Cancellation sets each engine's stop signal (Options.armStop),
// which the SAT solver reads at every conflict and decision, the CNF
// encoder at every gate and the BDD manager at every node, so a
// healthy loser stops within one such step and reports within well
// under a millisecond (Stats.DrainTime records the wait); only a
// genuinely hung engine (deadlock, runaway loop that reads no stop
// signal, injected stall) runs into this deadline.
const stallGrace = 250 * time.Millisecond

// bddRaceBits is the largest model, in current-state bits, on which
// the BDD engine races an invariant check from the start. Above it BDD
// is the race's fallback: on the Figure 6 fat-trees (37+ bits) it won
// no cell yet slowed the SAT engine that did; on the small service
// models (2–8 bits) it wins most races. DESIGN.md §6 has the evidence.
const bddRaceBits = 32

// stateBits counts the current-state bits of a finite system: the
// bits the BDD engine allocates per state copy.
func stateBits(sys *ts.System) int {
	n := 0
	for _, v := range sys.AllVars() {
		n += widthOf(v.T)
	}
	return n
}

// Portfolio races the applicable engines on the same (system,
// property) instance and returns the first conclusive Result,
// cancelling the rest. No single engine dominates: BMC refutes fast
// but never proves, k-induction proves fast when the property is
// inductive at small depth but diverges otherwise, and the BDD engine
// decides everything eventually but can blow up building the
// transition relation. Racing them turns "fast on its lucky workload"
// into "fast on every workload that any engine is lucky on".
//
// The lineup, derived from the instance:
//
//   - BMC — always (the only engine for real-valued systems; it can
//     only conclude Violated).
//   - k-induction — finite systems with a safety-invariant property
//     G(p); concludes both ways.
//   - BDD — finite systems (reachability for invariants, the tableau
//     fair-cycle product for general LTL); concludes both ways. On an
//     invariant over more than bddRaceBits state bits it does not
//     race: it is the fallback, started the moment a racer ends
//     without an accepted verdict (Unknown, error or panic, or a
//     rejected witness) while the race is live, and bounded by what is
//     left of the race's wall-clock limit. BMC and k-induction give up
//     at MaxDepth; the fallback keeps "decides everything eventually".
//
// Stats.Racers on the returned Result lists the engines started, in
// start order, with a fallback start marked "bdd(fallback)".
//
// Every engine runs in its own goroutine with its own solver state
// over a shared child of opts.Context; the winner's cancel sets the
// losers' stop signals, the same flags a wall-clock deadline sets, and
// the portfolio waits for them to report before it returns
// (Stats.DrainTime). A loser written off as stalled may outlive this
// call; the only mutable state the engines share is the cooperation
// bus, which is built for exactly that (atomics and a mutex; ts.System
// and expression trees are immutable during checking).
//
// The race is also a relay: BMC and k-induction publish "no
// counterexample below depth k" bounds to a shared cooperation bus
// (coop.go), so neither re-proves depths the other cleared. A bound is
// a theorem, so sharing it affects time-to-verdict, never the verdict
// itself; the bus totals land in the winner's Stats (BoundsShared,
// IncrementalReuses).
//
// The race is fault-isolated: an engine that panics is recovered in
// its own goroutine into a structured *resilience.EngineError and the
// race continues with the survivors; an engine that hangs (reads no
// stop signal) is written off once the wall-clock limit plus a grace
// period passes. Either way the failure is recorded in the returned
// Result's Stats.EngineErrors, so degraded races are visible.
//
// A violation carries a trace whenever one can be had. The BDD
// engine decides general LTL without extracting a lasso, so its
// traceless Violated does not end the race while BMC is still
// running: the portfolio holds it, and BMC's lasso wins (validated
// like any winner's evidence) once BMC finds it. If BMC ends without
// one (MaxDepth below the lasso, a deadline, cancellation, a rejected
// trace), the held verdict is returned as it is: traceless, never
// Unknown.
//
// The winning Result keeps the deciding engine's stats and depth and
// gets "portfolio/" prefixed to its engine name. If no engine
// concludes, the fallback's Unknown is returned when it ran, else the
// deepest Unknown; an error comes back only when every engine failed.
func Portfolio(sys *ts.System, phi *ltl.Formula, opts Options) (*Result, error) {
	finite, err := opts.vet(sys)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(opts.ctx())
	defer cancel()
	bus := newCoopBus()
	inner := opts
	inner.Context = ctx
	inner.coop = bus
	inner.vetted = vettedReal
	if finite {
		inner.vetted = vettedFinite
	}

	type run struct {
		name string
		fn   func(Options) (*Result, error)
	}
	runs := []run{{"bmc", func(o Options) (*Result, error) { return BMC(sys, phi, o) }}}
	var fallback *run
	if finite {
		p, inv := ltl.IsSafetyInvariant(phi)
		if inv {
			runs = append(runs, run{"k-induction", func(o Options) (*Result, error) {
				return KInduction(sys, p, o)
			}})
		}
		bdd := run{"bdd", func(o Options) (*Result, error) {
			sym, err := NewSym(sys, o)
			if err == ErrTimeout {
				return &Result{Status: Unknown, Engine: "bdd", Elapsed: time.Since(start), Note: o.stopNote()}, nil
			}
			if err == ErrBudget {
				return &Result{Status: Unknown, Engine: "bdd", Elapsed: time.Since(start),
					Note: fmt.Sprintf("bdd node budget exhausted (%d nodes)", o.Budget.BDDNodes)}, nil
			}
			if err != nil {
				return nil, err
			}
			return sym.CheckLTL(phi)
		}}
		// On a large invariant check BDD rarely wins the race yet takes
		// CPU and memory from the SAT engine that does, so it waits as a
		// fallback until a racer gives up (see bddRaceBits).
		if inv && stateBits(sys) > bddRaceBits {
			fallback = &bdd
		} else {
			runs = append(runs, bdd)
		}
	}

	type outcome struct {
		name     string
		fallback bool
		res      *Result
		err      error
	}
	// One slot per engine that can start, the fallback included, so
	// losers finishing after we return never block.
	ch := make(chan outcome, len(runs)+1)
	var (
		racers      []string
		pending     int
		outstanding = make(map[string]bool, len(runs)+1)
	)
	launch := func(r run, o Options, fallback bool) {
		label := r.name
		if fallback {
			label += "(fallback)"
		}
		racers = append(racers, label)
		pending++
		outstanding[r.name] = true
		go func() {
			out := outcome{name: r.name, fallback: fallback}
			defer func() {
				if p := recover(); p != nil {
					// A panicking engine must not take the race (or the
					// caller's goroutine) down: capture it as a
					// structured failure; the survivors keep racing.
					out.res, out.err = nil, resilience.NewEngineError(r.name, p)
				}
				ch <- out
			}()
			resilience.At(ctx, "portfolio/"+r.name)
			out.res, out.err = r.fn(o)
			// Test-only integrity fault: emit a deliberately damaged
			// counterexample so the witness validator's rejection path is
			// exercised end to end.
			if out.err == nil && out.res != nil && out.res.Trace != nil &&
				resilience.At(ctx, "portfolio/"+r.name+"/emit") == resilience.FaultCorrupt {
				out.res.Trace = corruptTrace(out.res.Trace)
			}
		}()
	}
	for _, r := range runs {
		launch(r, inner, false)
	}
	// startFallback runs once a racer ends without an accepted verdict,
	// while the race is live. A late start must not extend the race, so
	// the fallback gets what is left of the wall-clock limit.
	startFallback := func() {
		if fallback == nil || ctx.Err() != nil {
			return
		}
		o, ok := inner.remaining(start)
		if !ok {
			return
		}
		launch(*fallback, o, true)
		fallback = nil
	}

	var (
		best         *Result
		lastResort   *Result
		held         *Result // a traceless Violated awaiting BMC's lasso
		failures     []string
		firstErr     error
		witnessFails int64
	)
	fail := func(name string, err error) {
		failures = append(failures, name+": "+err.Error())
		if firstErr == nil {
			firstErr = fmt.Errorf("mc: portfolio engine %s: %w", name, err)
		}
	}
	take := func(o outcome) {
		pending--
		delete(outstanding, o.name)
		if o.err != nil {
			fail(o.name, o.err)
		}
	}
	writeOffStalled := func() {
		for name := range outstanding {
			failures = append(failures, name+": stalled (no response to cancellation)")
		}
		pending = 0
	}
	attach := func(r *Result) *Result {
		if r.Stats == nil {
			r.Stats = &Stats{}
		}
		r.Stats.Racers = racers
		// Race-wide cooperation totals. An engine written off as
		// stalled may still tick the counters after this snapshot; the
		// snapshot itself is atomic loads — race-clean by construction,
		// checked by the -race stress test.
		bus.fold(r.Stats)
		if len(failures) > 0 || witnessFails > 0 {
			r.Stats.EngineErrors = append(r.Stats.EngineErrors, failures...)
			r.Stats.WitnessFailures += witnessFails
		}
		r.Engine = "portfolio/" + r.Engine
		r.Elapsed = time.Since(start)
		return r
	}
	// finish cancels the losers, then gives them one grace period to
	// report so their failures (if any) land in the winner's stats. The
	// wait is the winner's DrainTime.
	finish := func(winner *Result) *Result {
		drainStart := time.Now()
		cancel()
		grace := time.NewTimer(stallGrace)
		defer grace.Stop()
		for pending > 0 {
			select {
			case o := <-ch:
				take(o)
			case <-grace.C:
				writeOffStalled()
			}
		}
		r := attach(winner)
		r.Stats.DrainTime = time.Since(drainStart)
		return r
	}

	// Collection loop. It never blocks forever on a hung engine: the
	// wall-clock limit plus grace, or the parent context dying, puts a
	// deadline on the remaining outcomes.
	var stallC <-chan time.Time
	if t := opts.timeLimit(); t > 0 {
		timer := time.NewTimer(t + stallGrace)
		defer timer.Stop()
		stallC = timer.C
	}
	parentDone := opts.ctx().Done()
	for pending > 0 {
		select {
		case o := <-ch:
			if o.err == nil && o.res.Status != Unknown {
				pending--
				delete(outstanding, o.name)
				// The winner's evidence must survive independent
				// validation before its verdict is accepted: an engine
				// whose counterexample does not replay (or whose
				// certificate does not check) is rejected like a crashed
				// engine, and the race falls back to the survivors.
				if inner.ValidateWitness {
					if werr := ApplyWitness(sys, phi, o.res); werr != nil {
						witnessFails++
						failures = append(failures, o.name+": witness validation failed: "+werr.Error())
						startFallback()
						continue
					}
				}
				if o.res.Status == Violated && o.res.Trace == nil && outstanding["bmc"] {
					held = o.res
					continue
				}
				return finish(o.res), nil
			}
			take(o)
			if held != nil && !outstanding["bmc"] {
				return finish(held), nil
			}
			switch {
			case o.err != nil:
			case o.fallback:
				lastResort = o.res
			case best == nil || o.res.Depth > best.Depth:
				best = o.res
			}
			startFallback()
		case <-parentDone:
			// The caller gave up: engines wind down cooperatively, but
			// only wait one grace period for them (a hung engine never
			// answers).
			parentDone = nil
			cancel()
			stallC = time.After(stallGrace)
		case <-stallC:
			cancel()
			writeOffStalled()
		}
	}
	if held != nil {
		return attach(held), nil
	}
	// The fallback decides everything given time, so when it gives up
	// its reason (timeout, budget, cancellation) is the race's;
	// otherwise the deepest Unknown is the most informative.
	if lastResort != nil {
		best = lastResort
	}
	if best != nil {
		return attach(best), nil
	}
	if witnessFails > 0 && firstErr == nil {
		// Every conclusive engine lied (or was corrupted) and no honest
		// Unknown remains: degrade to Unknown with the rejections on
		// display rather than reporting an unvalidated verdict.
		return &Result{Status: Unknown, Engine: "portfolio", Elapsed: time.Since(start),
			Note:  "all conclusive verdicts failed witness validation",
			Stats: &Stats{Racers: racers, EngineErrors: failures, WitnessFailures: witnessFails}}, nil
	}
	if len(outstanding) == len(racers) || firstErr == nil {
		// No engine produced a usable result (all stalled, or the
		// parent died before any outcome): degrade to Unknown rather
		// than failing the caller — the race ran out of road, not the
		// model.
		return &Result{Status: Unknown, Engine: "portfolio", Elapsed: time.Since(start), Note: opts.stopNote(),
			Stats: &Stats{Racers: racers, EngineErrors: failures, WitnessFailures: witnessFails}}, nil
	}
	return nil, firstErr
}

// corruptTrace returns a deterministically damaged copy of t (fault
// injection only): every boolean in the first state is flipped and
// every integer bumped, so the result is no execution of any system
// whose INIT or TRANS actually constrains those variables. The
// original is left intact — engines may hold references to it.
func corruptTrace(t *trace.Trace) *trace.Trace {
	cp := t.Clone()
	if len(cp.States) == 0 {
		return cp
	}
	st := cp.States[0]
	for k, v := range st.Values {
		switch v.Kind {
		case expr.KindBool:
			st.Values[k] = expr.BoolValue(!v.B)
		case expr.KindInt:
			st.Values[k] = expr.IntValue(v.I + 1)
		}
	}
	return cp
}
