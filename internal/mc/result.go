// Package mc hosts verdict's model-checking engines: SAT-based bounded
// model checking with lasso liveness counterexamples, k-induction for
// unbounded safety proofs, BDD-based CTL/LTL checking with fairness
// and parameter synthesis, an SMT-backed BMC for real-valued
// (infinite-domain) models, and an explicit-state oracle used for
// cross-validation and as a baseline in the ablation benchmarks.
package mc

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"verdict/internal/sat"
	"verdict/internal/trace"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// Status is the verdict of a check.
type Status int

// Check outcomes. Unknown means the engine exhausted its bound or
// budget without deciding (bounded engines cannot prove liveness).
const (
	Unknown Status = iota
	Holds
	Violated
)

func (s Status) String() string {
	switch s {
	case Holds:
		return "holds"
	case Violated:
		return "violated"
	}
	return "unknown"
}

// Result reports the outcome of a check.
type Result struct {
	Status Status
	// Trace is the counterexample when Status == Violated (may be nil
	// for engines that decide without producing traces).
	Trace *trace.Trace
	// Engine names the deciding engine ("bmc", "k-induction", "bdd",
	// "smt-bmc", "explicit").
	Engine string
	// Depth is the unroll depth at which a bounded engine concluded,
	// or the induction depth for k-induction.
	Depth int
	// Elapsed is the wall-clock time spent.
	Elapsed time.Duration
	// Note carries engine-specific details (timeout reason, fixpoint
	// iteration counts, ...).
	Note string
	// Stats carries the deciding engine's observability counters (nil
	// for engines that do not report any).
	Stats *Stats
	// Cert is the proof evidence an engine attaches to a Holds verdict
	// (k-induction strengthening, BDD fixpoint invariant); checked by
	// witness.ValidateCertificate. Nil when the engine cannot certify.
	Cert *witness.Certificate
	// Witness reports the outcome of independent witness validation
	// (Options.ValidateWitness): "validated", "failed", "skipped"
	// (state space too large to certify), or empty when there was
	// nothing to validate.
	Witness witness.Status
}

// Stats aggregates an engine's observability counters: SAT search
// effort summed over every solver the check used, the BDD arena size,
// and wall time per unroll/induction depth. It is reported on Result
// and printed by `cmd/verdict -stats` and `cmd/verdict-bench -stats`.
type Stats struct {
	// SAT search counters (BMC, k-induction, SMT-BMC).
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Learnts      int64
	Restarts     int64
	// BDDNodes is the final BDD arena size (BDD engine only).
	BDDNodes int
	// DepthTime records the wall time the engine spent at each unroll
	// (BMC) or induction (k-induction) depth, index = depth.
	DepthTime []time.Duration
	// EncodeTime and SolveTime split a SAT-based engine's time into
	// building CNF — unrolling construction and extension, and the
	// encoding of each query — and searching in the solver, summed over
	// every unrolling the engine used.
	EncodeTime time.Duration
	SolveTime  time.Duration
	// DrainTime is how long a portfolio waited, after its winner's
	// verdict, for the beaten engines to stop and report (zero on
	// single-engine checks). It is time to verdict that no engine
	// spends deciding anything.
	DrainTime time.Duration
	// Racers lists the engines a portfolio started, in start order; a
	// fallback start is marked, as in "bdd(fallback)". Empty on
	// single-engine checks.
	Racers []string
	// EngineErrors lists portfolio engines that died (panicked or
	// errored) while the race continued with the survivors; each entry
	// is "engine: cause". Empty on single-engine checks.
	EngineErrors []string
	// WitnessFailures counts verdicts whose evidence failed independent
	// witness validation: conclusive engine results the portfolio
	// rejected and fell back from, or (single-engine checks) the
	// returned result itself. The rejections' details land in
	// EngineErrors.
	WitnessFailures int64
	// Cooperation counters. On a portfolio result they are race-wide
	// totals folded from the cooperation bus after the race settles; on
	// a single-engine result IncrementalReuses is that engine's own
	// count and BoundsShared is zero. BoundsShared counts "no
	// counterexample below depth k" facts published (each publication
	// that raised the shared bound); IncrementalReuses counts unroller
	// extensions that reused a retained solver instead of re-blasting.
	BoundsShared      int64
	IncrementalReuses int64
	// InvariantsHandedOff is always 0: the bus carries depth bounds
	// only. The field and its wire key stay because stored job
	// records carry it and the benchmark harness reads it.
	InvariantsHandedOff int64
}

// addUnroller folds an unroller's solver counters, reuses and phase
// times into the stats. Call it exactly once per unroller, when the
// engine is done with it; a nil unroller adds nothing.
func (st *Stats) addUnroller(u *unroller) {
	if u == nil {
		return
	}
	st.IncrementalReuses += u.reuses
	st.EncodeTime += u.encodeTime
	st.SolveTime += u.solveTime
	ss := u.sats.Stats()
	st.Conflicts += ss.Conflicts
	st.Decisions += ss.Decisions
	st.Propagations += ss.Propagations
	st.Learnts += ss.Learnts
	st.Restarts += ss.Restarts
}

func (st *Stats) String() string {
	if st == nil {
		return ""
	}
	var parts []string
	if len(st.Racers) > 0 {
		parts = append(parts, "racers: "+strings.Join(st.Racers, " "))
	}
	if st.Conflicts != 0 || st.Decisions != 0 || st.Propagations != 0 {
		parts = append(parts, fmt.Sprintf("sat: %d conflicts, %d decisions, %d propagations, %d learnts, %d restarts",
			st.Conflicts, st.Decisions, st.Propagations, st.Learnts, st.Restarts))
	}
	if st.BDDNodes != 0 {
		parts = append(parts, fmt.Sprintf("bdd: %d nodes", st.BDDNodes))
	}
	if st.EncodeTime != 0 || st.SolveTime != 0 {
		parts = append(parts, fmt.Sprintf("phases: encode %v, solve %v",
			st.EncodeTime.Round(time.Microsecond), st.SolveTime.Round(time.Microsecond)))
	}
	if st.DrainTime != 0 {
		parts = append(parts, fmt.Sprintf("drain: %v", st.DrainTime.Round(time.Microsecond)))
	}
	if len(st.DepthTime) > 0 {
		var ds []string
		for k, d := range st.DepthTime {
			ds = append(ds, fmt.Sprintf("%d:%v", k, d.Round(time.Microsecond)))
		}
		parts = append(parts, "per-depth: "+strings.Join(ds, " "))
	}
	if st.BoundsShared != 0 || st.IncrementalReuses != 0 {
		parts = append(parts, fmt.Sprintf("coop: %d bounds shared, %d incremental reuses",
			st.BoundsShared, st.IncrementalReuses))
	}
	if len(st.EngineErrors) > 0 {
		parts = append(parts, "engine failures: "+strings.Join(st.EngineErrors, "; "))
	}
	if st.WitnessFailures > 0 {
		parts = append(parts, fmt.Sprintf("witness failures: %d", st.WitnessFailures))
	}
	if len(parts) == 0 {
		return "no counters recorded"
	}
	return strings.Join(parts, "; ")
}

func (r *Result) String() string {
	s := fmt.Sprintf("%s [%s, depth %d, %v]", r.Status, r.Engine, r.Depth, r.Elapsed.Round(time.Millisecond))
	if r.Note != "" {
		s += " — " + r.Note
	}
	return s
}

// Budget caps the resources a single check may consume. A zero field
// means unlimited. On exhaustion an engine returns Unknown with a note
// naming the spent budget — graceful degradation instead of an
// unbounded search; WithRetry can then re-run under a larger budget.
type Budget struct {
	// Time bounds wall-clock; combined with Options.Timeout the
	// tighter bound wins.
	Time time.Duration
	// SATConflicts bounds total CDCL conflicts per solver
	// (sat.Solver.ConflictBudget).
	SATConflicts int64
	// BDDNodes bounds the BDD arena size (bdd.Manager.NodeBudget).
	BDDNodes int
}

// IsZero reports whether no budget dimension is set.
func (b Budget) IsZero() bool {
	return b.Time == 0 && b.SATConflicts == 0 && b.BDDNodes == 0
}

// Scale multiplies every set dimension by f (for retry escalation).
func (b Budget) Scale(f float64) Budget {
	out := b
	if b.Time > 0 {
		out.Time = time.Duration(float64(b.Time) * f)
	}
	if b.SATConflicts > 0 {
		out.SATConflicts = int64(float64(b.SATConflicts) * f)
	}
	if b.BDDNodes > 0 {
		out.BDDNodes = int(float64(b.BDDNodes) * f)
	}
	return out
}

func (b Budget) String() string {
	var parts []string
	if b.Time > 0 {
		parts = append(parts, fmt.Sprintf("time=%v", b.Time))
	}
	if b.SATConflicts > 0 {
		parts = append(parts, fmt.Sprintf("sat-conflicts=%d", b.SATConflicts))
	}
	if b.BDDNodes > 0 {
		parts = append(parts, fmt.Sprintf("bdd-nodes=%d", b.BDDNodes))
	}
	if len(parts) == 0 {
		return "unlimited"
	}
	return strings.Join(parts, " ")
}

// Options tunes the engines.
type Options struct {
	// MaxDepth bounds BMC unrolling and k-induction depth (default 25).
	MaxDepth int
	// Timeout bounds wall-clock time (0 = none).
	Timeout time.Duration
	// MaxExplicitStates caps explicit-state enumeration (default 1e6).
	MaxExplicitStates int
	// Context, when non-nil, cancels in-flight checks cooperatively:
	// its cancellation sets the same stop signal as the wall-clock
	// deadline (see armStop), and the engines return Unknown.
	// Portfolio derives a per-race child context from it to cancel
	// losing engines.
	Context context.Context
	// Budget caps SAT conflicts, BDD arena nodes, and wall-clock per
	// check; exhaustion degrades to Unknown instead of running
	// unbounded. See WithRetry for escalating re-runs.
	Budget Budget
	// Checkpoint, when non-empty, makes SynthesizeParams persist every
	// unsafe valuation it finds to this JSON file so an interrupted
	// synthesis can resume.
	Checkpoint string
	// Resume makes SynthesizeParams block the valuations recorded in
	// the Checkpoint file before its first check, reusing their stored
	// witness traces.
	Resume bool
	// ValidateWitness re-checks every conclusive verdict with the
	// independent witness validator (internal/witness): counterexample
	// traces are replayed against the system semantics and the
	// property, Holds certificates are checked by direct evaluation.
	// The portfolio rejects a winning engine whose evidence fails
	// validation and falls back to the survivors; single-engine checks
	// record the failure in Result.Witness and Stats.WitnessFailures.
	ValidateWitness bool

	// coop is the portfolio's shared cooperation bus, threaded to the
	// engines it races. Internal: single-engine checks run with a nil
	// bus and share nothing, and callers outside this package cannot
	// set it.
	coop *coopBus
	// vetted is set by the portfolio, which validates the system once
	// before the race: the engines it starts take the recorded
	// finiteness instead of validating and walking the system again.
	// Single-engine checks leave it unset and vet for themselves.
	vetted vetting
}

// vetting records what the portfolio learned about the system.
type vetting uint8

const (
	unvetted vetting = iota
	vettedFinite
	vettedReal // valid, with real-valued variables
)

// vet validates sys and reports whether it is finite, or returns what
// the portfolio recorded when it already did both.
func (o Options) vet(sys *ts.System) (finite bool, err error) {
	switch o.vetted {
	case vettedFinite:
		return true, nil
	case vettedReal:
		return false, nil
	}
	if err := sys.Validate(); err != nil {
		return false, err
	}
	return sys.Finite(), nil
}

func (o Options) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 25
	}
	return o.MaxDepth
}

func (o Options) maxExplicit() int {
	if o.MaxExplicitStates <= 0 {
		return 1_000_000
	}
	return o.MaxExplicitStates
}

// ctx returns the cancellation context (never nil).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// timeLimit resolves the effective wall-clock bound: the tighter of
// Timeout and Budget.Time (0 = none).
func (o Options) timeLimit() time.Duration {
	t := o.Timeout
	if o.Budget.Time > 0 && (t == 0 || o.Budget.Time < t) {
		t = o.Budget.Time
	}
	return t
}

// remaining returns o with its wall-clock limit cut to what is left of
// it since start, so an engine started late keeps the caller's
// deadline instead of getting a fresh one. ok is false once that
// deadline has passed.
func (o Options) remaining(start time.Time) (_ Options, ok bool) {
	t := o.timeLimit()
	if t <= 0 {
		return o, true
	}
	left := t - time.Since(start)
	if left <= 0 {
		return o, false
	}
	o.Timeout, o.Budget.Time = left, 0
	return o, true
}

// armStop makes stop the check's one stop signal: a hook sets it when
// the Context is cancelled or the wall-clock limit, counted from start,
// passes. The SAT solver, the CNF encoder and the BDD manager read it
// with one atomic load per conflict, decision, gate or node, so a
// cancelled engine stops within one step instead of finishing a
// restart or a frame. The returned func releases the hook; an engine
// defers it, so nothing outlives the check.
func (o Options) armStop(stop *atomic.Bool, start time.Time) (release func()) {
	ctx, cancel := o.ctx(), context.CancelFunc(func() {})
	if t := o.timeLimit(); t > 0 {
		ctx, cancel = context.WithDeadline(ctx, start.Add(t))
	}
	unhook := context.AfterFunc(ctx, func() { stop.Store(true) })
	if ctx.Err() != nil {
		// Already done: set the flag now, not on the hook's goroutine,
		// so the engine's first step sees it.
		stop.Store(true)
	}
	return func() { unhook(); cancel() }
}

// stopNote labels an Unknown result caused by the stop signal: "cancelled"
// when the context was cancelled, "timeout" otherwise.
func (o Options) stopNote() string {
	if o.Context != nil && o.Context.Err() != nil {
		return "cancelled"
	}
	return "timeout"
}

// solverNote labels an Unknown verdict from a SAT-backed engine,
// distinguishing conflict-budget exhaustion from deadline/cancellation
// so graceful degradation is visible in the result.
func (o Options) solverNote(s *sat.Solver, start time.Time) string {
	if s != nil && s.LastStop() == sat.StopBudget {
		return fmt.Sprintf("sat conflict budget exhausted (%d conflicts)", o.Budget.SATConflicts)
	}
	return o.stopNote()
}
