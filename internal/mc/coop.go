package mc

// The cooperation bus turns the portfolio's race into a relay. The
// engines remain independent goroutines with independent solvers, but
// they share one monotone fact through the bus, a theorem the
// publisher has already proved: a depth bound — "no counterexample to
// G(p) exists at any unroll depth below B". BMC publishes B after
// finishing depth B-1 with every query UNSAT, and k-induction publishes
// it after its base case at depth B-1 came back UNSAT (for a safety
// invariant the two query families cover exactly the same witnesses:
// an init path ending in a ¬p state). Each consumes the other's bound
// to skip depths already proven clean.
//
// Sharing a theorem never flips a verdict, so the portfolio returns
// what its engines return in isolation — the conformance sweep in
// internal/witness checks the portfolio against isolated BMC and BDD
// runs on every instance. All bus state is guarded for concurrent
// use: counters are atomics, and the bound sits behind a mutex.

import (
	"sync"
	"sync/atomic"
)

// coopBus is the shared state. The portfolio creates one per race and
// threads it to the engines via the unexported Options.coop field;
// engines treat a nil bus (single-engine checks) as sharing nothing.
type coopBus struct {
	// Counters mirrored into the winner's Stats when the race settles.
	boundsShared      atomic.Int64
	incrementalReuses atomic.Int64

	mu sync.Mutex
	// noCEBelow: no counterexample exists at any unroll depth < this.
	noCEBelow int
}

func newCoopBus() *coopBus { return &coopBus{} }

// publishBound records the theorem "no counterexample at depths < k".
// Bounds only ever grow; a publication that raises the bound counts as
// one shared fact.
func (b *coopBus) publishBound(k int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	raised := k > b.noCEBelow
	if raised {
		b.noCEBelow = k
	}
	b.mu.Unlock()
	if raised {
		b.boundsShared.Add(1)
	}
}

// bound returns the current depth bound: every depth below it has been
// proven free of counterexamples by some engine.
func (b *coopBus) bound() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.noCEBelow
}

// noteReuse counts one incremental solver reuse (an unroller extending
// in place instead of re-blasting).
func (b *coopBus) noteReuse() {
	if b != nil {
		b.incrementalReuses.Add(1)
	}
}

// fold copies the bus counters into a result's stats. Called once the
// race has settled (single-threaded again); the counters are
// portfolio-wide totals across all engines, so they overwrite whatever
// the winning engine recorded for itself.
func (b *coopBus) fold(st *Stats) {
	st.BoundsShared = b.boundsShared.Load()
	st.IncrementalReuses = b.incrementalReuses.Load()
}
