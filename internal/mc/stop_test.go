package mc

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verdict/internal/ctl"
	"verdict/internal/ltl"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
)

// waitSet waits for stop to be set, failing the test after a generous
// bound: the hooks run on their own goroutines.
func waitSet(t *testing.T, stop *atomic.Bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !stop.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s did not set the stop signal", what)
		}
	}
}

// TestArmStop: the stop signal is set by cancellation and by the
// deadline, and a released signal stays clear.
func TestArmStop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var byCancel atomic.Bool
	defer Options{Context: ctx}.armStop(&byCancel, time.Now())()
	cancel()
	waitSet(t, &byCancel, "cancellation")

	var byDeadline atomic.Bool
	defer Options{Timeout: time.Millisecond}.armStop(&byDeadline, time.Now())()
	waitSet(t, &byDeadline, "the deadline")

	// A context already done sets the signal before armStop returns.
	var already atomic.Bool
	defer Options{Context: ctx}.armStop(&already, time.Now())()
	if !already.Load() {
		t.Error("an already-cancelled context left the stop signal clear")
	}

	ctx, cancel = context.WithCancel(context.Background())
	var released atomic.Bool
	Options{Context: ctx, Timeout: time.Millisecond}.armStop(&released, time.Now())()
	cancel()
	time.Sleep(10 * time.Millisecond)
	if released.Load() {
		t.Error("a released stop signal was set")
	}
}

// TestStoppedUnrollerStopsWithinAFrame: blasting a fattree6 unrolling
// with the stop signal already set stops at the encoder's first
// variable allocation, short of one frame's variables, and the engine
// boundary reports it as a cancelled Unknown, not an error.
func TestStoppedUnrollerStopsWithinAFrame(t *testing.T) {
	m, err := rollout.Build(rollout.Config{Topo: topo.FatTree(6), P: 1, K: 3, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := newUnroller(m.Sys, true, Options{}, nil)
	ref.blast(0, true)
	before := ref.sats.NumVars()
	ref.extend()
	frame := ref.sats.NumVars() - before

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := Options{Context: ctx}
	var stop atomic.Bool
	stop.Store(true)
	u := newUnroller(m.Sys, true, opts, &stop)
	res, err := func() (res *Result, err error) {
		defer recoverCompile(&res, &err, func() *Result {
			return &Result{Status: Unknown, Engine: "bmc", Note: opts.stopNote()}
		})
		u.blast(3, true)
		return nil, errors.New("blast ran to the end under a set stop signal")
	}()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Unknown || res.Note != "cancelled" {
		t.Errorf("stopped blast = %s, want a cancelled Unknown", res)
	}
	if n := u.sats.NumVars(); n >= frame {
		t.Errorf("stopped blast allocated %d variables, one frame takes %d", n, frame)
	}
}

// TestStoppedSymChecksReturnUnknown: once the Context of a built Sym
// is cancelled, each check method stops inside its first fixpoint (the
// BDD manager reads the stop signal; the fixpoints poll nothing) and
// reports a cancelled Unknown, not an error.
func TestStoppedSymChecksReturnUnknown(t *testing.T) {
	sys, stable := stabilizer(true)
	ctx, cancel := context.WithCancel(context.Background())
	sym, err := NewSym(sys, Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	checks := map[string]func() (*Result, error){
		"CheckInvariant": func() (*Result, error) { return sym.CheckInvariant(stable) },
		"CheckLTL":       func() (*Result, error) { return sym.CheckLTL(ltl.F(ltl.G(ltl.Atom(stable)))) },
		"CheckCTL": func() (*Result, error) {
			return sym.CheckCTL(ctl.AG(ctl.EF(ctl.Atom(stable))))
		},
	}
	for name, check := range checks {
		r, err := check()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Status != Unknown || r.Note != "cancelled" {
			t.Errorf("%s after cancel = %s, want a cancelled Unknown", name, r)
		}
	}
}

// TestPortfolioRecordsDrain: a won race records how long its beaten
// engines took to stop, well inside the stall grace, and -stats prints
// it.
func TestPortfolioRecordsDrain(t *testing.T) {
	m, err := rollout.Build(rollout.Config{Topo: topo.FatTree(4), P: 1, K: 1, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Portfolio(m.Sys, m.Property, Options{MaxDepth: 25})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Holds {
		t.Fatalf("fattree4/k=1 = %s, want holds", r)
	}
	if d := r.Stats.DrainTime; d <= 0 || d >= stallGrace {
		t.Errorf("drain time %v, want in (0, %v)", d, stallGrace)
	}
	if !strings.Contains(r.Stats.String(), "drain: ") {
		t.Errorf("stats %q do not print the drain time", r.Stats)
	}
}
