package mc

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"verdict/internal/ltl"
	"verdict/internal/resilience"
)

// synthResultsEqual asserts two synthesis results are byte-identical
// in everything a caller can observe: the safe/unsafe partitions and
// the full rendering of every witness trace.
func synthResultsEqual(t *testing.T, want, got *SynthResult) {
	t.Helper()
	if fmt.Sprint(want.Safe) != fmt.Sprint(got.Safe) {
		t.Errorf("safe sets differ:\nwant %v\ngot  %v", want.Safe, got.Safe)
	}
	if fmt.Sprint(want.Unsafe) != fmt.Sprint(got.Unsafe) {
		t.Errorf("unsafe sets differ:\nwant %v\ngot  %v", want.Unsafe, got.Unsafe)
	}
	if len(want.Witnesses) != len(got.Witnesses) {
		t.Fatalf("witness counts differ: want %d, got %d", len(want.Witnesses), len(got.Witnesses))
	}
	for k, wt := range want.Witnesses {
		gt, ok := got.Witnesses[k]
		if !ok {
			t.Errorf("missing witness for %s", k)
			continue
		}
		if wt.Full() != gt.Full() {
			t.Errorf("witness for %s differs:\nwant:\n%s\ngot:\n%s", k, wt.Full(), gt.Full())
		}
	}
}

// A resumed synthesis blocks the checkpointed unsafe valuations
// instead of rediscovering them: with every unsafe valuation recorded
// it makes exactly one check, the one that proves the rest safe, and
// every later synth site is rigged to panic.
func TestSynthResumeReplaysWithoutRecomputing(t *testing.T) {
	sys, prop := paramSystem()
	phi := ltl.G(ltl.Atom(prop))
	ckpt := filepath.Join(t.TempDir(), "synth.ckpt")

	clean, err := SynthesizeParams(sys, phi, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	faults := make(map[string]resilience.Fault)
	for i := 1; i < 4; i++ {
		faults[fmt.Sprintf("synth/%d", i)] = resilience.FaultPanic
	}
	restore := resilience.InjectFaults(faults)
	defer restore()

	resumed, err := SynthesizeParams(sys, phi, Options{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume should need only the final check: %v", err)
	}
	synthResultsEqual(t, clean, resumed)
	if resumed.Checks != 1 {
		t.Errorf("resumed synthesis made %d checks, want 1", resumed.Checks)
	}
}

// The acceptance scenario: a synthesis killed partway through resumes
// from its checkpoint and produces a result identical to an
// uninterrupted run.
func TestSynthCrashAndResumeIdentical(t *testing.T) {
	sys, prop := paramSystem()
	phi := ltl.G(ltl.Atom(prop))

	clean, err := SynthesizeParams(sys, phi, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "synth.ckpt")
	// The run dies in its second round: the first round's unsafe cube
	// (p=1) is already flushed when the crash hits.
	restore := resilience.InjectFaults(map[string]resilience.Fault{
		"synth/1": resilience.FaultPanic,
	})
	_, err = SynthesizeParams(sys, phi, Options{Checkpoint: ckpt})
	restore()
	var ee *resilience.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("rigged synthesis should die with an EngineError, got %v", err)
	}

	saved, oerr := resilience.OpenCheckpoint(ckpt, true)
	if oerr != nil {
		t.Fatal(oerr)
	}
	if saved.Len() != 1 {
		t.Fatalf("checkpoint after crash holds %d cells, want 1", saved.Len())
	}

	resumed, err := SynthesizeParams(sys, phi, Options{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	synthResultsEqual(t, clean, resumed)
	if resumed.Checks != 1 {
		t.Errorf("resumed synthesis made %d checks, want 1", resumed.Checks)
	}
}
