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

// A resumed sweep must replay checkpointed cells rather than recompute
// them: with every synth site rigged to panic, only the checkpoint can
// supply the verdicts.
func TestSynthResumeReplaysWithoutRecomputing(t *testing.T) {
	sys, prop := paramSystem()
	phi := ltl.G(ltl.Atom(prop))
	ckpt := filepath.Join(t.TempDir(), "synth.ckpt")

	clean, err := SynthesizeParamsEnum(sys, phi, Options{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	faults := make(map[string]resilience.Fault)
	for i := 0; i < 4; i++ {
		faults[fmt.Sprintf("synth/%d", i)] = resilience.FaultPanic
	}
	restore := resilience.InjectFaults(faults)
	defer restore()

	resumed, err := SynthesizeParamsEnum(sys, phi, Options{Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatalf("resume should not touch the rigged checker: %v", err)
	}
	synthResultsEqual(t, clean, resumed)
}

// The acceptance scenario: a sweep killed partway through resumes from
// its checkpoint and produces a result identical to an uninterrupted
// run.
func TestSynthCrashAndResumeIdentical(t *testing.T) {
	sys, prop := paramSystem()
	phi := ltl.G(ltl.Atom(prop))

	clean, err := SynthesizeParamsEnum(sys, phi, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "synth.ckpt")
	// Serial sweep dying at the third valuation: the first two cells
	// are already flushed when the crash hits.
	restore := resilience.InjectFaults(map[string]resilience.Fault{
		"synth/2": resilience.FaultPanic,
	})
	_, err = SynthesizeParamsEnum(sys, phi, Options{Workers: 1, Checkpoint: ckpt})
	restore()
	var ee *resilience.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("rigged sweep should die with an EngineError, got %v", err)
	}

	saved, oerr := resilience.OpenCheckpoint(ckpt, true)
	if oerr != nil {
		t.Fatal(oerr)
	}
	if saved.Len() != 2 {
		t.Fatalf("checkpoint after crash holds %d cells, want 2", saved.Len())
	}

	resumed, err := SynthesizeParamsEnum(sys, phi, Options{Workers: 1, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	synthResultsEqual(t, clean, resumed)
}
