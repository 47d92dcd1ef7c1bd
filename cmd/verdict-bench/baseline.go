package main

// Committed benchmark trajectory for the fig6 sweep.
//
// `verdict-bench -baseline write` runs a reduced, CI-sized subset of
// the Figure 6 sweep through the portfolio and through the
// symmetry-quotient abstraction (-abstract — which also covers
// fattree12 scale cells the concrete portfolio cannot afford in CI),
// recording the verdicts and timings in BENCH_fig6.json, which is
// committed to the repository. `verdict-bench -baseline compare`
// re-runs the same subset and fails (exit 1) when the trajectory
// regresses:
//
//   - any verdict differs from the committed one (correctness — no
//     tolerance at all), or
//   - a mode's total wall time exceeds the committed total by more
//     than the tolerance factor (default 4x, -baseline-tolerance; CI
//     machines are slower and noisier than the recording machine, so
//     the gate is deliberately loose — it catches order-of-magnitude
//     regressions, not percent-level drift).
//
// Incremental solver reuse is pinned by a counter test
// (internal/models/rollout), not by timing.
//
// On failure the fresh measurements are written next to the baseline
// as <file>.candidate.json so the regression can be inspected — or,
// when intentional, promoted to the new baseline.
//
// Every cell is timed as the best of three runs to damp scheduler
// noise; totals are sums of those minima.

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime/pprof"
	"time"

	"verdict"
)

const (
	baselineVersion = 3
	// baselineSlack is an absolute floor added to every timing gate so
	// millisecond-scale totals never flake on a single descheduling.
	baselineSlack = 250 * time.Millisecond
	baselineRuns  = 3 // best-of-N per cell
)

// baselineModes are the two configurations the trajectory tracks: the
// concrete portfolio, and the symmetry-quotient abstraction
// (-abstract), whose verdicts must match the portfolio's cell for cell
// and which alone affords the fattree12 scale cells.
var baselineModes = []string{"portfolio", "abstract"}

type baselineEntry struct {
	Case      string `json:"case"`
	Mode      string `json:"mode"` // "portfolio" or "abstract"
	Status    string `json:"status"`
	Engine    string `json:"engine"`
	ElapsedNS int64  `json:"elapsed_ns"`
	// Cooperation traffic for portfolio entries: evidence in the
	// committed file that the bus actually carried bounds and the
	// unrollers reused their solvers.
	BoundsShared      int64 `json:"bounds_shared,omitempty"`
	IncrementalReuses int64 `json:"incremental_reuses,omitempty"`
	// CEGAR trajectory for abstract-mode entries.
	Refinements int `json:"refinements,omitempty"`
	Spurious    int `json:"spurious,omitempty"`
}

type baselineFile struct {
	Version   int              `json:"version"`
	Note      string           `json:"note"`
	Tolerance float64          `json:"tolerance"`
	Totals    map[string]int64 `json:"totals_ns"` // per mode
	Entries   []baselineEntry  `json:"entries"`
}

// baselineCells enumerates the reduced sweep: per topology, the
// critical-k violation instance plus the k=0 and k=1 verification
// instances — both verdict polarities, small enough for CI, large
// enough that incremental reuse and bound sharing have work to do.
type baselineCell struct {
	name string
	topo *verdict.Topology
	k    int
	viol bool
	// abstractOnly marks scale cells the concrete portfolio cannot
	// afford in a CI budget; only the abstract mode measures them.
	abstractOnly bool
}

func baselineCells() []baselineCell {
	type tc struct {
		name  string
		topo  *verdict.Topology
		kViol int
	}
	var cells []baselineCell
	for _, c := range []tc{
		{"test", verdict.TestTopology(), 2},
		{"fattree4", verdict.FatTree(4), 2},
		// fattree6 stretches the sweep past the toy sizes: 45 switches
		// and 108 links, the largest instance that still fits a CI
		// budget (its violation cell decides in seconds, not minutes).
		{"fattree6", verdict.FatTree(6), 3},
	} {
		cells = append(cells, baselineCell{name: c.name + "/viol", topo: c.topo, k: c.kViol, viol: true})
		for k := 0; k <= 1; k++ {
			cells = append(cells, baselineCell{name: fmt.Sprintf("%s/k=%d", c.name, k), topo: c.topo, k: k})
		}
	}
	// The abstraction's reason to exist: fattree12 (180 switches, 864
	// links — the paper's largest instance) decides in seconds over the
	// quotient, where the concrete portfolio would blow the CI budget.
	// The violation cell's trace is concretized and replay-certified, so
	// these points carry the same evidential weight as the small cells.
	ft12 := verdict.FatTree(12)
	cells = append(cells,
		baselineCell{name: "fattree12/viol", topo: ft12, k: 6, viol: true, abstractOnly: true},
		baselineCell{name: "fattree12/k=1", topo: ft12, k: 1, abstractOnly: true},
	)
	return cells
}

// runBaselineCell checks one cell in the given mode — through the
// portfolio, or through the symmetry quotient for the abstract mode —
// and returns its entry, timed best-of-baselineRuns.
func runBaselineCell(cell baselineCell, mode string) (baselineEntry, error) {
	cfg := verdict.RolloutConfig{Topo: cell.topo, P: 1, K: cell.k, M: 1}
	abstract := mode == "abstract"
	var m *verdict.RolloutModel
	if !abstract {
		var err error
		m, err = verdict.BuildRollout(cfg)
		if err != nil {
			return baselineEntry{}, err
		}
	}
	e := baselineEntry{Case: cell.name, Mode: mode}
	// One untimed warmup so no mode pays first-run costs (heap growth,
	// page faults) inside its measurement.
	for run := -1; run < baselineRuns; run++ {
		opts := verdict.Options{MaxDepth: 25, Timeout: 2 * time.Minute}
		start := time.Now()
		var res *verdict.Result
		var refinements, spurious int
		if abstract {
			ares, err := verdict.CheckAbstract(cfg, verdict.AbstractOptions{MC: opts})
			if err != nil {
				return baselineEntry{}, fmt.Errorf("%s (%s): %w", cell.name, mode, err)
			}
			res, refinements, spurious = ares.Result, ares.Refinements, ares.Spurious
		} else {
			var err error
			res, err = verdict.Check(m.Sys, m.Property, opts)
			if err != nil {
				return baselineEntry{}, fmt.Errorf("%s (%s): %w", cell.name, mode, err)
			}
		}
		el := time.Since(start)
		want := verdict.Holds
		if cell.viol {
			want = verdict.Violated
		}
		if res.Status != want {
			return baselineEntry{}, fmt.Errorf("%s (%s): got %s, the sweep expects %s", cell.name, mode, res.Status, want)
		}
		if run < 0 {
			continue
		}
		if run == 0 || el.Nanoseconds() < e.ElapsedNS {
			e.ElapsedNS = el.Nanoseconds()
			e.Engine = res.Engine
			e.Refinements = refinements
			e.Spurious = spurious
		}
		e.Status = res.Status.String()
		if !abstract && res.Stats != nil {
			e.BoundsShared = res.Stats.BoundsShared
			e.IncrementalReuses = res.Stats.IncrementalReuses
		}
	}
	return e, nil
}

// runBaselineSweep measures every cell in every mode.
func runBaselineSweep(tolerance float64) (*baselineFile, error) {
	bf := &baselineFile{
		Version: baselineVersion,
		Note: fmt.Sprintf("fig6 reduced sweep via the portfolio and abstract (symmetry quotient + CEGAR, "+
			"including the fattree12 scale cells only it can afford) modes; regenerate with "+
			"`make bench-baseline`; compare tolerates %gx total-time drift (CI hardware varies) "+
			"but zero verdict drift", tolerance),
		Tolerance: tolerance,
		Totals:    map[string]int64{},
	}
	for _, cell := range baselineCells() {
		for _, mode := range baselineModes {
			if cell.abstractOnly && mode != "abstract" {
				continue
			}
			var e baselineEntry
			var err error
			pprof.Do(context.Background(), pprof.Labels("cell", cell.name, "mode", mode), func(context.Context) {
				e, err = runBaselineCell(cell, mode)
			})
			if err != nil {
				return nil, err
			}
			bf.Entries = append(bf.Entries, e)
			bf.Totals[mode] += e.ElapsedNS
			fmt.Printf("  %-16s %-9s %-9s %-22s %v\n", e.Case, e.Mode, e.Status, e.Engine,
				time.Duration(e.ElapsedNS).Round(time.Millisecond))
		}
	}
	return bf, nil
}

func writeBaselineFile(path string, bf *baselineFile) error {
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runBaseline is the -baseline entry point; mode is "write" or
// "compare". It reports false when a compare gate fails.
func runBaseline(mode, path string, tolerance float64) bool {
	switch mode {
	case "write":
		fmt.Printf("recording fig6 baseline (%d cells x %d modes, best of %d):\n",
			len(baselineCells()), len(baselineModes), baselineRuns)
		bf, err := runBaselineSweep(tolerance)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeBaselineFile(path, bf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline written to %s: portfolio %v, abstract %v\n", path,
			time.Duration(bf.Totals["portfolio"]).Round(time.Millisecond),
			time.Duration(bf.Totals["abstract"]).Round(time.Millisecond))
	case "compare":
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("no committed baseline: %v (record one with `verdict-bench -baseline write`)", err)
		}
		var committed baselineFile
		if err := json.Unmarshal(data, &committed); err != nil {
			log.Fatalf("corrupt baseline %s: %v", path, err)
		}
		if committed.Version != baselineVersion {
			log.Fatalf("baseline %s is version %d, this binary speaks %d — regenerate it",
				path, committed.Version, baselineVersion)
		}
		if tolerance <= 0 {
			tolerance = committed.Tolerance
		}
		fmt.Printf("comparing against %s (tolerance %gx):\n", path, tolerance)
		fresh, err := runBaselineSweep(tolerance)
		if err != nil {
			log.Fatal(err)
		}
		var failures []string
		// Verdicts: exact, per cell+mode. A baseline recorded on any
		// machine pins these forever.
		want := map[string]string{}
		for _, e := range committed.Entries {
			want[e.Case+"/"+e.Mode] = e.Status
		}
		for _, e := range fresh.Entries {
			if w, ok := want[e.Case+"/"+e.Mode]; ok && w != e.Status {
				failures = append(failures, fmt.Sprintf("verdict drift: %s (%s) = %s, baseline says %s",
					e.Case, e.Mode, e.Status, w))
			}
		}
		// Totals: loose cross-machine gate per mode.
		slack := baselineSlack.Nanoseconds()
		for _, m := range baselineModes {
			was, now := committed.Totals[m], fresh.Totals[m]
			if limit := int64(float64(was)*tolerance) + slack; was > 0 && now > limit {
				failures = append(failures, fmt.Sprintf("%s total %v exceeds %gx committed %v",
					m, time.Duration(now), tolerance, time.Duration(was)))
			}
		}
		if len(failures) > 0 {
			candidate := path + ".candidate.json"
			if err := writeBaselineFile(candidate, fresh); err != nil {
				log.Printf("could not write %s: %v", candidate, err)
			} else {
				log.Printf("fresh measurements written to %s", candidate)
			}
			for _, f := range failures {
				log.Printf("FAIL: %s", f)
			}
			return false
		}
		for _, m := range baselineModes {
			fmt.Printf("baseline holds: %-9s %v (committed %v)\n", m,
				time.Duration(fresh.Totals[m]).Round(time.Millisecond),
				time.Duration(committed.Totals[m]).Round(time.Millisecond))
		}
	default:
		log.Fatalf("unknown -baseline mode %q (want write or compare)", mode)
	}
	return true
}
