package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"verdict/internal/abstract"
	"verdict/internal/cache"
	"verdict/internal/journal"
	"verdict/internal/mc"
	"verdict/internal/models/rollout"
	"verdict/internal/server"
	"verdict/internal/smvlang"
	"verdict/internal/topo"
	"verdict/internal/witness"
)

// fig6-sweep calls the engine in-process, one cell at a time, with no
// daemon: the engine layers do nearly all the work.

// fig6Opts are the options verdictd runs every check with.
func fig6Opts() mc.Options {
	return mc.Options{MaxDepth: 25, Timeout: 2 * time.Minute, ValidateWitness: true}
}

// fig6Model is a cell's input, built during set-up.
type fig6Model struct {
	cfg   rollout.Config
	model *rollout.Model // nil for abstract cells
}

func buildFig6(cells []fig6Cell) (map[string]fig6Model, error) {
	out := map[string]fig6Model{}
	for _, c := range cells {
		g, err := topo.ByName(c.Topo)
		if err != nil {
			return nil, err
		}
		fm := fig6Model{cfg: rollout.Config{Topo: g, P: 1, K: c.K, M: 1}}
		if !c.Abstract {
			if fm.model, err = rollout.Build(fm.cfg); err != nil {
				return nil, fmt.Errorf("%s: %w", c.Name, err)
			}
		}
		out[c.Name] = fm
	}
	return out, nil
}

// fig6Result is one cell call's outcome.
type fig6Result struct {
	cell fig6Cell
	res  *mc.Result
	abs  *abstract.Result
	op   opRecord
}

func runCell(c fig6Cell, fm fig6Model, pass int, tr *tracer) (fig6Result, error) {
	opID := fmt.Sprintf("%s#%d", c.Name, pass)
	root := tr.begin(opID, "op.cell", 0)
	start := time.Now()
	out := fig6Result{cell: c}
	var err error
	if c.Abstract {
		tr.do(opID, "abstract.Check", root, func() {
			out.abs, err = abstract.Check(fm.cfg, abstract.Options{MC: fig6Opts()})
		})
		if err == nil {
			out.res = out.abs.Result
		}
	} else {
		tr.do(opID, "mc.Portfolio", root, func() {
			out.res, err = mc.Portfolio(fm.model.Sys, fm.model.Property, fig6Opts())
		})
	}
	lat := time.Since(start)
	tr.end(root)
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.Name, err)
	}
	wit := string(out.res.Witness)
	if out.abs != nil && out.abs.CertifiedReplay {
		wit = "validated"
	}
	if err := checkVerdict(c.Name, c.Want, out.res.Status.String(), wit); err != nil {
		return out, err
	}
	out.op = opRecord{index: pass, class: "cell", kind: c.Name, ok: out.res.Status != mc.Unknown,
		start: start, lat: lat, res: out.res, want: c.Want}
	return out, nil
}

// sweep runs whole passes over the cells until the budget is spent
// (at least one pass), returning every cell outcome and the time spent
// inside cell calls.
func sweep(cells []fig6Cell, models map[string]fig6Model, budget time.Duration, tr *tracer) ([]fig6Result, time.Duration, time.Duration, error) {
	var out []fig6Result
	var inCalls time.Duration
	cpu0, start := cpuTime(), time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		for _, c := range cells {
			// Start every cell from a collected heap, so the garbage of
			// the cell before does not decide when this one collects.
			runtime.GC()
			r, err := runCell(c, models[c.Name], pass, tr)
			if err != nil {
				return nil, 0, 0, err
			}
			inCalls += r.op.lat
			out = append(out, r)
		}
	}
	return out, inCalls, cpuTime() - cpu0, nil
}

func runFig6(e *env) (*report, error) {
	cells := fig6Cells()
	rep := &report{metrics: map[string]float64{}}
	// Set-up is building every cell's model; repeat it and keep the
	// median so one slow build does not decide the figure.
	var setups []float64
	var models map[string]fig6Model
	for r := 0; r < 25; r++ {
		start := time.Now()
		var err error
		if models, err = buildFig6(cells); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	results, inCalls, cpu, err := sweep(cells, models, e.seconds, nil)
	if err != nil {
		return nil, err
	}
	// Cells range from tens of milliseconds to seconds, so a per-cell
	// percentile would be decided by whichever cell sits in the middle.
	// The latency metrics time whole passes instead: op is the pass,
	// check its portfolio cells. Counts and throughput are per cell.
	passes := len(results) / len(cells)
	pass, concrete := make(latencies, passes), make(latencies, passes)
	for _, r := range results {
		ms := float64(r.op.lat) / float64(time.Millisecond)
		pass[r.op.index] += ms
		if !r.cell.Abstract {
			concrete[r.op.index] += ms
		}
		rep.attempted++
		if !r.op.ok {
			rep.failed++
		}
	}
	rep.metrics["ok_share"] = ratio(float64(rep.attempted-rep.failed), float64(rep.attempted))
	rep.metrics["throughput_ops"] = ratio(float64(rep.attempted-rep.failed), inCalls.Seconds())
	rep.metrics["op_p50_ms"], rep.metrics["op_tail_ms"] = pass.p50(), pass.tail()
	rep.metrics["check_p50_ms"], rep.metrics["check_tail_ms"] = concrete.p50(), concrete.tail()
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["peak_rss_mb"] = peakRSSMB(os.Getpid())

	byGroup := map[string]float64{}
	var viol, holds, abs latencies
	for _, r := range results {
		ms := float64(r.op.lat) / float64(time.Millisecond)
		switch {
		case r.cell.Abstract:
			abs = append(abs, ms)
			byGroup["abstract_s"] += ms / 1000
		case r.cell.Want == verdictViolated:
			viol = append(viol, ms)
			byGroup["viol_s"] += ms / 1000
		default:
			holds = append(holds, ms)
			byGroup["holds_s"] += ms / 1000
		}
	}
	rep.note("fig6 passes %d, cells per pass %d, pass ms %.0f, portfolio ms %.0f", passes, len(cells), pass, concrete)
	rep.note("%-28s %10.4f s per pass", "sweep_s", inCalls.Seconds()/float64(passes))
	for _, k := range []string{"viol_s", "holds_s", "abstract_s"} {
		rep.note("%-28s %10.4f s per pass", k, byGroup[k]/float64(passes))
	}
	rep.latencyNote("viol cells", viol)
	rep.latencyNote("holds cells", holds)
	rep.latencyNote("abstract cells", abs)
	if !e.trace {
		return rep, nil
	}

	zeroLayers(rep.metrics)
	var res []*mc.Result
	var refinements, spurious []float64
	for _, r := range results {
		if r.abs != nil {
			refinements = append(refinements, float64(r.abs.Refinements))
			spurious = append(spurious, float64(r.abs.Spurious))
		} else {
			res = append(res, r.res)
		}
	}
	engineLayers(rep.metrics, res)
	rep.metrics["mc.cpu_per_wall"] = ratio(cpu.Seconds(), inCalls.Seconds())
	rep.metrics["abstract.refinements"] = mean(refinements)
	rep.metrics["abstract.spurious"] = mean(spurious)

	// Traced pass over the same cells, then the replay.
	tr := newTracer()
	traced, tracedCalls, _, err := sweep(cells, models, e.seconds, tr)
	if err != nil {
		return nil, err
	}
	rep.metrics["trace.overhead_share"] = ratio(tracedCalls.Seconds()/float64(len(traced)), inCalls.Seconds()/float64(len(results))) - 1
	if err := replayFig6(e, tr, traced[:len(cells)], models); err != nil {
		return nil, err
	}
	traceLayers(rep, tr)
	return rep, tr.write(e.tracePath())
}

// replayFig6 feeds each cell's input through the compile, journal,
// witness and store layers the way verdictd handles a scenario
// submission, around the engine call the traced pass already timed.
func replayFig6(e *env, tr *tracer, results []fig6Result, models map[string]fig6Model) error {
	j, err := journal.Open(filepath.Join(e.work, "replay-journal"), journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	store, err := cache.NewDiskStore(filepath.Join(e.work, "replay-store"))
	if err != nil {
		return err
	}
	for _, r := range results {
		c, fm := r.cell, models[r.cell.Name]
		opID := c.Name + "#0"
		root := tr.begin(opID, "replay", 0)
		body, _ := json.Marshal(server.CheckRequest{Scenario: &server.ScenarioRequest{
			Name: "rollout", Topo: c.Topo, K: c.K, Abstract: c.Abstract}})
		var canonical, prop string
		if c.Abstract {
			var part *abstract.Partition
			var q *abstract.Quotient
			tr.do(opID, "abstract.NewPartition", root, func() { part = abstract.NewPartition(fm.cfg.Topo) })
			tr.do(opID, "abstract.BuildQuotient", root, func() { q, err = abstract.BuildQuotient(fm.cfg, part) })
			if err != nil {
				return fmt.Errorf("replay %s: %w", c.Name, err)
			}
			tr.do(opID, "smvlang.Render", root, func() { canonical = q.Canonical() })
			prop = q.Property.String()
		} else {
			var m *rollout.Model
			tr.do(opID, "rollout.Build", root, func() { m, err = rollout.Build(fm.cfg) })
			if err != nil {
				return fmt.Errorf("replay %s: %w", c.Name, err)
			}
			tr.do(opID, "smvlang.Render", root, func() { canonical = smvlang.Render(&smvlang.Program{Sys: m.Sys}) })
			tr.do(opID, "smvlang.Parse", root, func() { _, err = smvlang.Parse(canonical) })
			if err != nil {
				return fmt.Errorf("replay %s: rendered model does not parse: %w", c.Name, err)
			}
			prop = m.Property.String()
		}
		var key string
		tr.do(opID, "cache.Key", root, func() { key = cache.Key(canonical, prop, "depth=25") })
		tr.do(opID, "journal.Append", root, func() {
			err = j.Append(journal.Record{Type: journal.TypeAccepted, ID: key[:32], Request: body})
		})
		if err != nil {
			return err
		}
		if !c.Abstract && r.res.Status == mc.Violated {
			tr.do(opID, "witness.Validate", root, func() {
				err = witness.Validate(fm.model.Sys, fm.model.Property, r.res.Trace)
			})
			if err != nil {
				return &verdictError{fmt.Sprintf("%s: counterexample does not validate: %v", c.Name, err)}
			}
		}
		var snap []byte
		tr.do(opID, "json.Marshal", root, func() {
			snap, err = json.Marshal(server.CheckResponse{ID: key[:32], Status: server.StatusDone, Result: r.res})
		})
		if err != nil {
			return err
		}
		tr.do(opID, "cache.DiskStore.Put", root, func() { err = store.Put(key, snap) })
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}
