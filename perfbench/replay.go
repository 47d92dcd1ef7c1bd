package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"verdict/internal/abstract"
	"verdict/internal/cache"
	"verdict/internal/journal"
	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/models/rollout"
	"verdict/internal/server"
	"verdict/internal/smvlang"
	"verdict/internal/topo"
	"verdict/internal/ts"
	"verdict/internal/watch/extract"
	"verdict/internal/witness"
)

// The replay pass feeds a traced run's recorded inputs through each
// layer's public functions in verdictd's pipeline order, each call a
// child span of its operation: compile (parse, canonical render,
// content address), then for a miss the journal append, the engine,
// witness validation, the wire encoding and the result store. Watch
// batches go through the extractor.

// replayPerClass bounds how many ops of each class are replayed.
const replayPerClass = 200

type replayStats struct {
	// layerTime is each replayed op's time inside layer calls.
	layerTime map[[2]int]time.Duration
	cpu, wall time.Duration // across the engine calls
}

func replay(e *env, tr *tracer, ops []opRecord) (*replayStats, error) {
	j, err := journal.Open(filepath.Join(e.work, "replay-journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	store, err := cache.NewDiskStore(filepath.Join(e.work, "replay-store"))
	if err != nil {
		return nil, err
	}
	rs := &replayStats{layerTime: map[[2]int]time.Duration{}}
	counts := map[string]int{}
	cfg := extract.NewConfig()
	for _, o := range ops {
		if o.class == "watch" {
			// Fold every batch so later extractions see the session's
			// state, but replay only the first few.
			for _, ev := range o.events {
				if err := cfg.Apply(ev); err != nil {
					return nil, fmt.Errorf("replaying watch batch %d: %w", o.index, err)
				}
			}
		}
		if !o.ok || counts[o.class] >= replayPerClass {
			continue
		}
		counts[o.class]++
		opID := fmt.Sprintf("replay%d/%d", o.client, o.index)
		root := tr.begin(opID, "replay", 0)
		start := time.Now()
		switch o.class {
		case "watch":
			tr.do(opID, "extract.Extract", root, func() { _, err = extract.Extract(cfg) })
		case "hit", "miss":
			err = replayCheck(tr, opID, root, o, j, store, rs)
		}
		rs.layerTime[[2]int{o.client, o.index}] = time.Since(start)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// replayCheck compiles one submission like verdictd does and, for a
// miss, runs the rest of the settle pipeline.
func replayCheck(tr *tracer, opID string, root int, o opRecord, j *journal.Journal, store *cache.DiskStore, rs *replayStats) error {
	var req server.CheckRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return err
	}
	var sys *ts.System
	var phi *ltl.Formula
	var canonical string
	var err error
	if sc := req.Scenario; sc != nil {
		g, gerr := topo.ByName(sc.Topo)
		if gerr != nil {
			return gerr
		}
		cfg := rollout.Config{Topo: g, P: 1, K: sc.K, M: 1}
		var m *rollout.Model
		tr.do(opID, "rollout.Build", root, func() { m, err = rollout.Build(cfg) })
		if err != nil {
			return err
		}
		sys, phi = m.Sys, m.Property
		// The abstract path of the same scenario: partition and
		// quotient, as an abstracted submission would compile.
		var part *abstract.Partition
		tr.do(opID, "abstract.NewPartition", root, func() { part = abstract.NewPartition(g) })
		tr.do(opID, "abstract.BuildQuotient", root, func() { _, err = abstract.BuildQuotient(cfg, part) })
		if err != nil {
			return err
		}
	} else {
		var prog *smvlang.Program
		tr.do(opID, "smvlang.Parse", root, func() { prog, err = smvlang.Parse(req.Model) })
		if err != nil {
			return err
		}
		sys, phi = prog.Sys, prog.LTLSpecs[0]
	}
	tr.do(opID, "smvlang.Render", root, func() { canonical = smvlang.Render(&smvlang.Program{Sys: sys}) })
	depth := req.Options.MaxDepth
	var key string
	tr.do(opID, "cache.Key", root, func() {
		key = cache.Key(canonical, phi.String(), fmt.Sprintf("depth=%d timeout=30s sat=0 bdd=0 retries=0", depth))
	})
	if o.class == "hit" {
		return nil
	}
	tr.do(opID, "journal.Append", root, func() {
		err = j.Append(journal.Record{Type: journal.TypeAccepted, ID: key[:32], Request: o.body})
	})
	if err != nil {
		return err
	}
	var res *mc.Result
	cpu0, start := cpuTime(), time.Now()
	tr.do(opID, "mc.Portfolio", root, func() {
		res, err = mc.Portfolio(sys, phi, mc.Options{MaxDepth: depth, Timeout: 30 * time.Second, ValidateWitness: true})
	})
	rs.wall += time.Since(start)
	rs.cpu += cpuTime() - cpu0
	if err != nil {
		return err
	}
	if err := checkVerdict("replay "+opID, o.want, res.Status.String(), string(res.Witness)); err != nil {
		return err
	}
	if res.Status == mc.Violated && res.Trace != nil {
		tr.do(opID, "witness.Validate", root, func() { err = witness.Validate(sys, phi, res.Trace) })
		if err != nil {
			return &verdictError{fmt.Sprintf("replay %s: counterexample does not validate: %v", opID, err)}
		}
	}
	var snap []byte
	tr.do(opID, "json.Marshal", root, func() {
		snap, err = json.Marshal(server.CheckResponse{ID: key[:32], Status: server.StatusDone, Result: res, Witness: string(res.Witness)})
	})
	if err != nil {
		return err
	}
	tr.do(opID, "cache.DiskStore.Put", root, func() { err = store.Put(key, snap) })
	return err
}
