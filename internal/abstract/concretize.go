package abstract

import (
	"fmt"
	"sort"

	"verdict/internal/expr"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
	"verdict/internal/trace"
)

// refineHint names the node CEGAR should split into its own class
// after a spurious counterexample, plus a human-readable reason kept
// in the result notes.
type refineHint struct {
	victim int
	reason string
}

// concretize maps an abstract counterexample (a trace over the
// quotient's counters) onto the concrete topology. Counts are realized
// by a deterministic adversarial placement — failures concentrate on
// the cheapest-to-cut member of a bundle, phase advances pick the
// lexicographically first eligible node — and the concrete
// distance-vector state is simulated forward exactly as the rollout
// model computes it, with stutter steps appended until the
// reachability loop converges.
//
// It returns a concrete trace when the placement reproduces the
// availability violation, or a refinement hint when it does not (the
// counterexample was an artifact of class lumping). The returned trace
// is a candidate: the caller must still replay it through the witness
// validator, which is the actual soundness gate.
func concretize(cfg rollout.Config, q *Quotient, at *trace.Trace) (*trace.Trace, *refineHint, error) {
	part := q.Part
	g := cfg.Topo
	if at == nil || len(at.States) == 0 {
		return nil, nil, fmt.Errorf("abstract: empty abstract counterexample")
	}
	maxDist := cfg.MaxDist
	if maxDist == 0 {
		maxDist = 6
	}
	inf := int64(maxDist)
	fe := g.NodesByRole("frontend")[0]
	isService := make([]bool, len(g.Nodes))
	for _, s := range g.NodesByRole("service") {
		isService[s] = true
	}

	// Read the counter schedule out of the abstract trace.
	T := len(at.States)
	readInt := func(t int, name string) (int64, error) {
		v, ok := at.States[t].Get(name)
		if !ok || v.Kind != expr.KindInt {
			return 0, fmt.Errorf("abstract: counterexample state %d lacks counter %s", t, name)
		}
		return v.I, nil
	}
	nUpd := make([][]int64, T)
	nDone := make([][]int64, T)
	nFail := make([][]int64, T)
	for t := 0; t < T; t++ {
		nUpd[t] = make([]int64, len(part.Classes))
		nDone[t] = make([]int64, len(part.Classes))
		nFail[t] = make([]int64, len(part.LinkClasses))
		for _, c := range part.Classes {
			if c.Role != "service" {
				continue
			}
			var err error
			if nUpd[t][c.Index], err = readInt(t, "nUpd_"+c.Name); err != nil {
				return nil, nil, err
			}
			if nDone[t][c.Index], err = readInt(t, "nDone_"+c.Name); err != nil {
				return nil, nil, err
			}
		}
		for _, lc := range part.LinkClasses {
			var err error
			if nFail[t][lc.Index], err = readInt(t, "nFail_"+lc.Name); err != nil {
				return nil, nil, err
			}
		}
	}

	// Adversarial failure order per bundle: victims live on the side
	// whose members are cheaper to cut off (smaller per-member
	// degree), lowest name first; each victim's bundle links drain in
	// link-ID order before the next victim is touched.
	order := make([][]int, len(part.LinkClasses))
	victimOf := make([]int, len(part.LinkClasses))
	for _, lc := range part.LinkClasses {
		side := lc.A
		if !lc.Intra() && lc.DegBA < lc.DegAB {
			side = lc.B
		}
		seen := make(map[int]bool, len(lc.Links))
		inBundle := make(map[int]bool, len(lc.Links))
		for _, l := range lc.Links {
			inBundle[l] = true
		}
		victimOf[lc.Index] = part.Classes[side].Members[0]
		for _, v := range part.Classes[side].Members {
			ls := append([]int(nil), g.LinksOf(v)...)
			sort.Ints(ls)
			for _, l := range ls {
				if inBundle[l] && !seen[l] {
					seen[l] = true
					order[lc.Index] = append(order[lc.Index], l)
				}
			}
		}
	}

	// Concrete state under simulation.
	phase := make([]string, len(g.Nodes)) // service nodes only
	for i := range phase {
		if isService[i] {
			phase[i] = rollout.PhasePending
		}
	}
	failed := make([]bool, len(g.Links))
	dist := bfsHops(g, fe, inf)

	alive := func(n int) bool { return !isService[n] || phase[n] != rollout.PhaseUpdating }
	round := func(cur []int64) []int64 {
		next := make([]int64, len(cur))
		for _, nd := range g.Nodes {
			n := nd.ID
			if n == fe {
				continue // next[fe] stays 0
			}
			acc := inf
			for _, l := range g.LinksOf(n) {
				nb := g.Other(l, n)
				if !failed[l] && alive(nb) && cur[nb] < inf {
					if c := cur[nb] + 1; c < acc {
						acc = c
					}
				}
			}
			if !alive(n) {
				acc = inf
			}
			next[n] = acc
		}
		return next
	}
	converged := func() bool {
		next := round(dist)
		for i := range next {
			if next[i] != dist[i] {
				return false
			}
		}
		return true
	}

	ct := trace.New()
	keys := newStateKeys(g)
	snapshot := func() {
		st := trace.State{Values: make(map[string]expr.Value, 2*len(g.Nodes)+len(g.Links))}
		for _, nd := range g.Nodes {
			if isService[nd.ID] {
				st.Values[keys.phase[nd.ID]] = expr.EnumValue(phase[nd.ID])
			}
			st.Values[keys.dist[nd.ID]] = expr.IntValue(dist[nd.ID])
		}
		for _, l := range g.Links {
			st.Values[keys.failed[l.ID]] = expr.BoolValue(failed[l.ID])
		}
		ct.States = append(ct.States, st)
	}
	snapshot()

	step := func(t int) error { // realize abstract step t-1 -> t
		for _, lc := range part.LinkClasses {
			delta := nFail[t][lc.Index] - nFail[t-1][lc.Index]
			if delta < 0 {
				return fmt.Errorf("abstract: failure counter %s decreases", lc.Name)
			}
			for _, l := range order[lc.Index] {
				if delta == 0 {
					break
				}
				if !failed[l] {
					failed[l] = true
					delta--
				}
			}
			if delta != 0 {
				return fmt.Errorf("abstract: failure counter %s exceeds bundle size", lc.Name)
			}
		}
		for _, c := range part.Classes {
			if c.Role != "service" {
				continue
			}
			finish := nDone[t][c.Index] - nDone[t-1][c.Index]
			start := nUpd[t][c.Index] - (nUpd[t-1][c.Index] - finish)
			if finish < 0 || start < 0 {
				return fmt.Errorf("abstract: inconsistent phase counters for class %s", c.Name)
			}
			for _, m := range c.Members { // members are name-sorted
				if finish > 0 && phase[m] == rollout.PhaseUpdating {
					phase[m] = rollout.PhaseDone
					finish--
				}
			}
			for _, m := range c.Members {
				if start > 0 && phase[m] == rollout.PhasePending {
					phase[m] = rollout.PhaseUpdating
					start--
				}
			}
			if finish != 0 || start != 0 {
				return fmt.Errorf("abstract: unrealizable phase counters for class %s", c.Name)
			}
		}
		dist = round(dist)
		snapshot()
		return nil
	}
	for t := 1; t < T; t++ {
		if err := step(t); err != nil {
			return nil, nil, err
		}
	}
	// Stutter (phases and failures frozen, reachability loop running)
	// until the distance vector is a fixpoint. Saturation at the
	// sentinel bounds the climb, so (inf+1)·|nodes| rounds always
	// suffice; exceeding the cap means the simulation diverged from
	// the model, which the witness replay would reject anyway.
	for guard := (inf + 1) * int64(len(g.Nodes)+1); !converged(); guard-- {
		if guard <= 0 {
			return nil, nil, fmt.Errorf("abstract: reachability loop failed to converge during concretization")
		}
		dist = round(dist)
		snapshot()
	}

	// Did the placement reproduce the violation? Scan for a converged
	// state with available < m; the first hit truncates the trace.
	avail := func(st trace.State) int {
		n := 0
		for _, nd := range g.Nodes {
			if !isService[nd.ID] {
				continue
			}
			ph, _ := st.Get(keys.phase[nd.ID])
			d, _ := st.Get(keys.dist[nd.ID])
			if ph.Sym != rollout.PhaseUpdating && d.I < inf {
				n++
			}
		}
		return n
	}
	// Only the final state is known converged; intermediate states
	// may be too (cheap to check by replaying their distance rows).
	for i, st := range ct.States {
		if convergedState(g, fe, inf, isService, keys, st) && avail(st) < cfg.M {
			ct.States = ct.States[:i+1]
			return ct, nil, nil
		}
	}

	// Spurious: the lumped counters promised damage the concrete
	// topology does not suffer. Blame the abstraction frontier.
	hint := blame(cfg, q, nUpd[T-1], nFail[T-1], victimOf, phase, failed)
	if hint == nil {
		return nil, nil, fmt.Errorf("abstract: spurious counterexample with no splittable class (partition %s)", part)
	}
	return nil, hint, nil
}

// stateKeys holds a concretized state's variable names, built once
// per concretization instead of once per state: phase and dist per
// node ID, failed per link ID.
type stateKeys struct{ phase, dist, failed []string }

func newStateKeys(g *topo.Graph) stateKeys {
	k := stateKeys{make([]string, len(g.Nodes)), make([]string, len(g.Nodes)), make([]string, len(g.Links))}
	for _, nd := range g.Nodes {
		k.phase[nd.ID], k.dist[nd.ID] = "phase_"+nd.Name, "dist_"+nd.Name
	}
	for _, l := range g.Links {
		k.failed[l.ID] = "failed_" + l.Name
	}
	return k
}

// convergedState checks whether a snapshot's distance vector is a
// fixpoint of the snapshot's own topology — the concrete model's
// `converged` DEFINE, evaluated on plain Go state.
func convergedState(g *topo.Graph, fe int, inf int64, isService []bool, keys stateKeys, st trace.State) bool {
	aliveAt := func(n int) bool {
		if !isService[n] {
			return true
		}
		ph, _ := st.Get(keys.phase[n])
		return ph.Sym != rollout.PhaseUpdating
	}
	distAt := func(n int) int64 {
		d, _ := st.Get(keys.dist[n])
		return d.I
	}
	for _, nd := range g.Nodes {
		n := nd.ID
		want := int64(0)
		if n != fe {
			acc := inf
			for _, lid := range g.LinksOf(n) {
				f, _ := st.Get(keys.failed[lid])
				nb := g.Other(lid, n)
				if !f.B && aliveAt(nb) && distAt(nb) < inf {
					if c := distAt(nb) + 1; c < acc {
						acc = c
					}
				}
			}
			if !aliveAt(n) {
				acc = inf
			}
			want = acc
		}
		if distAt(n) != want {
			return false
		}
	}
	return true
}

// blame picks the class to split after a spurious counterexample: walk
// the abstract connectivity fixpoint for the final counters, find a
// class the abstraction calls disconnected even though one of its
// members is concretely alive and reachable, and split whichever class
// absorbed the blocking placement — the failure victim's class when a
// bundle's count blocked the frontier, the updating member's class
// when a phase count did. Falls back to the largest active
// non-singleton class, then to any non-singleton class; nil means the
// partition is all singletons (no spurious trace is possible there).
func blame(cfg rollout.Config, q *Quotient, nUpdF, nFailF []int64, victimOf []int, phase []string, failed []bool) *refineHint {
	part := q.Part
	g := cfg.Topo
	fe := g.NodesByRole("frontend")[0]

	// Abstract connectivity under the final counters.
	conn := make([]bool, len(part.Classes))
	conn[q.Frontend] = true
	passable := func(i int) bool {
		return part.Classes[i].Role != "service" || nUpdF[i] == 0
	}
	for changed := true; changed; {
		changed = false
		for _, c := range part.Classes {
			if conn[c.Index] {
				continue
			}
			for _, nb := range part.Neighbors(c.Index) {
				if conn[nb.Class] && nFailF[nb.LinkClass.Index] < int64(nb.Deg) && passable(nb.Class) {
					conn[c.Index] = true
					changed = true
					break
				}
			}
		}
	}

	// Concrete reachability on the final placement.
	reach := g.Reachable(fe,
		func(l int) bool { return failed[l] },
		func(n int) bool { return phase[n] == rollout.PhaseUpdating })

	split := func(victim int) *refineHint {
		c := part.Classes[part.ClassOf(victim)]
		if c.Size() <= 1 {
			return nil
		}
		return &refineHint{victim: victim}
	}
	for _, c := range part.Classes {
		if conn[c.Index] {
			continue
		}
		lively := false
		for _, m := range c.Members {
			if reach[m] {
				lively = true
				break
			}
		}
		if !lively {
			continue
		}
		for _, nb := range part.Neighbors(c.Index) {
			if !conn[nb.Class] {
				continue
			}
			if nFailF[nb.LinkClass.Index] >= int64(nb.Deg) {
				if h := split(victimOf[nb.LinkClass.Index]); h != nil {
					h.reason = fmt.Sprintf("bundle %s lumps %d failures over %d-wide class",
						nb.LinkClass.Name, nFailF[nb.LinkClass.Index], part.Classes[part.ClassOf(victimOf[nb.LinkClass.Index])].Size())
					return h
				}
			}
			if !passable(nb.Class) {
				for _, m := range part.Classes[nb.Class].Members {
					if phase[m] == rollout.PhaseUpdating {
						if h := split(m); h != nil {
							h.reason = fmt.Sprintf("class %s lumps %d updating members",
								part.Classes[nb.Class].Name, nUpdF[nb.Class])
							return h
						}
						break
					}
				}
			}
		}
	}

	// Fallbacks: largest non-singleton class touched by the
	// counterexample, then largest non-singleton overall.
	best := -1
	active := func(c *Class) bool {
		if c.Role == "service" && nUpdF[c.Index] > 0 {
			return true
		}
		for _, nb := range part.Neighbors(c.Index) {
			if nFailF[nb.LinkClass.Index] > 0 {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < 2 && best < 0; pass++ {
		sz := 1
		for _, c := range part.Classes {
			if c.Size() > sz && (pass == 1 || active(c)) {
				sz = c.Size()
				best = c.Index
			}
		}
	}
	if best < 0 {
		return nil
	}
	return &refineHint{victim: part.Classes[best].Members[0], reason: "fallback split of largest class"}
}

// bfsHops mirrors the concrete model's initial-distance computation:
// hop counts from fe, capped at the unreachable sentinel.
func bfsHops(g *topo.Graph, fe int, inf int64) []int64 {
	out := make([]int64, len(g.Nodes))
	for i := range out {
		out[i] = inf
	}
	out[fe] = 0
	queue := []int{fe}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range g.LinksOf(n) {
			nb := g.Other(l, n)
			if out[nb] > out[n]+1 {
				out[nb] = out[n] + 1
				if out[nb] < inf {
					queue = append(queue, nb)
				}
			}
		}
	}
	return out
}
