package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"verdict/internal/server"
	"verdict/internal/topo"
	"verdict/internal/watch/extract"
)

// Seeded input generation. Every workload's inputs are a pure function
// of --seed: the same seed yields byte-identical request bodies and
// event batches in the same order, and every input carries the verdict
// it must produce, known by construction (oracle.go).

const (
	verdictHolds    = "holds"
	verdictViolated = "violated"
)

// checkOp is one submission of a check client.
type checkOp struct {
	Index int
	// Kind is "counter", "guard", "scenario" or "resubmit".
	Kind string
	Body []byte
	// Class is the X-Verdict-Class header value ("" keeps the tenant's
	// default class).
	Class string
	Want  string
}

// checkGen yields one check client's submissions.
type checkGen struct {
	rng    *rand.Rand
	prefix string
	// The stream is cut into blocks of blockLen submissions, each with
	// the same number of resubmissions and scenarios in a seeded order,
	// so every run of a given length sees the same mix whatever its
	// seed.
	blockLen, resubmits, scenarios int
	block                          []string // kinds of the current block, consumed from the front
	n                              int
	scenarioN                      int
	fresh                          []checkOp // earlier new submissions: resubmission candidates
}

// newCheckGen returns the submission stream of one client. Models are
// made distinct by a variable name derived from the client and the op
// index, so no two new submissions of a run share a content address.
func newCheckGen(seed uint64, client, blockLen, resubmits, scenarios int) *checkGen {
	return &checkGen{
		rng:       rand.New(rand.NewPCG(seed, uint64(client)+1)),
		prefix:    fmt.Sprintf("c%d_", client),
		blockLen:  blockLen,
		resubmits: resubmits,
		scenarios: scenarios,
	}
}

func (g *checkGen) next() checkOp {
	if len(g.block) == 0 {
		for i := 0; i < g.blockLen; i++ {
			kind := "textual"
			switch {
			case i < g.resubmits:
				kind = "resubmit"
			case i < g.resubmits+g.scenarios:
				kind = "scenario"
			}
			g.block = append(g.block, kind)
		}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	i := g.n
	g.n++
	if kind == "resubmit" && len(g.fresh) > 0 {
		prev := g.fresh[g.rng.IntN(len(g.fresh))]
		return checkOp{Index: i, Kind: "resubmit", Body: prev.Body, Class: prev.Class, Want: prev.Want}
	}
	op := g.textual(i)
	if kind == "scenario" {
		op = g.scenario(i)
	}
	g.fresh = append(g.fresh, op)
	return op
}

// textual draws a counter or guard model over a 0..n counter with the
// property bound on either side of the largest reachable value.
func (g *checkGen) textual(i int) checkOp {
	n := 3 + g.rng.IntN(10)
	v := fmt.Sprintf("%sx%d", g.prefix, i)
	kind, reach := "counter", n
	if g.rng.IntN(2) == 0 {
		kind, reach = "guard", 1+g.rng.IntN(n)
	}
	bound := reach + g.rng.IntN(3) // holds
	if g.rng.IntN(2) == 0 {
		bound = g.rng.IntN(reach) // violated
	}
	src := counterModel(v, n, bound)
	if kind == "guard" {
		src = guardModel(v, n, reach, bound)
	}
	body, _ := json.Marshal(server.CheckRequest{Model: src, Options: server.OptionsRequest{MaxDepth: 20}})
	return checkOp{Index: i, Kind: kind, Body: body, Want: boundWant(reach, bound)}
}

// scenario draws a rollout on the test topology, k cycling through
// 0..3, both sides of the critical k. The depth varies so most draws are new content
// addresses; they are demoted to the bulk class, like batch callers.
func (g *checkGen) scenario(i int) checkOp {
	k := g.scenarioN % 4
	g.scenarioN++
	depth := 12 + g.rng.IntN(40)
	body, _ := json.Marshal(server.CheckRequest{
		Scenario: &server.ScenarioRequest{Name: "rollout", Topo: "test", K: k},
		Options:  server.OptionsRequest{MaxDepth: depth},
	})
	return checkOp{Index: i, Kind: "scenario", Body: body, Class: "bulk", Want: rolloutWant(topo.Test(), k)}
}

// counterModel counts 0..n and wraps; its largest reachable value is n.
func counterModel(v string, n, bound int) string {
	return fmt.Sprintf("MODULE m\nVAR %[1]s : 0..%[2]d;\nINIT %[1]s = 0;\nTRANS next(%[1]s) = ite(%[1]s < %[2]d, %[1]s + 1, 0);\nLTLSPEC G (%[1]s <= %[3]d);\n",
		v, n, bound)
}

// guardModel counts up to the guard and stays there; its largest
// reachable value is the guard.
func guardModel(v string, n, guard, bound int) string {
	return fmt.Sprintf("MODULE m\nVAR %[1]s : 0..%[2]d;\nINIT %[1]s = 0;\nTRANS next(%[1]s) = ite(%[1]s < %[3]d, %[1]s + 1, %[1]s);\nLTLSPEC G (%[1]s <= %[4]d);\n",
		v, n, guard, bound)
}

// Watch stream. The session folds a small cluster: two workers, one
// deployment "web" with an HPA, and the descheduler. The extractor
// derives two properties from it, descheduler/web and hpa-surge/web.
const (
	watchSession  = "bench"
	webRequestCPU = 50
	workerBase    = 5
)

// watchBatch is one POST /v1/events body and the verdicts the session
// must report once its verify pass settles.
type watchBatch struct {
	Index int
	// Kind is "init", "telemetry", "hpa-seen", "hpa-new" or
	// "descheduler".
	Kind   string
	Events []extract.Event
	Body   []byte
	Want   map[string]string
}

// hpaBound is the deployment spec and HPA bound the hpa-surge property
// is extracted from.
type hpaBound struct {
	replicas, surge, max int
	bug                  bool
}

// hpaBounds enumerates every bound the stream may set, in a seeded
// order: never-seen bounds are taken from it in turn. All keep the
// model small (cap at most ten above the spec), so a new bound costs
// the same early and late in a run.
func hpaBounds(rng *rand.Rand) []hpaBound {
	var out []hpaBound
	for replicas := 1; replicas <= 6; replicas++ {
		for surge := 1; surge <= 3; surge++ {
			for max := replicas + 1; max <= replicas+10; max++ {
				out = append(out, hpaBound{replicas, surge, max, false}, hpaBound{replicas, surge, max, true})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// watchBlock holds the batch kinds of every block of the watch stream,
// shuffled per block: mostly clean telemetry, some HPA bounds seen
// before (dirty but cached), some never-seen bounds, and a few
// descheduler-threshold flips.
var watchBlock = func() []string {
	var kinds []string
	for kind, n := range map[string]int{"telemetry": 35, "hpa-seen": 9, "hpa-new": 3, "descheduler": 3} {
		for i := 0; i < n; i++ {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds)
	return kinds
}()

// watchGen yields the event stream of one watch client.
type watchGen struct {
	rng       *rand.Rand
	n         int
	block     []string
	threshold int
	hpa       hpaBound
	seen      []hpaBound
	unseen    []hpaBound
}

func newWatchGen(seed uint64) *watchGen {
	rng := rand.New(rand.NewPCG(seed, 1<<32))
	return &watchGen{rng: rng, threshold: 70, hpa: hpaBound{replicas: 2, surge: 1, max: 4}, unseen: hpaBounds(rng)}
}

func (g *watchGen) next() watchBatch {
	b := watchBatch{Index: g.n}
	g.n++
	if b.Index == 0 {
		b.Kind = "init"
		b.Events = []extract.Event{
			{Kind: extract.KindNode, Name: "w2", Node: &extract.NodeSpec{Capacity: 100, BaseLoad: workerBase}},
			{Kind: extract.KindNode, Name: "w3", Node: &extract.NodeSpec{Capacity: 100, BaseLoad: workerBase}},
			{Kind: extract.KindDescheduler, Descheduler: &extract.DeschedulerSpec{Threshold: g.threshold}},
		}
		b.Events = append(b.Events, g.hpaEvents()...)
		g.seen = append(g.seen, g.hpa)
	} else {
		if len(g.block) == 0 {
			g.block = append([]string(nil), watchBlock...)
			g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		}
		b.Kind = g.block[0]
		g.block = g.block[1:]
		switch b.Kind {
		case "telemetry":
			tel := fmt.Sprintf(`{"pod_cpu":{"web-0":%d,"web-1":%d}}`, 40+g.rng.IntN(20), 40+g.rng.IntN(20))
			b.Events = []extract.Event{{Kind: "telemetry", Telemetry: json.RawMessage(tel)}}
		case "hpa-seen":
			g.hpa = g.seen[g.rng.IntN(len(g.seen))]
			b.Events = g.hpaEvents()
		case "hpa-new":
			if len(g.unseen) == 0 { // a very long run has seen them all
				g.unseen = hpaBounds(g.rng)
			}
			g.hpa, g.unseen = g.unseen[0], g.unseen[1:]
			g.seen = append(g.seen, g.hpa)
			b.Events = g.hpaEvents()
		case "descheduler":
			// Flip between a threshold safely above the workers'
			// utilization and one safely below it.
			if g.threshold > deschedulerUtil() {
				g.threshold = 10 + 5*g.rng.IntN(8) // 10..45
			} else {
				g.threshold = 65 + 5*g.rng.IntN(7) // 65..95
			}
			b.Events = []extract.Event{{Kind: extract.KindDescheduler, Descheduler: &extract.DeschedulerSpec{Threshold: g.threshold}}}
		}
	}
	b.Want = map[string]string{
		"descheduler/web": deschedulerWant(g.threshold, deschedulerUtil()),
		"hpa-surge/web":   hpaWant(g.hpa.max, g.hpa.replicas, g.hpa.bug),
	}
	b.Body, _ = json.Marshal(server.WatchEventsRequest{Session: watchSession, Events: b.Events})
	return b
}

// hpaEvents sets the deployment spec and its HPA bound.
func (g *watchGen) hpaEvents() []extract.Event {
	return []extract.Event{
		{Kind: extract.KindDeployment, Name: "web", Deployment: &extract.DeploymentSpec{
			Replicas: g.hpa.replicas, RequestCPU: webRequestCPU, MaxSurge: g.hpa.surge}},
		{Kind: extract.KindHPA, Name: "web", HPA: &extract.HPASpec{
			MaxReplicas: int64(g.hpa.max), ReportsExpectedAsCurrent: g.hpa.bug}},
	}
}

// deschedulerUtil is a hosting worker's utilization: the web pod's
// request plus the worst base load among the workers.
func deschedulerUtil() int { return webRequestCPU + workerBase }

// fig6Cell is one cell of the reduced Figure 6 sweep.
type fig6Cell struct {
	Name     string
	Topo     string
	K        int
	Abstract bool
	Want     string
}

// fig6Cells is the reduced sweep: test, fattree4 and fattree6 at their
// critical k and at k = 0, 1 through the portfolio, plus fattree12 at
// k = 6 and k = 1 through the symmetry quotient. The cells are fixed;
// the seed does not change them.
func fig6Cells() []fig6Cell {
	var cells []fig6Cell
	for _, name := range []string{"test", "fattree4", "fattree6"} {
		g, _ := topo.ByName(name)
		crit := criticalK(g)
		for _, k := range []int{crit, 0, 1} {
			cells = append(cells, fig6Cell{Name: fmt.Sprintf("%s/k=%d", name, k), Topo: name, K: k, Want: rolloutWant(g, k)})
		}
	}
	ft12 := topo.FatTree(12)
	for _, k := range []int{6, 1} {
		cells = append(cells, fig6Cell{Name: fmt.Sprintf("fattree12/k=%d", k), Topo: "fattree12", K: k, Abstract: true, Want: rolloutWant(ft12, k)})
	}
	return cells
}
