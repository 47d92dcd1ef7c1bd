package abstract

// Abstraction-soundness conformance harness: seeded random topologies
// are checked both ways — concretely through the ordinary portfolio
// and abstractly through the CEGAR loop, with the quotient routed
// through every engine that can check it. On every instance small
// enough to afford the concrete check, the abstracted verdict must
// equal the concrete one whenever both conclude, abstracted violations
// must carry concrete traces that replay through the independent
// witness validator, and concrete counterexamples must replay too.
// Abstraction is the one optimisation that could silently change
// answers instead of latency; this harness is the executable form of
// the claim that it does not.
//
// Seeds are fixed so failures reproduce exactly.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"verdict/internal/ltl"
	"verdict/internal/mc"
	"verdict/internal/models/rollout"
	"verdict/internal/topo"
	"verdict/internal/ts"
	"verdict/internal/witness"
)

// randomTopology builds a small random two-or-three-tier network: one
// frontend, 1-3 relays, 1-4 services, with random (possibly uneven,
// possibly disconnecting) attachment — deliberately including shapes
// with no symmetry at all, where the partition degenerates to
// singletons and the quotient must still answer correctly.
func randomTopology(r *rand.Rand, name string) *topo.Graph {
	g := topo.New(name)
	fe := g.AddNode("fe", "frontend")
	nRelay := 1 + r.Intn(3)
	relays := make([]int, nRelay)
	for i := range relays {
		relays[i] = g.AddNode(fmt.Sprintf("r%d", i), "relay")
	}
	nSvc := 1 + r.Intn(4)
	svcs := make([]int, nSvc)
	for i := range svcs {
		svcs[i] = g.AddNode(fmt.Sprintf("s%d", i), "service")
	}
	// Frontend reaches a random nonempty relay subset.
	feLinks := 1 + r.Intn(nRelay)
	for _, rel := range r.Perm(nRelay)[:feLinks] {
		g.AddLink(fe, relays[rel])
	}
	// Each service attaches to a random relay subset — possibly empty,
	// leaving it unreachable from the start (the verdict must still
	// agree between the two pipelines).
	for _, s := range svcs {
		n := r.Intn(nRelay + 1)
		for _, rel := range r.Perm(nRelay)[:n] {
			g.AddLink(s, relays[rel])
		}
	}
	// Occasionally a relay backbone link.
	if nRelay > 1 && r.Intn(2) == 0 {
		g.AddLink(relays[0], relays[1])
	}
	return g
}

// quotientEngines enumerates the ways the harness routes quotient
// checks: the full portfolio plus each individual engine. Bounded
// engines return Unknown on Holds instances; the harness skips the
// equality check for those but still demands agreement whenever the
// abstracted pipeline concludes.
func quotientEngines(opts mc.Options) map[string]CheckFunc {
	return map[string]CheckFunc{
		"portfolio": mc.Portfolio,
		"bmc":       mc.BMC,
		"bdd": func(sys *ts.System, phi *ltl.Formula, o mc.Options) (*mc.Result, error) {
			sym, err := mc.NewSym(sys, o)
			if err != nil {
				return nil, err
			}
			return sym.CheckLTL(phi)
		},
		"k-induction": func(sys *ts.System, phi *ltl.Formula, o mc.Options) (*mc.Result, error) {
			p, ok := ltl.IsSafetyInvariant(phi)
			if !ok {
				return nil, fmt.Errorf("quotient property is not a safety invariant: %s", phi)
			}
			return mc.KInduction(sys, p, o)
		},
	}
}

// TestAbstractionConformance is the harness entry point; CI runs it
// with the rest of the -short suite and the package's race runs.
func TestAbstractionConformance(t *testing.T) {
	seeds := []int64{101, 102, 103}
	perSeed := 6
	if testing.Short() {
		seeds = seeds[:2]
		perSeed = 4
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perSeed; i++ {
				g := randomTopology(r, fmt.Sprintf("rand-%d-%d", seed, i))
				cfg := rollout.Config{
					Topo:    g,
					P:       1 + r.Intn(2),
					K:       r.Intn(3),
					M:       1 + r.Intn(2),
					MaxDist: 8, // longest simple detour on 8 nodes
				}
				checkBothWays(t, cfg, fmt.Sprintf("topo%d (p=%d k=%d m=%d, %d nodes %d links)",
					i, cfg.P, cfg.K, cfg.M, len(g.Nodes), len(g.Links)))
			}
		})
	}
}

func checkBothWays(t *testing.T, cfg rollout.Config, what string) {
	t.Helper()
	opts := mc.Options{MaxDepth: 14, Timeout: 30 * time.Second, ValidateWitness: true}

	// Concrete reference verdict. These instances are sized so the
	// ordinary portfolio concludes; an Unknown would make the
	// equivalence claim vacuous.
	cm, err := rollout.Build(cfg)
	if err != nil {
		t.Fatalf("%s: concrete build: %v", what, err)
	}
	concrete, err := mc.Portfolio(cm.Sys, cm.Property, opts)
	if err != nil {
		t.Fatalf("%s: concrete check: %v", what, err)
	}
	if concrete.Status == mc.Unknown {
		t.Fatalf("%s: concrete portfolio inconclusive on a toy instance", what)
	}
	if concrete.Trace != nil {
		if err := witness.Validate(cm.Sys, cm.Property, concrete.Trace); err != nil {
			t.Fatalf("%s: concrete counterexample rejected by witness validator: %v", what, err)
		}
	}

	for name, engine := range quotientEngines(opts) {
		aopts := Options{MC: opts, Check: engine}
		abs, err := Check(cfg, aopts)
		if err != nil {
			t.Fatalf("%s [%s]: abstract check: %v", what, name, err)
		}
		if abs.Status == mc.Unknown {
			// Bounded engines cannot prove Holds; the portfolio and
			// BDD always conclude on these sizes.
			if name == "portfolio" || name == "bdd" {
				t.Fatalf("%s [%s]: abstracted check inconclusive", what, name)
			}
			continue
		}
		if abs.Status != concrete.Status {
			t.Fatalf("%s [%s]: abstraction changed the verdict: abstract=%s concrete=%s (note: %s)",
				what, name, abs.Status, concrete.Status, abs.Note)
		}
		if abs.Status == mc.Violated {
			if !abs.CertifiedReplay {
				t.Fatalf("%s [%s]: abstract violation lacks replay certification", what, name)
			}
			if err := witness.Validate(cm.Sys, cm.Property, abs.Trace); err != nil {
				t.Fatalf("%s [%s]: abstract counterexample rejected on concrete replay: %v", what, name, err)
			}
		}
		if abs.Witness == witness.Failed {
			t.Fatalf("%s [%s]: quotient evidence failed validation: %s", what, name, abs.Note)
		}
	}
}
