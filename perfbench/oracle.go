package main

import (
	"fmt"

	"verdict/internal/topo"
)

// Known answers. Each function derives a verdict from how its input
// was generated, never from the program under test. A conclusive
// verdict that disagrees aborts the run: it is a correctness failure,
// not a slow or refused operation.

// criticalK is the smallest link-failure budget that can cut the
// front-end off: the number of links of the front-end leaf.
func criticalK(g *topo.Graph) int {
	return len(g.LinksOf(g.NodesByRole("frontend")[0]))
}

// rolloutWant: with p = m = 1 the rollout property fails iff k link
// failures can isolate the front-end.
func rolloutWant(g *topo.Graph, k int) string {
	if k >= criticalK(g) {
		return verdictViolated
	}
	return verdictHolds
}

// boundWant: G (x <= bound) over a counter whose largest reachable
// value is reach.
func boundWant(reach, bound int) string {
	if bound < reach {
		return verdictViolated
	}
	return verdictHolds
}

// deschedulerWant: the pod oscillates iff the eviction threshold is
// below the hosting worker's utilization.
func deschedulerWant(threshold, util int) string {
	if threshold < util {
		return verdictViolated
	}
	return verdictHolds
}

// hpaWant: a defective HPA ratchets the replica spec iff its cap
// leaves room above the spec (the surge is at least 1).
func hpaWant(max, replicas int, bug bool) string {
	if bug && max > replicas {
		return verdictViolated
	}
	return verdictHolds
}

// verdictError is a wrong or unvalidated conclusive verdict.
type verdictError struct{ msg string }

func (e *verdictError) Error() string { return e.msg }

// checkVerdict compares a conclusive verdict with the known answer. An
// inconclusive one ("unknown") is not wrong; the caller counts it as a
// failed operation. Every violated verdict must carry a validated
// witness.
func checkVerdict(what, want, got, witness string) error {
	if got != verdictHolds && got != verdictViolated {
		return nil
	}
	if got != want {
		return &verdictError{fmt.Sprintf("%s: verdict %s, known answer %s", what, got, want)}
	}
	if got == verdictViolated && witness != "validated" {
		return &verdictError{fmt.Sprintf("%s: violated verdict with witness %q, want validated", what, witness)}
	}
	return nil
}
