package mc

import (
	"encoding/json"
	"fmt"
	"time"

	"verdict/internal/trace"
	"verdict/internal/witness"
)

// This file gives Result, Status, and Stats a stable JSON wire form —
// the contract verdictd serves and `verdict remote check` consumes.
// Verdicts travel as strings ("holds"/"violated"/"unknown"), never as
// the iota ints, so reordering the Status constants can't silently
// change the wire; durations travel as integer nanoseconds.

// MarshalJSON encodes the verdict as its string form.
func (s Status) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes "holds", "violated", or "unknown".
func (s *Status) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err != nil {
		return fmt.Errorf("mc: status must be a string: %w", err)
	}
	switch str {
	case "holds":
		*s = Holds
	case "violated":
		*s = Violated
	case "unknown":
		*s = Unknown
	default:
		return fmt.Errorf("mc: unknown status %q", str)
	}
	return nil
}

type wireResult struct {
	Status    Status       `json:"status"`
	Engine    string       `json:"engine,omitempty"`
	Depth     int          `json:"depth"`
	ElapsedNS int64        `json:"elapsed_ns"`
	Note      string       `json:"note,omitempty"`
	Trace     *trace.Trace `json:"trace,omitempty"`
	Stats     *Stats       `json:"stats,omitempty"`
	// Witness is the independent validation outcome
	// ("validated"/"failed"/"skipped"), absent when nothing was
	// validated. Certificates themselves stay local — they reference
	// the in-memory expression trees — so remote re-validation means
	// re-checking, not trusting a serialized proof.
	Witness string `json:"witness,omitempty"`
}

// MarshalJSON renders the result in its wire shape.
func (r *Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(wireResult{
		Status:    r.Status,
		Engine:    r.Engine,
		Depth:     r.Depth,
		ElapsedNS: r.Elapsed.Nanoseconds(),
		Note:      r.Note,
		Trace:     r.Trace,
		Stats:     r.Stats,
		Witness:   string(r.Witness),
	})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Result) UnmarshalJSON(data []byte) error {
	var w wireResult
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Result{
		Status:  w.Status,
		Engine:  w.Engine,
		Depth:   w.Depth,
		Elapsed: time.Duration(w.ElapsedNS),
		Note:    w.Note,
		Trace:   w.Trace,
		Stats:   w.Stats,
		Witness: witness.Status(w.Witness),
	}
	return nil
}

type wireStats struct {
	Conflicts       int64    `json:"conflicts,omitempty"`
	Decisions       int64    `json:"decisions,omitempty"`
	Propagations    int64    `json:"propagations,omitempty"`
	Learnts         int64    `json:"learnts,omitempty"`
	Restarts        int64    `json:"restarts,omitempty"`
	BDDNodes        int      `json:"bdd_nodes,omitempty"`
	DepthTimeNS     []int64  `json:"depth_time_ns,omitempty"`
	EncodeTimeNS    int64    `json:"encode_time_ns,omitempty"`
	SolveTimeNS     int64    `json:"solve_time_ns,omitempty"`
	Racers          []string `json:"racers,omitempty"`
	EngineErrors    []string `json:"engine_errors,omitempty"`
	WitnessFailures int64    `json:"witness_failures,omitempty"`
	// Cooperation counters. invariants_handed_off is always 0 and
	// stays for records that carry it (see Stats.InvariantsHandedOff).
	BoundsShared        int64 `json:"bounds_shared,omitempty"`
	InvariantsHandedOff int64 `json:"invariants_handed_off,omitempty"`
	IncrementalReuses   int64 `json:"incremental_reuses,omitempty"`
}

// MarshalJSON renders the stats in their wire shape.
func (st *Stats) MarshalJSON() ([]byte, error) {
	w := wireStats{
		Conflicts:           st.Conflicts,
		Decisions:           st.Decisions,
		Propagations:        st.Propagations,
		Learnts:             st.Learnts,
		Restarts:            st.Restarts,
		BDDNodes:            st.BDDNodes,
		EncodeTimeNS:        st.EncodeTime.Nanoseconds(),
		SolveTimeNS:         st.SolveTime.Nanoseconds(),
		Racers:              st.Racers,
		EngineErrors:        st.EngineErrors,
		WitnessFailures:     st.WitnessFailures,
		BoundsShared:        st.BoundsShared,
		InvariantsHandedOff: st.InvariantsHandedOff,
		IncrementalReuses:   st.IncrementalReuses,
	}
	for _, d := range st.DepthTime {
		w.DepthTimeNS = append(w.DepthTimeNS, d.Nanoseconds())
	}
	return json.Marshal(w)
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (st *Stats) UnmarshalJSON(data []byte) error {
	var w wireStats
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*st = Stats{
		Conflicts:           w.Conflicts,
		Decisions:           w.Decisions,
		Propagations:        w.Propagations,
		Learnts:             w.Learnts,
		Restarts:            w.Restarts,
		BDDNodes:            w.BDDNodes,
		EncodeTime:          time.Duration(w.EncodeTimeNS),
		SolveTime:           time.Duration(w.SolveTimeNS),
		Racers:              w.Racers,
		EngineErrors:        w.EngineErrors,
		WitnessFailures:     w.WitnessFailures,
		BoundsShared:        w.BoundsShared,
		InvariantsHandedOff: w.InvariantsHandedOff,
		IncrementalReuses:   w.IncrementalReuses,
	}
	for _, ns := range w.DepthTimeNS {
		st.DepthTime = append(st.DepthTime, time.Duration(ns))
	}
	return nil
}
