package mc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"verdict/internal/expr"
	"verdict/internal/trace"
)

func TestStatusJSON(t *testing.T) {
	for st, want := range map[Status]string{Holds: `"holds"`, Violated: `"violated"`, Unknown: `"unknown"`} {
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Errorf("marshal %v = %s, want %s", st, data, want)
		}
		var back Status
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != st {
			t.Errorf("round trip changed %v into %v", st, back)
		}
	}
	var s Status
	if err := json.Unmarshal([]byte(`1`), &s); err == nil {
		t.Error("integer status accepted; the wire form must be a string")
	}
	if err := json.Unmarshal([]byte(`"maybe"`), &s); err == nil {
		t.Error("unknown status string accepted")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	tr := trace.New()
	s0 := trace.NewState()
	s0.Values["x"] = expr.IntValue(3)
	tr.States = []trace.State{s0}
	tr.LoopStart = 0
	tr.Params["p"] = expr.BoolValue(true)

	cases := []*Result{
		{Status: Holds, Engine: "k-induction", Depth: 2, Elapsed: 1500 * time.Microsecond},
		{Status: Violated, Engine: "portfolio/bmc", Depth: 7, Elapsed: time.Second,
			Note: "lasso", Trace: tr,
			Stats: &Stats{Conflicts: 10, Decisions: 20, Propagations: 30, Learnts: 5, Restarts: 1,
				BDDNodes: 99, DepthTime: []time.Duration{time.Millisecond, 2 * time.Millisecond},
				EncodeTime: 3 * time.Millisecond, SolveTime: 4 * time.Millisecond, DrainTime: 5 * time.Microsecond,
				Racers:       []string{"bmc", "k-induction", "bdd(fallback)"},
				EngineErrors: []string{"bdd: injected panic"}}},
		{Status: Unknown, Note: "sat conflict budget exhausted (100 conflicts)"},
	}
	for _, r := range cases {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		// Traces compare via their full rendering; everything else via
		// reflect on trace-less copies.
		if (r.Trace == nil) != (back.Trace == nil) {
			t.Fatalf("trace presence changed: %s", data)
		}
		if r.Trace != nil && r.Trace.Full() != back.Trace.Full() {
			t.Errorf("trace changed in round trip:\n%s\n---\n%s", r.Trace.Full(), back.Trace.Full())
		}
		a, b := *r, back
		a.Trace, b.Trace = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Errorf("round trip changed result:\n%+v\n---\n%+v\n(wire: %s)", a, b, data)
		}
	}
}

// Records stored before Stats.Racers existed still decode, and a
// result without racers keeps the field off the wire.
func TestStatsJSONRacersOptional(t *testing.T) {
	var st Stats
	if err := json.Unmarshal([]byte(`{"conflicts":3}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Conflicts != 3 || st.Racers != nil {
		t.Errorf("decoded %+v from a record without racers", st)
	}
	data, err := json.Marshal(&Stats{Conflicts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "racers") {
		t.Errorf("empty racers on the wire: %s", data)
	}
	data, err = json.Marshal(&Stats{Racers: []string{"bmc", "bdd(fallback)"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"racers":["bmc","bdd(fallback)"]`) {
		t.Errorf("wire stats missing racers: %s", data)
	}
}

func TestResultJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(&Result{Status: Violated, Engine: "bmc", Depth: 3, Elapsed: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"status":"violated"`, `"engine":"bmc"`, `"depth":3`, `"elapsed_ns":1000000`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("wire result missing %s: %s", field, data)
		}
	}
}
