package mc

import (
	"fmt"
	"time"

	"verdict/internal/bdd"
	"verdict/internal/expr"
	"verdict/internal/ts"
)

// BlastRadius implements the paper's §5 "risk assessment" direction:
// given an operational event (any state predicate — a particular link
// failing, a controller entering a mode), it reports how far a metric
// can degrade across all states reachable once the event has occurred.
type BlastRadius struct {
	// Metric values attainable in reachable post-event states.
	Values []int64
	// Min and Max of Values.
	Min, Max int64
	// BaselineMin is the worst metric value over reachable states
	// where the event never occurred (for comparison).
	BaselineMin int64
	Elapsed     time.Duration
}

// AnalyzeBlastRadius computes the reachable range of a bounded-int
// metric expression, split by whether the given event predicate has
// ever held on the path. Implemented with BDD reachability over the
// system augmented with an event latch.
func AnalyzeBlastRadius(sys *ts.System, event, metric *expr.Expr, opts Options) (res *BlastRadius, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			if r == bdd.ErrInterrupted {
				res, err = nil, ErrTimeout
				return
			}
			panic(r)
		}
	}()
	if metric.Type().Kind != expr.KindInt {
		return nil, fmt.Errorf("mc: blast-radius metric must be a bounded int, got %s", metric.Type())
	}
	if event.Type().Kind != expr.KindBool || expr.HasNext(event) {
		return nil, fmt.Errorf("mc: blast-radius event must be a boolean state predicate")
	}

	// Augment the system with a latch remembering that the event has
	// occurred. The latch updates from the *current* state so a path
	// is post-event from the step after the event first held.
	aug := ts.New(sys.Name + "#blast")
	aug.AdoptVars(sys)
	latch := aug.Bool("$event_seen")
	aug.AddInit(sys.InitExpr())
	aug.AddInit(expr.Iff(latch.Ref(), event))
	aug.AddTrans(sys.TransExpr())
	aug.AddTrans(expr.Iff(latch.Next(), expr.Or(latch.Ref(), expr.Prime(event))))
	aug.AddInvar(sys.InvarExpr())

	s, err := NewSym(aug, opts)
	if err != nil {
		return nil, err
	}
	defer opts.armStop(&s.stop, s.start)()
	reach := s.Reach()
	post := s.m.And(reach, s.compileBool(latch.Ref()))
	pre := s.m.And(reach, s.m.Not(s.compileBool(latch.Ref())))

	r := &BlastRadius{Min: metric.Type().Hi + 1, Max: metric.Type().Lo - 1, BaselineMin: metric.Type().Hi + 1}
	for v := metric.Type().Lo; v <= metric.Type().Hi; v++ {
		hit := s.m.And(post, s.compileBool(expr.Eq(metric, expr.IntConst(v))))
		if hit != bdd.False {
			r.Values = append(r.Values, v)
			if v < r.Min {
				r.Min = v
			}
			if v > r.Max {
				r.Max = v
			}
		}
		if s.m.And(pre, s.compileBool(expr.Eq(metric, expr.IntConst(v)))) != bdd.False && v < r.BaselineMin {
			r.BaselineMin = v
		}
	}
	if len(r.Values) == 0 {
		return nil, fmt.Errorf("mc: event is unreachable; no post-event states")
	}
	r.Elapsed = time.Since(start)
	return r, nil
}
