package mc

import (
	"fmt"
	"time"

	"verdict/internal/ctl"
	"verdict/internal/expr"
)

// CheckCTL evaluates a CTL formula over the explicit state graph by
// backward fixpoints — the textbook algorithm, used as the oracle for
// the symbolic CTL engine in randomized cross-validation tests.
// Fairness constraints are not supported here (the explicit engine
// checks plain CTL; fair CTL is exercised through the LTL fragments).
func (e *Explicit) CheckCTL(f *ctl.Formula) (*Result, error) {
	start := time.Now()
	if len(e.sys.Fairness()) > 0 {
		return nil, fmt.Errorf("mc: explicit CTL does not support fairness constraints")
	}
	sat, err := e.evalCTL(ctl.Normalize(f))
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: "explicit", Elapsed: time.Since(start)}
	res.Status = Holds
	for _, i := range e.inits {
		if !sat[i] {
			res.Status = Violated
			res.Note = fmt.Sprintf("initial state %d violates the property", i)
			break
		}
	}
	return res, nil
}

// evalCTL returns the satisfaction vector over state indices.
func (e *Explicit) evalCTL(f *ctl.Formula) ([]bool, error) {
	n := len(e.states)
	out := make([]bool, n)
	switch f.Kind {
	case ctl.KindAtom:
		atom := expr.Compile(f.Atom)
		for i := 0; i < n; i++ {
			v, err := e.evalAt(atom, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	case ctl.KindNot:
		sub, err := e.evalCTL(f.L)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = !sub[i]
		}
	case ctl.KindAnd, ctl.KindOr:
		a, err := e.evalCTL(f.L)
		if err != nil {
			return nil, err
		}
		b, err := e.evalCTL(f.R)
		if err != nil {
			return nil, err
		}
		for i := range out {
			if f.Kind == ctl.KindAnd {
				out[i] = a[i] && b[i]
			} else {
				out[i] = a[i] || b[i]
			}
		}
	case ctl.KindEX:
		sub, err := e.evalCTL(f.L)
		if err != nil {
			return nil, err
		}
		for i := range out {
			for _, j := range e.succs[i] {
				if sub[j] {
					out[i] = true
					break
				}
			}
		}
	case ctl.KindEU:
		a, err := e.evalCTL(f.L)
		if err != nil {
			return nil, err
		}
		b, err := e.evalCTL(f.R)
		if err != nil {
			return nil, err
		}
		// Least fixpoint: seed with b, propagate backwards through a.
		queue := make([]int, 0, n)
		for i := range out {
			if b[i] {
				out[i] = true
				queue = append(queue, i)
			}
		}
		for len(queue) > 0 {
			j := queue[0]
			queue = queue[1:]
			for _, i := range e.preds[j] {
				if !out[i] && a[i] {
					out[i] = true
					queue = append(queue, i)
				}
			}
		}
	case ctl.KindEG:
		a, err := e.evalCTL(f.L)
		if err != nil {
			return nil, err
		}
		// Greatest fixpoint: start from a, repeatedly drop states with
		// no successor still in the set.
		for i := range out {
			out[i] = a[i]
		}
		changed := true
		for changed {
			changed = false
			for i := range out {
				if !out[i] {
					continue
				}
				keep := false
				for _, j := range e.succs[i] {
					if out[j] {
						keep = true
						break
					}
				}
				if !keep {
					out[i] = false
					changed = true
				}
			}
		}
	default:
		return nil, fmt.Errorf("mc: evalCTL expects normalized formulas, got %v", f.Kind)
	}
	return out, nil
}
