package mc

import (
	"fmt"

	"verdict/internal/resilience"
)

// WithRetry runs check under opts, and while the verdict is Unknown
// re-runs it with the budget scaled by the policy's escalation factor
// (resilience.RetryPolicy.Scale) — the standard restart ladder for
// budgeted solvers: spend a small budget on the easy cases, escalate
// geometrically only for the hard ones. The last attempt's result is
// returned, its Note annotated with the attempt count. With no
// attempts in the policy, or no budget dimension to escalate, check
// runs once and its result is returned untouched.
//
// A cancelled context is respected: retries stop as soon as
// opts.Context is done, since a bigger budget cannot help a caller
// that has given up.
func WithRetry(opts Options, pol resilience.RetryPolicy, check func(Options) (*Result, error)) (*Result, error) {
	attempts := pol.Attempts
	if attempts <= 0 || opts.Budget.IsZero() {
		return check(opts)
	}
	base := opts.Budget
	var last *Result
	for attempt := 0; attempt < attempts; attempt++ {
		cur := opts
		cur.Budget = base.Scale(pol.Scale(attempt))
		r, err := check(cur)
		if err != nil || r == nil {
			return r, err
		}
		if r.Status != Unknown {
			if attempt > 0 {
				r.Note = noteWithAttempt(r.Note, attempt+1, cur.Budget)
			}
			return r, nil
		}
		last = r
		if opts.Context != nil && opts.Context.Err() != nil {
			break
		}
	}
	if last != nil {
		last.Note = noteWithAttempt(last.Note, attempts, base.Scale(pol.Scale(attempts-1)))
	}
	return last, nil
}

func noteWithAttempt(note string, attempt int, b Budget) string {
	tag := fmt.Sprintf("retry attempt %d, budget %s", attempt, b)
	if note == "" {
		return tag
	}
	return note + " (" + tag + ")"
}
