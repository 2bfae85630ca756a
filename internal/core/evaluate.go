package core

import (
	"errors"
	"fmt"
	"sort"

	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/transient"
)

// Result is the outcome of one check: what Evaluate computed for a
// formula, each quantity once.
type Result struct {
	// Query reports a P=?/S=? formula, answered by Value; every other
	// formula is answered by Holds.
	Query bool
	// Value is Σ_s α(s)·v(s) over the initial distribution α.
	Value float64
	// Holds reports whether every state with positive initial probability
	// satisfies the formula.
	Holds bool
	// Forward reports that truncated forward sweeps from the initial states
	// answered; Values and Sat are then nil.
	Forward bool
	// Values are the per-state values of a top-level P- or S-formula: the
	// path or long-run probability, complement applied, bound ignored.
	Values []float64
	// Sat is the satisfaction set of a formula that is not a query.
	Sat *mrm.StateSet
}

// Evaluate checks f as Section 3 describes: it computes Sat(Φ), or the
// per-state values of a P- or S-formula, bottom-up, once, and answers from
// the initial distribution. Unless Options.Lump is off, the computation
// runs on the formula-respecting lumped quotient and the per-state results
// are lifted back to the original states.
//
// The per-state results are computed when perState is set or truncation is
// off. Otherwise a top-level P-formula over a time-bounded, reward-unbounded
// until from zero is answered by the forward path alone (Result.Forward),
// and every other formula still gets its per-state results.
func (c *Checker) Evaluate(f logic.StateFormula, perState bool) (*Result, error) {
	res, err := c.evaluate([]logic.StateFormula{f}, perState)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// GroupKey identifies the formulas one EvaluateGroup call serves together:
// top-level P-formulas over an until with time bound [0,t] and reward
// bound [0,r], sharing Φ, Ψ and t. Members differ at most in r and in the
// P operator. Φ and Ψ are keyed by their canonical String() rendering; the
// parser and printer round-trip, so different spellings of the same
// subformula group together iff they print the same.
type GroupKey struct {
	left, right string
	t           float64
}

// GroupOf returns the group key of f; ok is false when f has no batched
// evaluation.
func GroupOf(f logic.StateFormula) (key GroupKey, ok bool) {
	_, u, ok := boundedUntil(f)
	if !ok || !u.Reward.StartsAtZero() || u.Reward.IsUnbounded() {
		return GroupKey{}, false
	}
	return GroupKey{left: u.Left.String(), right: u.Right.String(), t: u.Time.Hi}, true
}

// EvaluateGroup evaluates formulas that share one GroupKey. One Theorem 1
// reduction and one P3 computation over their distinct reward bounds serve
// the whole group; with the Sericola procedure that is a single recursion
// over the memoised uniformised matrix. results[i] is bitwise equal to
// Evaluate(fs[i], true).
func (c *Checker) EvaluateGroup(fs []logic.StateFormula) ([]*Result, error) {
	if len(fs) == 0 {
		return nil, errors.New("core: evaluate group: no formulas")
	}
	key, ok := GroupOf(fs[0])
	if !ok {
		return nil, fmt.Errorf("%w: %s has no batched evaluation", ErrUnsupported, fs[0])
	}
	for _, f := range fs[1:] {
		if k, ok := GroupOf(f); !ok || k != key {
			return nil, fmt.Errorf("core: evaluate group: %s is not in the group of %s", f, fs[0])
		}
	}
	return c.evaluate(fs, true)
}

// evaluate is the one evaluation path behind Evaluate and EvaluateGroup.
// fs is one formula, or a group sharing a GroupKey; they share their atoms,
// hence one lumped quotient.
func (c *Checker) evaluate(fs []logic.StateFormula, perState bool) ([]*Result, error) {
	f := fs[0]
	q, lr, err := c.lumpFor(logic.Atoms(f))
	if err != nil {
		return nil, err
	}
	if p, u, ok := c.forwardShape(f); ok && !perState {
		res, err := q.forward(p, u)
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	span := c.opts.Obs.StartSpan("core.sat")
	defer span.End()
	switch f.(type) {
	case logic.Prob, logic.Steady:
		cols, err := q.columns(fs)
		if err != nil {
			return nil, err
		}
		results := make([]*Result, len(fs))
		for i, g := range fs {
			results[i] = c.fromValues(g, q.liftOut(lr, cols[i]))
		}
		return results, nil
	}
	sat, err := q.sat(f)
	if err != nil {
		return nil, err
	}
	if lr != nil {
		sat = lr.LiftSet(sat)
	}
	return []*Result{{Sat: sat, Holds: c.holds(sat)}}, nil
}

// columns computes the per-state values (see Result.Values) of P- or
// S-formulas on this checker's own model, one buffer per formula. A group
// runs untilTimeRewardBatch once over its distinct reward bounds, sorted so
// that the same group always presents the same memo key.
func (c *Checker) columns(fs []logic.StateFormula) ([][]float64, error) {
	if _, ok := GroupOf(fs[0]); !ok {
		vals, err := c.values(fs[0])
		if err != nil {
			return nil, err
		}
		return [][]float64{vals}, nil
	}
	col := make(map[float64]int, len(fs)) // reward bound -> batch column
	for _, f := range fs {
		col[f.(logic.Prob).Path.(logic.Until).Reward.Hi] = 0
	}
	rs := make([]float64, 0, len(col))
	for r := range col {
		rs = append(rs, r)
	}
	sort.Float64s(rs)
	for i, r := range rs {
		col[r] = i
	}
	u := fs[0].(logic.Prob).Path.(logic.Until)
	phi, err := c.sat(u.Left)
	if err != nil {
		return nil, err
	}
	psi, err := c.sat(u.Right)
	if err != nil {
		return nil, err
	}
	batch, err := c.untilTimeRewardBatch(phi, psi, u.Time.Hi, rs)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(fs))
	for i, f := range fs {
		p := f.(logic.Prob)
		vals := append([]float64(nil), batch[col[p.Path.(logic.Until).Reward.Hi]]...)
		if p.Complement {
			for s, v := range vals {
				vals[s] = 1 - v
			}
		}
		out[i] = vals
	}
	for _, v := range batch {
		c.pool.Put(v)
	}
	return out, nil
}

// fromValues builds the Result of a top-level P- or S-formula from its
// per-state values on the full model: the α-weighted value of a query, or
// the satisfaction set and initial verdict of a bounded formula. The sum
// runs in state order, so it is bitwise reproducible.
func (c *Checker) fromValues(f logic.StateFormula, vals []float64) *Result {
	var op logic.ComparisonOp
	var bound float64
	switch t := f.(type) {
	case logic.Prob:
		op, bound = t.Op, t.Bound
	case logic.Steady:
		op, bound = t.Op, t.Bound
	}
	res := &Result{Query: isQuery(f), Values: vals}
	if res.Query {
		for s, alpha := range c.m.InitView() {
			res.Value += alpha * vals[s]
		}
		return res
	}
	res.Sat = mrm.NewStateSet(len(vals))
	for s, v := range vals {
		if op.Compare(v, bound) {
			res.Sat.Add(s)
		}
	}
	res.Holds = c.holds(res.Sat)
	return res
}

// holds reports whether every state with positive initial probability is
// in sat.
func (c *Checker) holds(sat *mrm.StateSet) bool {
	for s, alpha := range c.m.InitView() {
		if alpha > 0 && !sat.Contains(s) {
			return false
		}
	}
	return true
}

// boundedUntil returns the operator and until of a top-level P-formula over
// an until with a finite time bound [0,t], the shape both the forward path
// and the batched evaluation start from.
func boundedUntil(f logic.StateFormula) (logic.Prob, logic.Until, bool) {
	p, ok := f.(logic.Prob)
	if !ok {
		return logic.Prob{}, logic.Until{}, false
	}
	u, ok := p.Path.(logic.Until)
	if !ok || !u.Time.Valid() || !u.Reward.Valid() || !u.Time.StartsAtZero() || u.Time.IsUnbounded() {
		return logic.Prob{}, logic.Until{}, false
	}
	return p, u, true
}

// forwardShape reports whether the forward path can answer f: truncation
// is on and f is P⋈b[Φ U^[0,t] Ψ] without a reward bound, the shape
// transient.TimeBoundedUntilFrom computes by forward sweeps.
func (c *Checker) forwardShape(f logic.StateFormula) (logic.Prob, logic.Until, bool) {
	p, u, ok := boundedUntil(f)
	return p, u, ok && u.Reward.IsUnbounded() && c.opts.Truncate > 0
}

// forward answers P⋈b[Φ U^[0,t] Ψ] from the initial states alone: one
// truncated forward sweep per positive-mass initial state instead of one
// backward sweep producing Pr_s(φ) for all n states. A forward iterate is
// a sub-distribution, which is what makes truncation sound, and on models
// whose mass stays near the initial states the active window makes the
// cost proportional to the window, not to n. A bounded formula stops at
// the first initial state that fails. On a quotient no lift-back is
// needed: its initial distribution carries each block's aggregated mass,
// and every state of a block shares the block's value.
func (c *Checker) forward(p logic.Prob, u logic.Until) (*Result, error) {
	phi, err := c.sat(u.Left)
	if err != nil {
		return nil, err
	}
	psi, err := c.sat(u.Right)
	if err != nil {
		return nil, err
	}
	res := &Result{Query: p.Query, Holds: !p.Query, Forward: true}
	for s, alpha := range c.m.InitView() {
		if alpha <= 0 {
			continue
		}
		pr, err := transient.TimeBoundedUntilFrom(c.m, phi, psi, s, u.Time.Hi, c.transientOpts())
		if err != nil {
			return nil, err
		}
		if p.Complement {
			pr = 1 - pr
		}
		if p.Query {
			res.Value += alpha * pr
		} else if !p.Op.Compare(pr, p.Bound) {
			res.Holds = false
			break
		}
	}
	return res, nil
}

func isQuery(f logic.StateFormula) bool {
	switch t := f.(type) {
	case logic.Prob:
		return t.Query
	case logic.Steady:
		return t.Query
	}
	return false
}

// Sat returns Sat(Φ): Evaluate's satisfaction set.
func (c *Checker) Sat(f logic.StateFormula) (*mrm.StateSet, error) {
	if isQuery(f) {
		return nil, fmt.Errorf("%w: %s has no satisfaction set; use Values", ErrUnsupported, f)
	}
	res, err := c.Evaluate(f, true)
	if err != nil {
		return nil, err
	}
	return res.Sat, nil
}

// Check reports whether f holds in the initial state(s): Evaluate's
// verdict, from the forward path where Options.Truncate allows it.
func (c *Checker) Check(f logic.StateFormula) (bool, error) {
	if isQuery(f) {
		return false, fmt.Errorf("%w: %s is a query; use Values", ErrUnsupported, f)
	}
	res, err := c.Evaluate(f, false)
	if err != nil {
		return false, err
	}
	return res.Holds, nil
}

// Values returns Evaluate's per-state values of a P- or S-formula (see
// Result.Values). Boolean-level formulas have no numeric value.
func (c *Checker) Values(f logic.StateFormula) ([]float64, error) {
	switch f.(type) {
	case logic.Prob, logic.Steady:
	default:
		return nil, fmt.Errorf("%w: %s is not a P=?/S=? query", ErrUnsupported, f)
	}
	res, err := c.Evaluate(f, true)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// QueryInitial returns Evaluate's value of a P=? query when the forward
// path answers it; ok is false, and nothing is computed, when it does not.
func (c *Checker) QueryInitial(f logic.StateFormula) (val float64, ok bool, err error) {
	if _, _, ok := c.forwardShape(f); !ok || !isQuery(f) {
		return 0, false, nil
	}
	res, err := c.Evaluate(f, false)
	if err != nil {
		return 0, false, err
	}
	return res.Value, true, nil
}

// PathProb returns Pr_s(φ) for every state s: the values of P=?[φ].
func (c *Checker) PathProb(f logic.PathFormula) ([]float64, error) {
	return c.Values(logic.Prob{Query: true, Path: f})
}

// UntilProbBatch returns Pr_s(Φ U^{[0,t]}_{[0,r_i]} Ψ) for every state s
// and each reward bound r_i: the values of the P=? queries, evaluated as
// one group (see EvaluateGroup). results[i] is bitwise equal to PathProb
// of the corresponding single until.
func (c *Checker) UntilProbBatch(left, right logic.StateFormula, t float64, rs []float64) ([][]float64, error) {
	fs := make([]logic.StateFormula, len(rs))
	for i, r := range rs {
		fs[i] = logic.Prob{Query: true, Path: logic.Until{Time: logic.UpTo(t), Reward: logic.UpTo(r), Left: left, Right: right}}
	}
	results, err := c.EvaluateGroup(fs)
	if err != nil {
		return nil, fmt.Errorf("core: until batch: %w", err)
	}
	out := make([][]float64, len(results))
	for i, res := range results {
		out[i] = res.Values
	}
	return out, nil
}
