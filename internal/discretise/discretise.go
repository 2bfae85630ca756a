// Package discretise implements the Tijms–Veldman discretisation method of
// Section 4.3 of the paper (H.C. Tijms, R. Veldman, "A fast algorithm for
// the transient reward distribution in continuous-time Markov chains",
// Oper. Res. Lett. 26, 2000), a generalisation of Goyal–Tantawi. Both time
// and accumulated reward are discretised in multiples of the same step d;
// the joint density F^j(s,k) of being in state s at time j·d with
// accumulated reward k·d is defined by the forward recursion
//
//	F^{j+1}(s,k) = F^j(s, k−ρ(s))·(1−E(s)·d) +
//	               Σ_{s'} F^j(s', k−ρ(s')−ι(s',s)/d)·R(s',s)·d
//
// which requires natural-number reward rates (rational rewards can be
// scaled; see ScaleRewards). The method has no a-priori error bound; its
// cost grows as d⁻² (Table 4).
//
// The forward recursion starts from a point mass, so it needs one run per
// source state. What runs here is its adjoint: from the goal indicator
// V^T(s,k) = 1[s ∈ goal] for k ≤ R = r/d, the backward step
//
//	V^j(s,k) = (1−E(s)·d)·V^{j+1}(s, k+ρ(s)) +
//	           Σ_t R(s,t)·d·V^{j+1}(t, k+ρ(s)+ι(s,t)/d)
//
// (an index past R reads 0) satisfies Σ_k F^j(·,k)·V^j(·,k) = const, so
// the forward value d·Σ_{s∈goal,k≤R} F^T(s,k) from source s equals
// V¹(s, ρ(s)) (0 when ρ(s) > R): one backward pass of T−1 steps yields
// every source's value. The two schemes agree up to summation order.
// States with E(s) = 0 and ρ(s) = 0 (the Theorem 1 goal and fail states)
// keep V^j = V^T, so their rows are written once; and since every other
// state earns at least m = min ρ per step, level j is only read at
// k ≥ j·m, so each step computes just that window.
package discretise

import (
	"errors"
	"fmt"
	"math"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
)

// Options configures the discretisation.
type Options struct {
	// D is the discretisation step for both time and accumulated reward.
	// It must satisfy d ≤ 1/max_s E(s) so that 1−E(s)·d stays a
	// probability, and should be small enough that the probability of two
	// transitions within d is negligible (the method's error source).
	D float64
	// Impulses optionally assigns impulse (transition) rewards: entry
	// (s,s') is the reward earned instantaneously when the transition
	// s→s' fires, in the same unit as the state rewards. Impulse rewards
	// must be multiples of the step D. This is the paper's future-work
	// extension, which the Tijms–Veldman scheme supports directly.
	Impulses *sparse.CSR
	// AllowCoarse permits steps d > 1/max_s E(s), for which the "stay"
	// factor 1−E(s)·d of some state is negative. The recursion is then no
	// longer a probability scheme but remains a (poorer) first-order
	// approximation; the paper's Table 4 contains such a row (d = 1/16
	// with max E(s) = 19.5), so reproduction needs this escape hatch.
	AllowCoarse bool
	// Workers bounds the parallelism of each backward step, which splits
	// its (state, reward index) cells across workers: 0 = runtime.NumCPU(),
	// 1 = sequential. Every cell is computed by one worker in a fixed
	// order, so results are bitwise independent of Workers.
	Workers int
	// Pool, when non-nil, supplies the two n·(R+1) grids of the backward
	// pass; both go back to it when the pass ends.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals: the
	// O(d) discretisation term as an indicative ledger entry (the method
	// has no a-priori error bound — §4.3), source counters, grid gauges and
	// the recursion span.
	Obs *obs.Recorder
}

var (
	// ErrStep reports an invalid discretisation step.
	ErrStep = errors.New("discretise: invalid step")
	// ErrRewards reports non-natural reward rates.
	ErrRewards = errors.New("discretise: rewards must be natural numbers (use ScaleRewards)")
)

const intTol = 1e-9

// recursionGrain is the minimum number of cells a backward step computes,
// (non-fixed states) × (reward indices in its window), before the step
// fans out across workers. Set by measurement on 2 CPUs (Xeon, 4 MiB L2):
// the step streams its rows from cache, and a 2-way split was no faster
// up to 1.8e5 cells per step and 1.3–1.4× faster at 4.5e5 and 1.2e6. The
// reduced station Q3 steps (≤ 5.8e4 cells) stay sequential.
const recursionGrain = 1 << 18

// maxGridCells caps n·(R+1): it is the largest float64 slice the Go
// runtime can allocate (2^48 bytes) and keeps the byte count from
// overflowing an int on 32-bit platforms.
const maxGridCells = min(1<<45, math.MaxInt/8)

// asNatural rounds v to a natural number. ok is false when v is negative,
// not within intTol of an integer, NaN, or too large for an int.
func asNatural(v float64) (int, bool) {
	r := math.Round(v)
	if !(r >= 0 && r < math.MaxInt) || math.Abs(v-r) > intTol*(1+math.Abs(v)) {
		return 0, false
	}
	return int(r), true
}

// ScaleRewards returns a copy of the model whose rewards are multiplied by
// factor, together with the scaled reward bound. Use it to turn rational
// rewards into the natural numbers the recursion requires; the reachability
// probability is invariant under simultaneous scaling of ρ and r.
func ScaleRewards(m *mrm.MRM, r, factor float64) (*mrm.MRM, float64, error) {
	if factor <= 0 {
		return nil, 0, fmt.Errorf("discretise: scale factor %v must be positive", factor)
	}
	b := mrm.NewBuilder(m.N())
	for s := 0; s < m.N(); s++ {
		b.Name(s, m.Name(s))
		b.Reward(s, m.Reward(s)*factor)
		m.Rates().Row(s, func(t int, v float64) {
			if v != 0 {
				b.Rate(s, t, v)
			}
		})
		for _, a := range m.Labels() {
			if m.HasLabel(s, a) {
				b.Label(s, a)
			}
		}
	}
	for s, p := range m.InitView() {
		if p > 0 {
			b.InitialProb(s, p)
		}
	}
	scaled, err := b.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("discretise: scale rewards: %w", err)
	}
	return scaled, r * factor, nil
}

// prepared carries the validated inputs of the backward pass: grid
// dimensions, integer rewards, stay factors and the per-edge index shifts.
type prepared struct {
	m       *mrm.MRM
	goal    *mrm.StateSet
	n, T, R int
	d       float64
	// rho[s] is ρ(s), capped at R+1: any index past R reads 0.
	rho  []int
	stay []float64
	// shift[off[s]+e] is ρ(s)+ι(s,t)/d for the e-th entry (t, R(s,t)) of
	// RowRange(s), each term capped at R+1.
	off, shift []int
	// active lists the states whose rows change per step: E(s) > 0 or
	// ρ(s) > 0. The others keep V^j = V^T, so their rows are written once.
	// minRho is the least ρ over them (R+1 when there are none).
	active []int
	minRho int
	// A step fans out over workers once it computes grain cells.
	workers, grain int
}

// prepare validates the inputs and assembles the state of the pass. Every
// refusal comes before any grid allocation.
func prepare(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (*prepared, error) {
	n := m.N()
	if goal.Universe() != n {
		return nil, fmt.Errorf("discretise: goal universe %d for %d states", goal.Universe(), n)
	}
	d := opts.D
	if !(d > 0) {
		return nil, fmt.Errorf("%w: d=%v", ErrStep, d)
	}
	if !(t > 0 && r > 0) {
		return nil, fmt.Errorf("discretise: bounds t=%v r=%v must be positive", t, r)
	}
	T, ok := asNatural(t / d)
	if !ok || T == 0 {
		return nil, fmt.Errorf("%w: time bound t=%v: t/d=%v must be a positive integer below 2^63", ErrStep, t, t/d)
	}
	R, ok := asNatural(r / d)
	if !ok || R == 0 {
		return nil, fmt.Errorf("%w: reward bound r=%v: r/d=%v must be a positive integer below 2^63", ErrStep, r, r/d)
	}
	if float64(n)*float64(R+1) > maxGridCells {
		return nil, fmt.Errorf("%w: reward bound r=%v: grid of %d×%d cells exceeds %d", ErrStep, r, n, R+1, maxGridCells)
	}

	rho := make([]int, n)
	stay := make([]float64, n)
	var active []int
	minRho := R + 1
	for s := 0; s < n; s++ {
		v, ok := asNatural(m.Reward(s))
		if !ok {
			return nil, fmt.Errorf("%w: ρ(%d)=%v", ErrRewards, s, m.Reward(s))
		}
		rho[s] = min(v, R+1)
		if m.ExitRate(s)*d > 1 && !opts.AllowCoarse {
			return nil, fmt.Errorf("%w: d=%v exceeds 1/E(%d)=%v (set AllowCoarse to force)", ErrStep, d, s, 1/m.ExitRate(s))
		}
		stay[s] = 1 - m.ExitRate(s)*d
		if m.ExitRate(s) != 0 || v != 0 {
			active = append(active, s)
			minRho = min(minRho, rho[s])
		}
	}

	// Impulse rewards: an explicit option overrides the model's own
	// impulse matrix. A state reward ρ(s) advances the reward index by
	// ρ(s) per time step (reward ρ(s)·d earned in a step of size d),
	// whereas an impulse ι is a one-off quantity: its index shift is ι/d,
	// which must therefore be integral.
	impulseMat := opts.Impulses
	if impulseMat == nil {
		impulseMat = m.Impulses()
	}
	if impulseMat != nil {
		if impulseMat.Dim() != n {
			return nil, fmt.Errorf("discretise: impulse matrix dimension %d for %d states", impulseMat.Dim(), n)
		}
		var err error
		impulseMat.Each(func(i, j int, v float64) {
			if _, ok := asNatural(v / d); ok || err != nil {
				return
			}
			err = fmt.Errorf("%w: impulse ι(%d,%d)=%v is not a multiple of d=%v", ErrRewards, i, j, v, d)
			if v/d >= math.MaxInt {
				err = fmt.Errorf("%w: impulse ι(%d,%d)=%v: ι/d=%v does not fit an int", ErrStep, i, j, v, v/d)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rates := m.Rates()
	off := make([]int, n+1)
	shift := make([]int, 0, rates.NNZ())
	for s := 0; s < n; s++ {
		cols, _ := rates.RowRange(s)
		for _, c := range cols {
			var k int
			if impulseMat != nil {
				k, _ = asNatural(impulseMat.At(s, c) / d)
			}
			shift = append(shift, rho[s]+min(k, R+1))
		}
		off[s+1] = len(shift)
	}

	if opts.Obs != nil {
		// The scheme's error is O(d) with an unknown constant (no a-priori
		// bound, §4.3), so the step itself is the honest indicative entry.
		opts.Obs.ChargeIndicative("discretise", "step", d)
		opts.Obs.Gauge("discretise.grid").SetMax(float64(n * (R + 1)))
	}
	return &prepared{
		m: m, goal: goal, n: n, T: T, R: R, d: d,
		rho: rho, stay: stay, off: off, shift: shift, active: active, minRho: minRho,
		workers: opts.Workers, grain: recursionGrain,
	}, nil
}

// run executes the backward pass and returns V¹(s, ρ(s)) for every state s.
// The two grids are checked out of pool and back in before it returns.
func (p *prepared) run(pool *sparse.VecPool) []float64 {
	stride := p.R + 1
	cur, next := pool.Get(p.n*stride), pool.Get(p.n*stride)
	// V^T is the goal indicator. Rows of fixed states never change, so
	// writing them into both grids here serves every step.
	p.goal.Each(func(s int) {
		for k := s * stride; k < (s+1)*stride; k++ {
			cur[k], next[k] = 1, 1
		}
	})
	// Level j is only ever read at k ≥ j·m, m = minRho: the values sit at
	// k = ρ(s) of level 1, and each step back adds ρ(s) ≥ m. So the step
	// to level j computes k ≥ j·m only, and levels with j·m > R need none.
	first := p.T - 1
	if p.minRho > 0 {
		first = min(first, p.R/p.minRho)
	}
	for j := first; j >= 1; j-- {
		dst, src, klo := next, cur, j*p.minRho
		cells, workers := len(p.active)*(stride-klo), p.workers
		if cells < p.grain {
			workers = 1
		}
		parallel.For(workers, cells, func(lo, hi int) { p.step(dst, src, klo, lo, hi) })
		cur, next = next, cur
	}
	out := make([]float64, p.n)
	for s := range out {
		if p.rho[s] <= p.R {
			out[s] = cur[s*stride+p.rho[s]]
		}
	}
	pool.Put(cur)
	pool.Put(next)
	return out
}

// step writes dst = one backward step applied to src on the flat cells
// [lo, hi) of the (active state, k ≥ klo) grid. Each cell is the stay term
// plus the edge terms in row order, whichever chunk it falls in, so the
// split never changes a bit.
func (p *prepared) step(dst, src []float64, klo, lo, hi int) {
	stride, width := p.R+1, p.R+1-klo
	rates := p.m.Rates()
	for c := lo; c < hi; {
		s, k0 := p.active[c/width], klo+c%width
		k1 := min(stride, k0+hi-c)
		c += k1 - k0
		base := s*stride + k0
		out := dst[base : base+k1-k0]
		// Cell k reads index k+shift, which is 0 past R: only the cells
		// k < stride−shift read src.
		in := max(0, min(k1, stride-p.rho[s])-k0)
		clear(out[in:])
		if in > 0 {
			x := src[base+p.rho[s] : base+p.rho[s]+in]
			for i, v := range x {
				out[i] = p.stay[s] * v
			}
		}
		cols, vals := rates.RowRange(s)
		for e, t := range cols {
			sh := p.shift[p.off[s]+e]
			in := min(k1, stride-sh) - k0
			if in <= 0 {
				continue
			}
			w, from := vals[e]*p.d, t*stride+sh+k0
			x, o := src[from:from+in], out[:in]
			for i, v := range x {
				o[i] += w * v
			}
		}
	}
}

// reachAll runs the backward pass under the recursion span.
func reachAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) ([]float64, error) {
	p, err := prepare(m, goal, t, r, opts)
	if err != nil {
		return nil, err
	}
	span := opts.Obs.StartSpan("discretise.recursion")
	defer span.End()
	return p.run(opts.Pool), nil
}

// ReachProb computes the Theorem 2 quantity Pr{Y_t ≤ r, X_t ∈ goal}
// starting from the single initial state `from`, by the Tijms–Veldman
// recursion with step opts.D. t and r must be (near-)multiples of d. It
// reads one entry of the backward pass, so it equals ReachProbAll[from]
// bit for bit.
func ReachProb(m *mrm.MRM, goal *mrm.StateSet, t, r float64, from int, opts Options) (float64, error) {
	if from < 0 || from >= m.N() {
		return 0, fmt.Errorf("discretise: initial state %d out of range", from)
	}
	values, err := reachAll(m, goal, t, r, opts)
	if err != nil {
		return 0, err
	}
	opts.Obs.Counter("discretise.sources").Inc()
	return values[from], nil
}

// ReachProbAll computes ReachProb from every state with one backward pass.
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) ([]float64, error) {
	values, err := reachAll(m, goal, t, r, opts)
	if err != nil {
		return nil, err
	}
	opts.Obs.Counter("discretise.sources").Add(int64(m.N()))
	return values, nil
}
