// Package sericola implements the occupation-time distribution algorithm of
// Section 4.4 of the paper, based on B. Sericola, "Occupation times in
// Markov processes", Stochastic Models 16(5), 2000 (Theorem 5.6).
//
// For an MRM with distinct rewards ρ₀ < ρ₁ < … < ρ_m (ρ₀ = 0) it computes
//
//	H_{ij}(t, r) = Pr{Y_t > r, X_t = j | X₀ = i}
//
// for r in the band [ρ_{h−1}·t, ρ_h·t) via uniformisation:
//
//	H(t,r) = Σ_{n≥0} e^{-λt}(λt)ⁿ/n! · Σ_{k=0}^{n} C(n,k) x_h^k (1-x_h)^{n-k} · C(h,n,k)
//
// with x_h = (r − ρ_{h−1}t)/((ρ_h − ρ_{h−1})t) and matrices C(h,n,k)
// defined by a band-wise convex-combination recursion. The matrices satisfy
// 0 ≤ C(h,n,k) ≤ Pⁿ (Sericola, Cor. 5.8), so the inner sum is bounded by 1
// and the Poisson tail yields the a-priori truncation point N_ε — the only
// one of the paper's three procedures with an a-priori error bound.
//
// Theorem 2 of the paper only ever reads the goal-set columns of H, so the
// recursion is carried on n×g slices (g = |goal|) rather than full n×n
// matrices: the up/down sweeps are row-local and the P·C products act
// column-wise, making the restriction exact — entry for entry, the sliced
// path performs the identical arithmetic as the full-width one (see
// Options.FullWidth and the crosscheck suite).
package sericola

import (
	"fmt"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
	"github.com/performability/csrl/internal/transient"
)

// Cache memoises uniformised matrices and Fox–Glynn tables across calls.
// It mirrors transient.Cache structurally, so one concrete implementation
// (internal/core's memo) satisfies both. Nil disables memoisation.
type Cache interface {
	Uniformised(m *mrm.MRM, lambda float64) (*sparse.CSR, error)
	// Poisson returns the Fox–Glynn weight table; like the transient
	// package's Cache it truncates the Poisson tails, and its callers owe
	// the ledger the two tail charges.
	//numerics:truncates foxglynn/left-tail foxglynn/right-tail
	Poisson(q, eps float64) (*numeric.PoissonWeights, error)
	// Absorbing mirrors transient.Cache.Absorbing; the Sericola recursion
	// itself never derives absorbing models, but keeping the method sets
	// identical lets one Cache value flow into the transient fallbacks.
	Absorbing(m *mrm.MRM, set *mrm.StateSet, zeroReward bool) (*mrm.MRM, error)
}

// Options configures the computation.
type Options struct {
	// Epsilon is the a-priori truncation error bound ε (Table 2 sweeps it).
	Epsilon float64
	// Lambda overrides the uniformisation rate (0 = automatic).
	Lambda float64
	// Workers bounds the parallelism of the per-level row passes:
	// 0 = runtime.NumCPU(), 1 = the exact sequential legacy path. The
	// recursion is partitioned by matrix row, and every row's arithmetic
	// runs in the sequential order, so results are bitwise independent of
	// Workers.
	Workers int
	// FullWidth forces the recursion to carry all n columns instead of only
	// the g goal columns. The sliced default performs the identical
	// arithmetic on the goal columns, so results are bitwise equal; the
	// knob exists for that crosscheck and for the perfbench contrast, not
	// for production use.
	FullWidth bool
	// SteadyDetect is forwarded to the transient fallback taken when the
	// reward bound is vacuous (see transient.Options.SteadyDetect); the
	// C(h,n,k) recursion itself always runs to its a-priori truncation
	// point N_ε.
	SteadyDetect transient.SteadyMode
	// Truncate is forwarded to the transient fallback (see
	// transient.Options.Truncate). It only takes effect on forward sweeps
	// there; the vacuous-bound leg here is a backward sweep and the
	// C(h,n,k) recursion carries conditional distributions whose columns
	// cannot be dropped independently, so neither truncates today. The
	// field keeps the checker's option plumbing uniform.
	Truncate float64
	// Cache, when non-nil, memoises the uniformised matrix and the
	// Poisson weight table.
	Cache Cache
	// Pool, when non-nil, supplies the recursion's slab and n×g
	// accumulators and the scratch of the transient fallback. All of them
	// are checked back in before ReachProbAll returns; the result vector is
	// a plain allocation owned by the caller.
	Pool *sparse.VecPool
	// Obs, when non-nil, receives the numerics-observability signals: the
	// Poisson series remainder past N_ε in the error-budget ledger, the
	// clamp residue as an indicative entry, the level, band and slab-size
	// gauges and the recursion span. It is forwarded to the transient
	// fallback.
	Obs *obs.Recorder
}

// DefaultOptions matches the most accurate row of Table 2.
func DefaultOptions() Options { return Options{Epsilon: 1e-8} }

// clampTol is the symmetric tolerance for floating-point cancellation in
// the final goal-column sums: values inside [−clampTol, 0) and
// (1, 1+clampTol] are clamped to the nearest bound, values further outside
// [0,1] are reported as a numerical failure instead of silently returned.
const clampTol = 1e-9

// Result carries the reachability values and the number of uniformisation
// steps N that were needed (column "N" of Table 2).
type Result struct {
	// Values[i] = Pr{Y_t ≤ r, X_t ∈ goal | X₀ = i}.
	Values []float64
	// N is the truncation point N_ε of the uniformisation series.
	N int
}

// ReachProbAll computes Pr{Y_t ≤ r, X_t ∈ goal | X₀ = i} for every state i,
// the quantity required by Theorem 2 of the paper. It is the batch of one:
// see ReachProbBatch for several reward bounds sharing one recursion.
//
//numerics:domain t=rate r=rate
func ReachProbAll(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (*Result, error) {
	res, err := ReachProbBatch(m, goal, t, []float64{r}, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// target is one reward bound's coordinates in the recursion: the band h
// with rShift ∈ [ρ_{h−1}t, ρ_h t) and the position x inside it. The
// C(h,n,k) recursion itself never reads r — bounds differ only in which
// band's matrices they read and in their binomial accumulation weights —
// which is exactly why a batch shares one recursion pass.
type target struct {
	h int
	x float64
}

// ReachProbBatch computes ReachProbAll for several reward bounds rs that
// share the model, goal set and time bound t, advancing all of them
// through a single C(h,n,k) recursion: the level matrices and the
// Poisson-weighted transient term are computed once, and each bound only
// adds its own binomial-weighted accumulation. When every bound lands on
// the same leg — all banded, or all vacuous — results[ri] is bitwise
// equal to ReachProbAll(m, goal, t, rs[ri], opts): the per-bound
// accumulators add the identical terms in the identical order, at a
// recursion cost of one instead of len(rs). A mixed batch runs both the
// transient sweep and the recursion, so the ε budget is split half per
// leg (see splitBudget); every result still meets the ε contract, at
// slightly tighter truncation points than the unbatched calls would use.
// Degenerate bounds (certainly exceeded, or vacuous against the maximal
// accumulable reward) are resolved without touching the recursion;
// vacuous bounds share one transient sweep.
//
//numerics:domain t=rate rs=rate
func ReachProbBatch(m *mrm.MRM, goal *mrm.StateSet, t float64, rs []float64, opts Options) ([]*Result, error) {
	return reachProbBatch(m, goal, t, rs, opts, (*recursion).run)
}

// reachProbBatch is ReachProbBatch with the recursion's implementation as
// a parameter, so the tests can run the same pipeline on their reference.
//
//numerics:domain t=rate rs=rate
func reachProbBatch(m *mrm.MRM, goal *mrm.StateSet, t float64, rs []float64, opts Options, run func(*recursion) ([][]float64, []float64)) ([]*Result, error) {
	if opts.Epsilon <= 0 {
		opts.Epsilon = DefaultOptions().Epsilon
	}
	n := m.N()
	if goal.Universe() != n {
		return nil, fmt.Errorf("sericola: goal universe %d for %d states", goal.Universe(), n)
	}
	if m.HasImpulses() {
		return nil, fmt.Errorf("sericola: %w", mrm.ErrImpulsesUnsupported)
	}
	for _, r := range rs {
		if t < 0 || r < 0 {
			return nil, fmt.Errorf("sericola: negative bound t=%v r=%v", t, r)
		}
	}
	if t < 0 {
		return nil, fmt.Errorf("sericola: negative bound t=%v", t)
	}
	results := make([]*Result, len(rs))
	if len(rs) == 0 {
		return results, nil
	}
	if t == 0 {
		// Y_0 = 0 ≤ r; the chain has not moved.
		for ri := range rs {
			res := &Result{Values: make([]float64, n)}
			goal.Each(func(i int) { res.Values[i] = 1 })
			results[ri] = res
		}
		return results, nil
	}

	// Shift rewards so that the smallest reward is 0 (the theorem requires
	// ρ₀ = 0): Y_t = ρ_min·t + Y'_t deterministically.
	rewards := m.DistinctRewards()
	rhoMin := rewards[0]
	shifted := make([]float64, len(rewards))
	for i, v := range rewards {
		shifted[i] = v - rhoMin
	}
	mBands := len(shifted) - 1 // shifted[0] = 0 = ρ₀

	lambda := opts.Lambda
	if lambda == 0 {
		lambda = m.UniformisationRate()
	}

	// Classify every bound: certainly exceeded (zero result), vacuous
	// (plain transient analysis) or banded (a recursion target).
	var targets []target
	var tgtResult []int // tgtResult[ti] = index into results
	var vacuous []int
	for ri, r := range rs {
		rShift := r - rhoMin*t
		switch {
		case rShift < 0:
			// The accumulated reward exceeds r with certainty.
			results[ri] = &Result{Values: make([]float64, n)}
		case mBands == 0 || rShift >= shifted[mBands]*t:
			// Either all rewards are equal (Y_t = ρ·t ≤ r guaranteed by the
			// rShift check above) or the bound exceeds the maximal
			// accumulable reward: the reward constraint is vacuous and a
			// plain transient analysis suffices.
			vacuous = append(vacuous, ri)
		default:
			// Locate the band h with rShift ∈ [ρ_{h-1}t, ρ_h t).
			h := 1
			for shifted[h]*t <= rShift {
				h++
			}
			x := (rShift - shifted[h-1]*t) / ((shifted[h] - shifted[h-1]) * t)
			targets = append(targets, target{h: h, x: x})
			tgtResult = append(tgtResult, ri)
		}
	}
	sweepEps, bandEps := splitBudget(opts.Epsilon, len(vacuous), len(targets))
	if len(vacuous) > 0 {
		// One backward sweep serves every vacuous bound; each Result owns
		// its Values, so later entries get copies.
		vals, err := transientGoal(m, goal, t, lambda, sweepEps, opts)
		if err != nil {
			return nil, err
		}
		for vi, ri := range vacuous {
			if vi == 0 {
				results[ri] = &Result{Values: vals}
				continue
			}
			cp := make([]float64, n)
			copy(cp, vals)
			results[ri] = &Result{Values: cp}
		}
	}
	if len(targets) == 0 {
		return results, nil
	}

	nSteps, err := numeric.PoissonTruncation(lambda*t, bandEps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}

	var p *sparse.CSR
	if opts.Cache != nil {
		p, err = opts.Cache.Uniformised(m, lambda)
	} else {
		p, err = m.Uniformised(lambda)
	}
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}

	// Per-state shifted rewards and band classification.
	rho := make([]float64, n)
	for s := 0; s < n; s++ {
		rho[s] = m.Reward(s) - rhoMin
	}

	// Poisson and binomial pmf terms come from internal/numeric's log-space
	// helpers (see the expunderflow analyzer): level ≤ nSteps and k ≤ level
	// bound both table sizes.
	poisPMF, err := numeric.PoissonPMFTable(lambda*t, nSteps)
	if err != nil {
		return nil, fmt.Errorf("sericola: %w", err)
	}
	lf := numeric.LogFactorials(nSteps)

	if opts.Obs != nil {
		// The a-priori bound guarantees the mass past N_ε is below ε; the
		// ledger records the actual series remainder 1 − Σ_{n≤N} pois(n),
		// which the inner sums (bounded by 1, Cor. 5.8) cannot exceed. The
		// batch runs the truncated series once, so it charges once.
		var kept float64
		for k := 0; k <= nSteps; k++ {
			kept += poisPMF(k)
		}
		rem := 1 - kept
		if rem < 0 {
			rem = 0
		}
		opts.Obs.Charge("sericola", "series-remainder", rem)
		opts.Obs.Gauge("sericola.levels").SetMax(float64(nSteps))
		opts.Obs.Gauge("sericola.bands").SetMax(float64(mBands))
	}

	// Goal-column slicing: the recursion only needs the columns Theorem 2
	// reads. FullWidth carries every column for the bitwise crosscheck.
	goalIdx := goal.Slice()
	cols := goalIdx
	if opts.FullWidth {
		cols = make([]int, n)
		for i := range cols {
			cols[i] = i
		}
	}
	g := len(cols)
	opts.Obs.Gauge("sericola.slab_bytes").SetMax(float64(8 * slabLen(n, g, mBands, nSteps)))

	span := opts.Obs.StartSpan("sericola.recursion")
	hMats, tMat := run(&recursion{
		p: p, rho: rho, bands: shifted, targets: targets,
		poisPMF: poisPMF, lf: lf, nSteps: nSteps,
		workers: opts.Workers, grain: runGrain, cols: cols, pool: opts.Pool,
	})
	span.End()
	putAll := func() {
		for _, hm := range hMats {
			opts.Pool.Put(hm)
		}
		opts.Pool.Put(tMat)
	}

	for ti := range targets {
		hMat := hMats[ti]
		res := &Result{Values: make([]float64, n), N: nSteps}
		var clampResidue float64
		for i := 0; i < n; i++ {
			var v float64
			for j, col := range cols {
				// In sliced mode every carried column is a goal column; in
				// full-width mode restrict the sum to them, in the same
				// ascending order, so both paths add the identical terms.
				if opts.FullWidth && !goal.Contains(col) {
					continue
				}
				v += tMat[i*g+j] - hMat[i*g+j]
			}
			// Floating-point cancellation can land slightly outside [0,1] on
			// either side; clamp symmetrically within clampTol and refuse to
			// return silently wrong probabilities beyond it.
			switch {
			case v < 0:
				if v < -clampTol {
					putAll()
					return nil, fmt.Errorf("sericola: value %g at state %d is below 0 beyond the %g cancellation tolerance", v, i, clampTol)
				}
				if -v > clampResidue {
					clampResidue = -v
				}
				v = 0
			case v > 1:
				if v > 1+clampTol {
					putAll()
					return nil, fmt.Errorf("sericola: value %g at state %d exceeds 1 beyond the %g cancellation tolerance", v, i, clampTol)
				}
				if v-1 > clampResidue {
					clampResidue = v - 1
				}
				v = 1
			}
			res.Values[i] = v
		}
		if opts.Obs != nil && clampResidue > 0 {
			// Cancellation noise absorbed by the [0,1] clamp — a measured
			// round-off magnitude, not a provable truncation bound, so it
			// rides in the indicative section, one entry per bound exactly
			// as the unbatched calls would charge.
			opts.Obs.ChargeIndicative("sericola", "clamp-residue", clampResidue)
		}
		results[tgtResult[ti]] = res
	}
	putAll()
	return results, nil
}

// ReachProb computes the Theorem 2 quantity from the model's initial
// distribution.
//
//numerics:domain prob t=rate r=rate
func ReachProb(m *mrm.MRM, goal *mrm.StateSet, t, r float64, opts Options) (float64, int, error) {
	res, err := ReachProbAll(m, goal, t, r, opts)
	if err != nil {
		return 0, 0, err
	}
	var v float64
	for s, p := range m.InitView() {
		v += p * res.Values[s]
	}
	return v, res.N, nil
}

// runGrain is the minimum per-level work, in multiply-adds — bands ×
// level × (nnz + n) × g, the row products plus the sweeps — before a
// level's row pass fans out across workers. Early levels stay on the
// caller; on the reduced cluster models all but the first few levels fan
// out, even at g = 1.
const runGrain = 1 << 15

// slabLen is the length of the pooled slab that holds the recursion's
// banks: Pⁿ and its successor (n×g each) and two C banks of one
// n×(N+1)×g block per band.
func slabLen(n, g, mBands, nSteps int) int {
	return 2*n*g + 2*mBands*n*(nSteps+1)*g
}

// recursion bundles the inputs of one C(h,n,k) run.
type recursion struct {
	p       *sparse.CSR
	rho     []float64 // per-state shifted rewards
	bands   []float64 // shifted distinct rewards, bands[0] = 0
	targets []target
	// poisPMF and lf are the precomputed Poisson pmf and log-factorial
	// tables covering 0..nSteps.
	poisPMF func(int) float64
	lf      []float64
	nSteps  int
	workers int
	// grain is the per-level work below which a level runs on the caller
	// (runGrain in production).
	grain int
	cols  []int
	pool  *sparse.VecPool
}

// run executes the C(h,n,k) recursion restricted to the column set cols
// and returns (per-target H matrices, Pois-weighted transient matrix), all
// flattened row-major n×g with column j holding original column cols[j].
//
// Layout: each band's level matrices live in one n×(N+1)×g block, phase k
// contiguous within a row — C(h,n,k)[i, cols[j]] sits at i·(N+1)·g + k·g
// + j of band h's block. Two banks of m blocks hold the previous and the
// current level and swap per level, so the whole recursion lives in one
// pooled slab of slabLen floats.
//
// Each level is one pass over the rows. Row i reads its CSR entries once
// per band and forms the products (P·C(h,n−1,k))[i,·] for every k < n at
// once, straight into the current bank's row: at phases k+1 if the row is
// up in band h (the up-sweep reads P·C(h,n−1,k−1) at phase k), at phases
// k otherwise (the down-sweep reads P·C(h,n−1,k) at phase k). Every
// product is zeroed and then accumulated in stored-entry order, the
// arithmetic of MulVec per carried column, and each sweep step overwrites
// the product it consumes. Pⁿ advances in the same way.
//
// Batching: the level matrices cover every band h, so they are
// target-independent — a target only selects which band it reads and the
// binomial row binoms[ti] it weights the read with. Each additional target
// therefore costs one extra n×g accumulator and one binomial row per
// level, while the recursion itself (the dominant O(m·N²·nnz) row
// products) runs once for the whole batch. For each target the
// accumulation performs the identical floating-point operations in the
// identical order as a single-target run, so batch results are bitwise
// equal to unbatched ones.
//
// Column slicing is exact: every operation — the row products, the Pⁿ
// update, the up/down convex-combination sweeps and the hMat/tMat
// accumulation — computes entry (i,j) from column-j entries only, so
// restricting to the goal columns performs, entry for entry, the identical
// floating-point operations in the identical order as the full-width
// recursion.
//
// Concurrency: a level is row-independent. Row i's products read only the
// previous bank and Pⁿ⁻¹ (immutable within the level), and its sweeps read
// only row i: the up-sweep base C(h,n,0) = C(h−1,n,n), and up(h,i) ⇒
// up(h−1,i) guarantees that value was produced by this row's own
// band-(h−1) up-sweep; dually the down-sweep base C(h,n,n) = C(h+1,n,0)
// comes from this row's band-(h+1) down-sweep via ¬up(h,i) ⇒ ¬up(h+1,i).
// The hMat/tMat accumulation is row-local too, so a level is one
// parallel.For over rows, with every row computed in the sequential order
// — results are bitwise identical for every workers value. A level fans
// out once its work reaches grain.
//
// Allocation: the slab and the returned matrices are checked out of pool
// (nil-safe) by the goroutine that runs the level loop, never inside the
// parallel region. The slab is checked back in before run returns; only
// hMats/tMat stay checked out, and ReachProbBatch returns those after
// summing.
func (rc *recursion) run() (hMats [][]float64, tMat []float64) {
	p, rho, bands, targets, cols := rc.p, rc.rho, rc.bands, rc.targets, rc.cols
	n := p.Dim()
	g := len(cols)
	mBands := len(bands) - 1
	nSteps := rc.nSteps
	stride := (nSteps + 1) * g // one row of a band block
	blk := n * stride          // one band block

	// top[i] is the highest band h with up(h, i) ⇔ ρ_i ≥ ρ_h, 0 if none.
	// Bands are consecutive distinct rewards, so up(h, i) ⇔ h ≤ top[i] and
	// ¬up(h, i) ⇔ ρ_i ≤ ρ_{h−1}.
	top := make([]int, n)
	for i := range top {
		for top[i] < mBands && rho[i] >= bands[top[i]+1] {
			top[i]++
		}
	}

	slab := rc.pool.Get(slabLen(n, g, mBands, nSteps))
	sz := n * g
	pn, pnNext := slab[:sz:sz], slab[sz:2*sz:2*sz]
	bankLen := mBands * blk
	cur := slab[2*sz : 2*sz+bankLen : 2*sz+bankLen]
	prev := slab[2*sz+bankLen:]
	// band returns row i of band h's block in bank b, phases 0..N.
	band := func(b []float64, h, i int) []float64 {
		off := (h-1)*blk + i*stride
		return b[off : off+stride : off+stride]
	}

	hMats = make([][]float64, len(targets))
	for ti := range hMats {
		hMats[ti] = rc.pool.Get(sz)
	}
	tMat = rc.pool.Get(sz)

	// Binomial pmf rows of the current level, one per target, recomputed
	// before each level's parallel region (read-only inside it).
	binoms := make([][]float64, len(targets))
	for ti := range binoms {
		binoms[ti] = make([]float64, nSteps+1)
	}

	var (
		level int
		w     float64
	)
	// accumulate adds row i of level `level` into tMat and every target's
	// hMat: Pⁿ from pnRow, the C matrices from the current bank, phases in
	// increasing order.
	accumulate := func(i int, pnRow []float64) {
		tRow := tMat[i*g : (i+1)*g]
		for j := range tRow {
			tRow[j] += w * pnRow[j]
		}
		for ti, tg := range targets {
			row := band(cur, tg.h, i)
			hRow := hMats[ti][i*g : (i+1)*g]
			if g == 1 {
				// The running sum is carried in a register; same additions.
				s := hRow[0]
				for k, bw := range binoms[ti][:level+1] {
					if bw == 0 {
						continue
					}
					s += w * bw * row[k]
				}
				hRow[0] = s
				continue
			}
			for k := 0; k <= level; k++ {
				bw := binoms[ti][k]
				if bw == 0 {
					continue
				}
				c := row[k*g : (k+1)*g]
				f := w * bw
				for j := range hRow {
					hRow[j] += f * c[j]
				}
			}
		}
	}

	// Level n = 0: P⁰[i, cols[j]] = 1 iff i = cols[j], and C(h,0,0) =
	// diag(1{up(h,i)}) on the carried columns.
	for j, col := range cols {
		pn[col*g+j] = 1
		for h := 1; h <= top[col]; h++ {
			band(cur, h, col)[j] = 1
		}
	}
	if w = rc.poisPMF(0); w != 0 {
		for ti, tg := range targets {
			numeric.BinomialRow(rc.lf, 0, tg.x, binoms[ti])
		}
		for i := 0; i < n; i++ {
			accumulate(i, pn[i*g:(i+1)*g])
		}
	}

	// The per-level body is hoisted out of the level loop (level, w and the
	// banks are captured by reference) so the loop does not allocate a
	// fresh closure per level.
	levelBody := func(lo, hi int) {
		width := level * g // phases 0..level−1 of a row
		for i := lo; i < hi; i++ {
			idx, vals := p.RowRange(i)
			pnRow := pnNext[i*g : (i+1)*g]
			mulRow(pnRow, pn, idx, vals, g)
			// Up-rows: increasing h, increasing k.
			for h := 1; h <= top[i]; h++ {
				row := band(cur, h, i)
				mulRow(row[g:g+width], prev[(h-1)*blk:h*blk], idx, vals, stride)
				if h == 1 {
					copy(row[:g], pnRow)
				} else {
					copy(row[:g], band(cur, h-1, i)[width:width+g])
				}
				a := (rho[i] - bands[h]) / (rho[i] - bands[h-1])
				b := (bands[h] - bands[h-1]) / (rho[i] - bands[h-1])
				sweepUp(row[:width+g], g, a, b)
			}
			// Down-rows: decreasing h, decreasing k. The base phase is
			// C(h+1,n,0), or 0 in the top band: there phase n of the
			// current bank is still zero, since the bank last held level
			// n−2 and the slab comes zeroed.
			for h := mBands; h > top[i]; h-- {
				row := band(cur, h, i)
				mulRow(row[:width], prev[(h-1)*blk:h*blk], idx, vals, stride)
				if h < mBands {
					copy(row[width:width+g], band(cur, h+1, i)[:g])
				}
				a := (bands[h-1] - rho[i]) / (bands[h] - rho[i])
				b := (bands[h] - bands[h-1]) / (bands[h] - rho[i])
				sweepDown(row[:width+g], g, a, b)
			}
			if w != 0 {
				accumulate(i, pnRow)
			}
		}
	}

	work := mBands * (p.NNZ() + n) * g
	for level = 1; level <= nSteps; level++ {
		prev, cur = cur, prev
		w = rc.poisPMF(level)
		if w != 0 {
			for ti, tg := range targets {
				numeric.BinomialRow(rc.lf, level, tg.x, binoms[ti])
			}
		}
		workers := rc.workers
		if level*work < rc.grain {
			workers = 1
		}
		parallel.For(workers, n, levelBody)
		pn, pnNext = pnNext, pn
	}
	rc.pool.Put(slab)
	return hMats, tMat
}

// sweepUp runs the up-sweep C(h,n,k) = a·C(h,n,k−1) + b·(P·C(h,n−1,k−1))
// over a row's phases 1..len(row)/g−1, each of which holds its product on
// entry. At g = 1 the previous phase is carried in a register; the
// arithmetic is the same.
func sweepUp(row []float64, g int, a, b float64) {
	if g == 1 {
		c := row[0]
		for x := 1; x < len(row); x++ {
			c = a*c + b*row[x]
			row[x] = c
		}
		return
	}
	for x := g; x < len(row); x++ {
		row[x] = a*row[x-g] + b*row[x]
	}
}

// sweepDown runs the down-sweep C(h,n,k) = a·C(h,n,k+1) + b·(P·C(h,n−1,k))
// over a row's phases len(row)/g−2..0, each of which holds its product on
// entry, in decreasing order.
func sweepDown(row []float64, g int, a, b float64) {
	if g == 1 {
		c := row[len(row)-1]
		for x := len(row) - 2; x >= 0; x-- {
			c = a*c + b*row[x]
			row[x] = c
		}
		return
	}
	for x := len(row) - g - 1; x >= 0; x-- {
		row[x] = a*row[x+g] + b*row[x]
	}
}

// mulRow sets dst to Σ_e vals[e]·src[idx[e]·stride:][:len(dst)] — one row
// of a sparse product against the len(dst) leading entries of src's
// stride-spaced rows. dst is zeroed first and accumulated in stored-entry
// order: per destination entry, the arithmetic of MulVec's register
// accumulation, since 0 + x = x exactly. Entries are taken four, two and
// one at a time; within a group the additions still run one entry after
// the other, so grouping only saves loads and stores of dst.
func mulRow(dst, src []float64, idx []int, vals []float64, stride int) {
	clear(dst)
	n := len(dst)
	e := 0
	for ; e+4 <= len(idx); e += 4 {
		v0, v1, v2, v3 := vals[e], vals[e+1], vals[e+2], vals[e+3]
		s0 := src[idx[e]*stride:][:n]
		s1 := src[idx[e+1]*stride:][:n]
		s2 := src[idx[e+2]*stride:][:n]
		s3 := src[idx[e+3]*stride:][:n]
		for x := range dst {
			dst[x] = dst[x] + v0*s0[x] + v1*s1[x] + v2*s2[x] + v3*s3[x]
		}
	}
	if e+2 <= len(idx) {
		v0, v1 := vals[e], vals[e+1]
		s0 := src[idx[e]*stride:][:n]
		s1 := src[idx[e+1]*stride:][:n]
		for x := range dst {
			dst[x] = dst[x] + v0*s0[x] + v1*s1[x]
		}
		e += 2
	}
	if e < len(idx) {
		v := vals[e]
		s := src[idx[e]*stride:][:n]
		for x := range dst {
			dst[x] += v * s[x]
		}
	}
}

// splitBudget divides the ε budget between the two truncating legs of a
// batch: the transient sweep serving the vacuous bounds and the banded
// C(h,n,k) recursion. A leg that runs alone keeps the whole budget, so a
// batch of one is bitwise-identical to the unbatched call; a mixed batch
// gives each leg ε/2 (the same split discipline as the Fox–Glynn/steady
// division in internal/transient), keeping every path's total spend at ε.
func splitBudget(eps float64, nVacuous, nBanded int) (sweepEps, bandEps float64) {
	if nVacuous == 0 {
		return 0, eps
	}
	if nBanded == 0 {
		return eps, 0
	}
	return eps / 2, eps / 2
}

// transientGoal returns Σ_{j∈goal} Pr_i{X_t = j} for all i by one backward
// uniformisation sweep — the degenerate case where the reward bound is
// vacuous. It delegates to internal/transient, which brings steady-state
// detection and pooled scratch along for free.
func transientGoal(m *mrm.MRM, goal *mrm.StateSet, t, lambda, eps float64, opts Options) ([]float64, error) {
	topts := transient.Options{
		Epsilon:      eps,
		Lambda:       lambda,
		Workers:      opts.Workers,
		SteadyDetect: opts.SteadyDetect,
		Truncate:     opts.Truncate,
		Pool:         opts.Pool,
		Obs:          opts.Obs,
		// Cache's method set is identical to transient.Cache's, so the
		// interface value converts directly; nil stays nil.
		Cache: opts.Cache,
	}
	vals, err := transient.BackwardWeighted(m, goal.Indicator(), t, topts)
	if err != nil {
		return nil, err
	}
	// BackwardWeighted hands back a pool-borrowed buffer, but Options.Pool
	// documents the result vector as a plain allocation owned by the
	// caller — copy out and check the borrowed buffer back in.
	out := make([]float64, len(vals))
	copy(out, vals)
	opts.Pool.Put(vals)
	return out, nil
}
