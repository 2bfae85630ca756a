package discretise

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// oracleTol is the agreement the backward pass must keep with the forward
// oracle: the two sum the same products in a different order.
const oracleTol = 1e-13

// diffCase is one differential case: a model, a goal set, the bounds and
// the options of the pass.
type diffCase struct {
	m    *mrm.MRM
	goal *mrm.StateSet
	t, r float64
	opts Options
}

// check runs the pass and compares every source against the forward
// oracle. It also requires ReachProb to read the same bits as ReachProbAll
// and a pass forced to fan out over 2 and 3 workers, whatever the grain,
// to match the sequential one bit for bit.
func (dc diffCase) check() error {
	all, err := ReachProbAll(dc.m, dc.goal, dc.t, dc.r, dc.opts)
	if err != nil {
		return err
	}
	for s, v := range all {
		ref, err := referenceForward(dc.m, dc.goal, dc.t, dc.r, s, dc.opts)
		if err != nil {
			return fmt.Errorf("oracle: %v", err)
		}
		if math.Abs(v-ref) > oracleTol {
			return fmt.Errorf("source %d: backward %.17g, forward %.17g (diff %g)", s, v, ref, v-ref)
		}
		one, err := ReachProb(dc.m, dc.goal, dc.t, dc.r, s, dc.opts)
		if err != nil {
			return err
		}
		if math.Float64bits(one) != math.Float64bits(v) {
			return fmt.Errorf("source %d: ReachProb %v, ReachProbAll %v", s, one, v)
		}
	}
	p, err := prepare(dc.m, dc.goal, dc.t, dc.r, dc.opts)
	if err != nil {
		return err
	}
	p.grain = 0
	for _, w := range []int{1, 2, 3} {
		p.workers = w
		for s, v := range p.run(nil) {
			if math.Float64bits(v) != math.Float64bits(all[s]) {
				return fmt.Errorf("workers=%d: source %d: %v, want %v", w, s, v, all[s])
			}
		}
	}
	return nil
}

// randomCase draws a natural-reward MRM of 2–8 states with rewards 0–3,
// up to three out-edges per state (so some states are absorbing, some of
// them with positive reward), impulses on about a third of the edges, a
// random goal set and bounds on the grid of d.
func randomCase(rng *rand.Rand) diffCase {
	n := 2 + rng.Intn(7)
	d := []float64{1.0 / 16, 1.0 / 32}[rng.Intn(2)]
	b := mrm.NewBuilder(n)
	goal := mrm.NewStateSet(n)
	for s := 0; s < n; s++ {
		b.Reward(s, float64(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			goal.Add(s)
		}
		for e := rng.Intn(4); e > 0; e-- {
			to := rng.Intn(n)
			if to == s {
				continue
			}
			b.Rate(s, to, 0.25*float64(1+rng.Intn(8)))
			if rng.Intn(3) == 0 {
				b.Impulse(s, to, d*float64(1+rng.Intn(8)))
			}
		}
	}
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return diffCase{
		m: m, goal: goal,
		t:    []float64{0.5, 1, 1.5}[rng.Intn(3)],
		r:    []float64{0.5, 1, 2, 3}[rng.Intn(4)],
		opts: Options{D: d},
	}
}

func TestBackwardMatchesForwardOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var impulses, absorbingRewarded int
	for i := 0; i < 60; i++ {
		dc := randomCase(rng)
		if dc.m.HasImpulses() {
			impulses++
		}
		for s := 0; s < dc.m.N(); s++ {
			if dc.m.IsAbsorbing(s) && dc.m.Reward(s) > 0 {
				absorbingRewarded++
			}
		}
		if err := dc.check(); err != nil {
			t.Fatalf("case %d (n=%d t=%v r=%v d=%v): %v", i, dc.m.N(), dc.t, dc.r, dc.opts.D, err)
		}
	}
	if impulses == 0 || absorbingRewarded == 0 {
		t.Fatalf("draws miss a feature: %d impulse models, %d rewarded absorbing states", impulses, absorbingRewarded)
	}
}

// chain is 0 → 1 → 2 with rates 2 and 1, rewards rho and state 2 the goal.
func chain(t *testing.T, rho [3]float64, imp float64) *mrm.MRM {
	t.Helper()
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 2).Rate(1, 2, 1)
	for s, v := range rho {
		b.Reward(s, v)
	}
	if imp != 0 {
		b.Impulse(1, 2, imp)
	}
	b.Label(2, "goal")
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBackwardEdgeCases(t *testing.T) {
	const d = 1.0 / 32
	t.Run("source reward above bound", func(t *testing.T) {
		// R = 16 < ρ(0) = 20: the first step already exceeds the bound.
		m := chain(t, [3]float64{20, 1, 0}, 0.25)
		dc := diffCase{m: m, goal: m.Label("goal"), t: 1, r: 0.5, opts: Options{D: d}}
		if err := dc.check(); err != nil {
			t.Fatal(err)
		}
		all, _ := ReachProbAll(m, dc.goal, 1, 0.5, dc.opts)
		if all[0] != 0 || all[1] <= 0 {
			t.Fatalf("values %v: want 0 from state 0 and a positive value from state 1", all)
		}
	})
	t.Run("absorbing goal with reward", func(t *testing.T) {
		// The goal earns reward while it absorbs, so its row is not fixed:
		// from it the value is 1 while t·ρ fits the bound and 0 after.
		m := chain(t, [3]float64{1, 1, 1}, 0)
		goal := m.Label("goal")
		for _, c := range []struct{ r, want float64 }{{2, 1}, {0.5, 0}} {
			dc := diffCase{m: m, goal: goal, t: 1, r: c.r, opts: Options{D: d}}
			if err := dc.check(); err != nil {
				t.Fatal(err)
			}
			all, _ := ReachProbAll(m, goal, 1, c.r, dc.opts)
			if all[2] != c.want {
				t.Fatalf("r=%v: value from the goal %v, want %v", c.r, all[2], c.want)
			}
		}
		p, err := prepare(m, goal, 1, 2, Options{D: d})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.active) != 3 {
			t.Fatalf("active states %v: the rewarded absorbing goal must be recomputed", p.active)
		}
	})
	t.Run("empty goal", func(t *testing.T) {
		m := chain(t, [3]float64{1, 2, 0}, 0.5)
		dc := diffCase{m: m, goal: mrm.NewStateSet(3), t: 1, r: 2, opts: Options{D: d}}
		if err := dc.check(); err != nil {
			t.Fatal(err)
		}
		all, _ := ReachProbAll(m, dc.goal, 1, 2, dc.opts)
		for s, v := range all {
			if v != 0 {
				t.Fatalf("state %d: %v, want 0", s, v)
			}
		}
	})
	t.Run("impulse override", func(t *testing.T) {
		m := chain(t, [3]float64{1, 2, 0}, 0)
		imp, err := sparse.NewFromTriplets(3, []sparse.Triplet{{Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 2, Val: 0.25}})
		if err != nil {
			t.Fatal(err)
		}
		dc := diffCase{m: m, goal: m.Label("goal"), t: 1.5, r: 2, opts: Options{D: d, Impulses: imp}}
		if err := dc.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// q3Case is station Q3 on the Theorem 1-reduced model, as the checker's
// discretise procedure runs it.
func q3Case(tb testing.TB, d float64) diffCase {
	tb.Helper()
	red, err := adhoc.Q3Reduced()
	if err != nil {
		tb.Fatal(err)
	}
	goal := mrm.NewStateSetOf(red.Model.N(), red.Goal)
	return diffCase{m: red.Model, goal: goal, t: adhoc.Q3TimeBound, r: adhoc.Q3RewardBound, opts: Options{D: d}}
}

func TestBackwardMatchesForwardStationQ3(t *testing.T) {
	if testing.Short() {
		t.Skip("forward oracle over every source of the station grid")
	}
	for _, d := range []float64{0.04, 0.03125} {
		if err := q3Case(t, d).check(); err != nil {
			t.Fatalf("d=%v: %v", d, err)
		}
	}
}

// TestOverflowRefused pins the refusals of bounds whose grid indices do
// not fit an int or whose grid cannot be allocated: each is an ErrStep
// naming the bound, returned before any grid exists.
func TestOverflowRefused(t *testing.T) {
	q3 := q3Case(t, 0.04)
	m := chain(t, [3]float64{1, 1, 0}, 1e30)
	goal := m.Label("goal")
	for _, c := range []struct {
		name    string
		m       *mrm.MRM
		goal    *mrm.StateSet
		t, r, d float64
		names   string
	}{
		{"step 1e-20", q3.m, q3.goal, 24, 600, 1e-20, "t=24"},
		{"time bound 1e18", q3.m, q3.goal, 1e18, 600, 0.04, "t=1e+18"},
		{"reward bound 1e30", q3.m, q3.goal, 1, 1e30, 1.0 / 64, "r=1e+30"},
		{"grid too large", q3.m, q3.goal, 1, 1e15, 1.0 / 64, "r=1e+15"},
		{"impulse 1e30", m, goal, 1, 1, 1.0 / 64, "ι(1,2)"},
	} {
		_, err := ReachProbAll(c.m, c.goal, c.t, c.r, Options{D: c.d})
		if !errors.Is(err, ErrStep) {
			t.Errorf("%s: %v, want ErrStep", c.name, err)
			continue
		}
		if !strings.Contains(err.Error(), c.names) {
			t.Errorf("%s: %q does not name %s", c.name, err, c.names)
		}
	}
	if _, err := ReachProbAll(q3.m, q3.goal, math.NaN(), 600, Options{D: 0.04}); err == nil {
		t.Error("NaN time bound accepted")
	}
	if _, err := ReachProbAll(q3.m, q3.goal, 24, 600, Options{D: math.NaN()}); !errors.Is(err, ErrStep) {
		t.Errorf("NaN step: %v", err)
	}
}

// FuzzBackward decodes bytes into a small MRM with impulses, a goal set,
// bounds and a step, and requires either a typed error (ErrStep or
// ErrRewards) or per-source values in [0, 1] that agree with the forward
// oracle within oracleTol. The bound and step tables include values whose
// quotients overflow an int, so the refusals are fuzzed too; every table
// combination either is refused or stays a small grid.
func FuzzBackward(f *testing.F) {
	f.Add([]byte{3, 0x04, 0x02, 0x03, 1, 1, 0, 0, 1, 3, 1, 2, 0x13})
	f.Add([]byte{5, 0x10, 0x0a, 0x0c, 1, 2, 0, 3, 0, 0, 1, 7, 1, 2, 0x2b, 2, 3, 0x09, 3, 4, 1, 1, 0, 5})
	// The repros: station-sized model at d = 1e-20 (T and R overflow),
	// t = 1e18 at d = 0.04 (T wrapped negative and ran no step) and
	// r = 1e30 (R overflowed in makeslice).
	f.Add([]byte{5, 0x10, 0x28, 0x04, 1, 2, 0, 3, 0, 0, 1, 7, 1, 2, 3})
	f.Add([]byte{5, 0x10, 0x1d, 0x04, 1, 2, 0, 3, 0, 0, 1, 7, 1, 2, 3})
	f.Add([]byte{3, 0x04, 0x02, 0x05, 1, 1, 0, 0, 1, 3, 1, 2, 3})
	// The last active state with ρ > R and a chunk starting mid-row: its
	// stay term must read nothing past the grid.
	f.Add([]byte("10A0020"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, ok := decodeCase(data)
		if !ok {
			return
		}
		all, err := ReachProbAll(dc.m, dc.goal, dc.t, dc.r, dc.opts)
		if err != nil {
			if !errors.Is(err, ErrStep) && !errors.Is(err, ErrRewards) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for s, v := range all {
			// A step sums stay + Σ rate·d, each rounded, so a value may
			// pass 1 by a few ulps per step.
			if !(v >= 0 && v <= 1+1e-12) {
				t.Fatalf("source %d: value %v outside [0, 1]", s, v)
			}
		}
		if err := dc.check(); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeCase reads a state count (1–6), a goal mask, a byte whose low
// three bits pick t and whose next three pick d, a byte whose low three
// bits pick r and whose next two pick Workers (1–3), one reward byte per
// state and then (from, to, rate/impulse) triples, self-loops skipped.
func decodeCase(data []byte) (diffCase, bool) {
	if len(data) < 4 {
		return diffCase{}, false
	}
	n := 1 + int(data[0])%6
	goal := mrm.NewStateSet(n)
	for s := 0; s < n; s++ {
		if data[1]&(1<<s) != 0 {
			goal.Add(s)
		}
	}
	// With every d ≤ 0.1, t = 1e18 always overflows T; r = 1e16 always
	// gives a grid past maxGridCells.
	tb := []float64{0.25, 0.5, 1, 1.5, 2, 1e18, 0.3, 1}[data[2]&7]
	d := []float64{1.0 / 16, 1.0 / 32, 1.0 / 64, 0.04, 0.1, 1e-20, 0.05, 1.0 / 128}[data[2]>>3&7]
	rb := []float64{0.25, 0.5, 1, 2, 3, 1e30, 1e16, 0.3}[data[3]&7]
	workers := 1 + int(data[3]>>3&3)%3
	data = data[4:]
	rewardPool := []float64{0, 1, 2, 3, 40, 1e30, 1e15, 1}
	impulsePool := []float64{0, 0, 0.25, 0.5, 1, 1e30, 0.3, 1e15}
	b := mrm.NewBuilder(n)
	for s := 0; s < n && len(data) > 0; s++ {
		b.Reward(s, rewardPool[data[0]&7])
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		if from, to := int(data[0])%n, int(data[1])%n; from != to {
			b.Rate(from, to, 0.25*float64(1+data[2]&7))
			b.Impulse(from, to, impulsePool[data[2]>>3&7])
		}
	}
	m, err := b.Build()
	if err != nil {
		return diffCase{}, false
	}
	return diffCase{m: m, goal: goal, t: tb, r: rb, opts: Options{D: d, Workers: workers}}, true
}

// BenchmarkBackward times one pass over the reduced station Q3 grid at the
// two steps the benchmark's discretise checks use.
func BenchmarkBackward(b *testing.B) {
	for _, d := range []float64{0.04, 0.03125} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("d=%v/workers=%d", d, w), func(b *testing.B) {
				dc := q3Case(b, d)
				dc.opts.Workers = w
				dc.opts.Pool = sparse.NewVecPool()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ReachProbAll(dc.m, dc.goal, dc.t, dc.r, dc.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
