package crosscheck

import (
	"math"
	"runtime"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/discretise"
	"github.com/performability/csrl/internal/erlang"
	"github.com/performability/csrl/internal/sericola"
	"github.com/performability/csrl/internal/transient"
)

// TestAdhocParallelEquivalence is the sequential-vs-parallel equivalence
// suite of the parallel-engine work: on the paper's ad-hoc case study
// (Q3's Theorem 1 reduction), each of the three P3 procedures must agree
// between Workers: 1 (the exact legacy path) and parallel worker counts
// within 1e-12. It runs under -race in CI, covering every concurrent path.
func TestAdhocParallelEquivalence(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	tb, rb := adhoc.Q3TimeBound, adhoc.Q3PaperRewardBound
	workerGrid := []int{0, 4, runtime.NumCPU()}

	t.Run("sericola", func(t *testing.T) {
		seq, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-8, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			par, err := sericola.ReachProbAll(m, goal, tb, rb, sericola.Options{Epsilon: 1e-8, Workers: w})
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			if par.N != seq.N {
				t.Fatalf("workers=%d: truncation N=%d vs sequential %d", w, par.N, seq.N)
			}
			for s := range par.Values {
				if d := math.Abs(par.Values[s] - seq.Values[s]); d > 1e-12 {
					t.Errorf("workers=%d: state %d differs by %g", w, s, d)
				}
			}
		}
	})

	t.Run("erlang", func(t *testing.T) {
		// k = 256 expands to 1281 states / ≈5k transitions: above the
		// sparse kernels' grain, so the sweeps genuinely run in parallel.
		seqOpts := erlang.Options{K: 256, Transient: transient.Options{Epsilon: 1e-12, Workers: 1}}
		seq, err := erlang.ReachProbAll(m, goal, tb, rb, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			parOpts := erlang.Options{K: 256, Transient: transient.Options{Epsilon: 1e-12, Workers: w}}
			par, err := erlang.ReachProbAll(m, goal, tb, rb, parOpts)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for s := range par {
				if d := math.Abs(par[s] - seq[s]); d > 1e-12 {
					t.Errorf("workers=%d: state %d differs by %g", w, s, d)
				}
			}
		}
	})

	t.Run("discretise", func(t *testing.T) {
		// Shorter bounds than Table 4 keep the d⁻² cost affordable under
		// the race detector; same adhoc model, same backward pass (its
		// parallel step is pinned by internal/discretise's
		// TestInnerLoopParallelEquivalence).
		dtb, drb := 2.0, 50.0
		opts := discretise.Options{D: 1.0 / 32, Workers: 1}
		seq, err := discretise.ReachProbAll(m, goal, dtb, drb, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerGrid {
			opts.Workers = w
			par, err := discretise.ReachProbAll(m, goal, dtb, drb, opts)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			for s := range par {
				if d := math.Abs(par[s] - seq[s]); d > 1e-12 {
					t.Errorf("workers=%d: state %d differs by %g", w, s, d)
				}
			}
		}
	})
}
