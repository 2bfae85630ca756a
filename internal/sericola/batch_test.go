package sericola

import (
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// batchWorkers is the worker grid the ISSUE pins for the bitwise suite.
var batchWorkers = []int{1, 2, 4, 8}

// TestBatchBitwiseEqualsIndividual pins the batching contract: for every
// reward bound in an all-banded batch — several bounds in different
// bands, including a repeated one — the batch result must be bitwise
// equal to the unbatched ReachProbAll call, across the worker grid.
func TestBatchBitwiseEqualsIndividual(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 1, 3)
	const tb = 1.5
	// Max shifted reward is 2·t = 3: r=0.4 and r=0.9 land in band 1
	// (reward interval [0,1)·t), r=2.2 in band 2. With rhoMin = 0 no
	// bound can be certainly exceeded, so a duplicate banded bound covers
	// repeated targets instead.
	rs := []float64{0.4, 2.2, 0.9, 0.4}
	for _, workers := range batchWorkers {
		opts := Options{Epsilon: 1e-10, Workers: workers, Pool: sparse.NewVecPool()}
		batch, err := ReachProbBatch(m, goal, tb, rs, opts)
		if err != nil {
			t.Fatalf("workers=%d: batch: %v", workers, err)
		}
		if len(batch) != len(rs) {
			t.Fatalf("workers=%d: %d results for %d bounds", workers, len(batch), len(rs))
		}
		for ri, r := range rs {
			single, err := ReachProbAll(m, goal, tb, r, opts)
			if err != nil {
				t.Fatalf("workers=%d r=%v: single: %v", workers, r, err)
			}
			bitwiseEqual(t, "batch vs single", batch[ri].Values, single.Values)
			if batch[ri].N != single.N {
				t.Errorf("workers=%d r=%v: truncation N %d vs %d", workers, r, batch[ri].N, single.N)
			}
		}
	}
}

// TestMixedBatchSplitsBudget pins the mixed-batch contract: when a batch
// needs both the transient sweep (vacuous bounds) and the banded
// recursion, each leg runs on ε/2 (splitBudget), so every result is
// bitwise equal to the unbatched call at half the requested accuracy —
// never looser than the ε contract, and deterministically reproducible.
func TestMixedBatchSplitsBudget(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 1, 3)
	const (
		tb  = 1.5
		eps = 1e-10
	)
	// r=5 exceeds the maximal accumulable reward 2·t = 3: vacuous. The
	// rest are banded, so the batch exercises both legs on one call.
	rs := []float64{0.4, 2.2, 5.0, 0.9}
	for _, workers := range batchWorkers {
		opts := Options{Epsilon: eps, Workers: workers, Pool: sparse.NewVecPool()}
		batch, err := ReachProbBatch(m, goal, tb, rs, opts)
		if err != nil {
			t.Fatalf("workers=%d: batch: %v", workers, err)
		}
		half := opts
		half.Epsilon = eps / 2
		for ri, r := range rs {
			single, err := ReachProbAll(m, goal, tb, r, half)
			if err != nil {
				t.Fatalf("workers=%d r=%v: single at ε/2: %v", workers, r, err)
			}
			bitwiseEqual(t, "mixed batch vs single at ε/2", batch[ri].Values, single.Values)
			if batch[ri].N != single.N {
				t.Errorf("workers=%d r=%v: truncation N %d vs %d", workers, r, batch[ri].N, single.N)
			}
		}
	}
}

// TestBatchCertainlyExceeded uses a model with rhoMin > 0 so a small bound
// is exceeded with certainty and must come back all-zero without touching
// the recursion.
func TestBatchCertainlyExceeded(t *testing.T) {
	b := mrm.NewBuilder(3)
	b.Rate(0, 1, 1).Rate(1, 2, 2).Rate(2, 0, 1)
	b.Reward(0, 1)
	b.Reward(1, 2)
	b.Reward(2, 3)
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	goal := mrm.NewStateSetOf(3, 2)
	// rhoMin·t = 2, so r = 1 is certainly exceeded; r = 2.5 is banded.
	rs := []float64{1, 2.5}
	batch, err := ReachProbBatch(m, goal, 2, rs, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range batch[0].Values {
		if v != 0 {
			t.Errorf("certainly-exceeded bound: state %d = %v, want 0", s, v)
		}
	}
	single, err := ReachProbAll(m, goal, 2, 2.5, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "banded bound next to degenerate one", batch[1].Values, single.Values)
}

// TestBatchDegenerateInputs covers the edges: empty batch, t = 0, and
// negative bounds.
func TestBatchDegenerateInputs(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 3)
	out, err := ReachProbBatch(m, goal, 1, nil, Options{Epsilon: 1e-10})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	out, err = ReachProbBatch(m, goal, 0, []float64{0.5, 2}, Options{Epsilon: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range out {
		for s, v := range res.Values {
			want := 0.0
			if goal.Contains(s) {
				want = 1
			}
			if v != want {
				t.Errorf("t=0: state %d = %v, want %v", s, v, want)
			}
		}
	}
	if _, err := ReachProbBatch(m, goal, 1, []float64{0.5, -1}, Options{Epsilon: 1e-10}); err == nil {
		t.Fatal("negative r must error")
	}
	if _, err := ReachProbBatch(m, goal, -1, []float64{0.5}, Options{Epsilon: 1e-10}); err == nil {
		t.Fatal("negative t must error")
	}
}

// TestBatchSharesPool makes sure a pooled batch returns every recursion
// buffer: after the call the pool must hold as many free slabs as it
// handed out (nothing leaks, nothing double-frees).
func TestBatchSharesPool(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 1, 3)
	pool := sparse.NewVecPool()
	rs := []float64{0.4, 0.9, 2.2}
	if _, err := ReachProbBatch(m, goal, 1.5, rs, Options{Epsilon: 1e-10, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	stats := pool.Stats()
	if stats.Gets == 0 {
		t.Fatal("pooled batch performed no pool traffic")
	}
	// Re-running the identical batch must be served from the free lists.
	before := stats.AllocBytes
	if _, err := ReachProbBatch(m, goal, 1.5, rs, Options{Epsilon: 1e-10, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	if after := pool.Stats().AllocBytes; after != before {
		t.Errorf("second batch allocated %d fresh bytes; every buffer should have been recycled", after-before)
	}
}

// TestBatchRunsOneRecursion is the count gate of batching: a
// ReachProbBatch of g = 4 reward bounds on the station's Q3 reduction
// records one sericola.recursion span, where four ReachProbAll calls over
// the same bounds record four.
func TestBatchRunsOneRecursion(t *testing.T) {
	red, err := adhoc.Q3Reduced()
	if err != nil {
		t.Fatal(err)
	}
	m := red.Model
	goal := m.Label("goal")
	rs := []float64{150, 350, adhoc.Q3PaperRewardBound, 700}
	recursions := func(run func(opts Options) error) int64 {
		rec := obs.New()
		if err := run(Options{Epsilon: 1e-8, Lambda: adhoc.PaperLambda, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Report(1e-8).Spans["sericola.recursion"].Count
	}
	batched := recursions(func(opts Options) error {
		_, err := ReachProbBatch(m, goal, adhoc.Q3TimeBound, rs, opts)
		return err
	})
	individual := recursions(func(opts Options) error {
		for _, r := range rs {
			if _, err := ReachProbAll(m, goal, adhoc.Q3TimeBound, r, opts); err != nil {
				return err
			}
		}
		return nil
	})
	if batched != 1 || individual != int64(len(rs)) {
		t.Errorf("sericola.recursion spans: batched %d, individual %d; want 1 and %d", batched, individual, len(rs))
	}
}
