package core

import (
	"math"
	"sort"
	"testing"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/obs"
)

// TestClusterTruncatedScaleGate is the scale gate of the truncated forward
// path on cluster:60 (7 442 states), lumping off on both sides so the
// contrast isolates the window sweep. The truncated answer must agree with
// the dense one within 1e-6, the truncated check's ledger must prove its
// budget within ε, and the peak active window must stay at or below a
// tenth of the state space: the count behind the truncated sweep's speedup,
// which holds on any machine where a wall-clock ratio would not.
func TestClusterTruncatedScaleGate(t *testing.T) {
	p, err := cluster.Default(60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	query := logic.MustParse("P=? [ !down U{t<=96} down ]")
	bounded := logic.MustParse("P<=0.021 [ !down U{t<=96} down ]")

	opts := DefaultOptions()
	opts.Epsilon = 1e-8
	opts.Lump = LumpOff
	dense := New(m, opts)
	want, err := dense.Evaluate(query, false)
	if err != nil {
		t.Fatal(err)
	}
	denseHolds, err := dense.Check(bounded)
	if err != nil {
		t.Fatal(err)
	}

	opts.Truncate = 1e-14
	rec := obs.New()
	opts.Obs = rec
	got, err := New(m, opts).Evaluate(query, false)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Forward || want.Forward {
		t.Fatalf("routes: truncated forward=%v, dense forward=%v", got.Forward, want.Forward)
	}
	if d := math.Abs(got.Value - want.Value); d > 1e-6 {
		t.Errorf("dense %.12f vs truncated %.12f: |diff| %.3g > 1e-6", want.Value, got.Value, d)
	}
	rep := rec.Report(opts.Epsilon)
	if !rep.BudgetOK {
		t.Errorf("truncated check's budget %.3g not proved within %g", rep.BudgetTotal, opts.Epsilon)
	}
	window := rep.Gauges["truncation.active-window"]
	t.Logf("dense %.12f, truncated %.12f, peak window %v of %d states, budget %.3g", want.Value, got.Value, window, m.N(), rep.BudgetTotal)
	if window <= 0 || window > float64(m.N())/10 {
		t.Errorf("peak active window %v of %d states, want (0, n/10]", window, m.N())
	}
	truncHolds, err := New(m, opts).Check(bounded)
	if err != nil {
		t.Fatal(err)
	}
	if truncHolds != denseHolds {
		t.Errorf("%s: truncated verdict %v, dense %v", bounded, truncHolds, denseHolds)
	}
}

// TestStationQ3RepeatsAddNoMemoMisses evaluates the station's Q3 three
// times on one checker. The first evaluation fills the memo (reduction,
// uniformised matrix, Poisson weights) and proves its budget within ε; the
// repeats must be served from the memo without a single new miss.
func TestStationQ3RepeatsAddNoMemoMisses(t *testing.T) {
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = obs.New()
	c := New(m, opts)
	f := logic.MustParse("P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]")
	var first MemoStats
	for run := 0; run < 3; run++ {
		if _, err := c.Values(f); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			rep := c.NumericsReport()
			if !rep.BudgetOK || rep.BudgetTotal <= 0 {
				t.Errorf("first run must ledger a positive budget within ε: total %.3g, ok %v", rep.BudgetTotal, rep.BudgetOK)
			}
			first = c.MemoStats()
			if first.Misses == 0 {
				t.Fatalf("first run recorded no memo misses: %+v", first)
			}
			continue
		}
		if st := c.MemoStats(); st.Misses != first.Misses || st.Hits <= first.Hits {
			t.Errorf("run %d: memo %+v after first run's %+v, want no new misses and new hits", run+1, st, first)
		}
	}
}

// TestSeedLumpOverheadWithinNoise gates the automatic lumping pre-pass on
// the paper's 9-state model: a fresh checker per check, so the pre-pass is
// paid every time, must run Q2 within 1.5× of a lump-off checker. The two
// modes alternate over several rounds and the median ratio is gated, so a
// scheduler hiccup in one round cannot fail the test.
func TestSeedLumpOverheadWithinNoise(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock ratios are meaningless under the race detector")
	}
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	f := logic.MustParse("P>0.5 [ F{t<=24} call_incoming ]")
	timeMode := func(mode LumpMode, reps int) time.Duration {
		opts := DefaultOptions()
		opts.Lump = mode
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := New(m, opts).Check(f); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	// Size each timing to about 20 ms so timer resolution is irrelevant.
	reps := 1
	for timeMode(LumpOff, reps) < 20*time.Millisecond {
		reps *= 2
	}
	const rounds = 7
	ratios := make([]float64, rounds)
	for r := range ratios {
		off := timeMode(LumpOff, reps)
		on := timeMode(LumpAuto, reps)
		ratios[r] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	t.Logf("lump-auto / lump-off over %d checks per round: %v", reps, ratios)
	if med := ratios[rounds/2]; med > 1.5 {
		t.Errorf("lump pre-pass slows the seed check ×%.2f (median of %v) > ×1.5", med, ratios)
	}
}
