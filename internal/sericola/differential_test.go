package sericola

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/sparse"
)

// capture is what one recursion run handed back: copies of hMats and
// tMat, taken before ReachProbBatch sums them and returns them to the pool.
type capture struct {
	hMats [][]float64
	tMat  []float64
}

// capturing wraps a recursion implementation so that it runs at the given
// fan-out grain (ignored by referenceRun) and records its matrices.
func capturing(run func(*recursion) ([][]float64, []float64), grain int, c *capture) func(*recursion) ([][]float64, []float64) {
	return func(rc *recursion) ([][]float64, []float64) {
		rc.grain = grain
		hMats, tMat := run(rc)
		c.hMats = make([][]float64, len(hMats))
		for ti, hm := range hMats {
			c.hMats[ti] = append([]float64(nil), hm...)
		}
		c.tMat = append([]float64(nil), tMat...)
		return hMats, tMat
	}
}

func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("entry %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// diffCase is one differential case: a model, a goal set, a time bound and
// a batch of reward bounds, checked under opts at the given grain.
type diffCase struct {
	m     *mrm.MRM
	goal  *mrm.StateSet
	t     float64
	rs    []float64
	opts  Options
	grain int
}

// outcome is one run of a batch: the recursion's matrices, the results
// and the error.
type outcome struct {
	capture
	res []*Result
	err error
}

func (dc diffCase) run(impl func(*recursion) ([][]float64, []float64)) outcome {
	var o outcome
	o.res, o.err = reachProbBatch(dc.m, dc.goal, dc.t, dc.rs, dc.opts, capturing(impl, dc.grain, &o.capture))
	return o
}

// reference runs the batch through referenceRun. Its outcome depends on
// neither Workers nor the grain, so one serves a whole worker grid.
func (dc diffCase) reference() outcome { return dc.run(referenceRun) }

// check runs the batch through recursion.run and reports the first
// difference from the reference outcome want: in the error outcome, in
// hMats or tMat, or in any result's N or values.
func (dc diffCase) check(want outcome) error {
	got := dc.run((*recursion).run)
	if (got.err != nil) != (want.err != nil) {
		return fmt.Errorf("error %v, reference error %v", got.err, want.err)
	}
	if got.err != nil {
		return nil
	}
	if len(got.hMats) != len(want.hMats) {
		return fmt.Errorf("%d hMats, reference %d", len(got.hMats), len(want.hMats))
	}
	for ti := range got.hMats {
		if err := sameBits(got.hMats[ti], want.hMats[ti]); err != nil {
			return fmt.Errorf("hMats[%d]: %v", ti, err)
		}
	}
	if err := sameBits(got.tMat, want.tMat); err != nil {
		return fmt.Errorf("tMat: %v", err)
	}
	for ri := range got.res {
		if got.res[ri].N != want.res[ri].N {
			return fmt.Errorf("r=%v: N %d, reference %d", dc.rs[ri], got.res[ri].N, want.res[ri].N)
		}
		if err := sameBits(got.res[ri].Values, want.res[ri].Values); err != nil {
			return fmt.Errorf("r=%v: values: %v", dc.rs[ri], err)
		}
	}
	return nil
}

// diffWorkers is the worker grid of the differential suite.
var diffWorkers = []int{1, 2, 3}

// randomCase draws an MRM with 2–5 distinct rewards (the smallest not
// always 0, so the reward shift is exercised), a random goal set, and 1–3
// reward bounds spread over distinct bands, some on a band's lower edge.
func randomCase(rng *rand.Rand) diffCase {
	n := 2 + rng.Intn(9)
	if rng.Intn(8) == 0 {
		n = 20 + rng.Intn(30)
	}
	distinct := 2 + rng.Intn(4)
	if distinct > n {
		distinct = n
	}
	base := float64(rng.Intn(3)) * 0.5
	levels := make([]float64, distinct)
	for k := range levels {
		levels[k] = base + float64(k) + 0.25*float64(rng.Intn(4))
	}
	b := mrm.NewBuilder(n)
	perm := rng.Perm(n)
	for idx, s := range perm {
		// The first `distinct` states of the permutation take one reward
		// level each, so every level is present.
		k := idx
		if k >= distinct {
			k = rng.Intn(distinct)
		}
		b.Reward(s, levels[k])
	}
	for s := 0; s < n; s++ {
		if rng.Intn(6) == 0 {
			continue // absorbing
		}
		edges := 1 + rng.Intn(3)
		if rng.Intn(4) == 0 {
			// Dense rows take mulRow through more than one entry group.
			edges = 4 + rng.Intn(8)
		}
		for e := edges; e > 0; e-- {
			d := rng.Intn(n)
			if d == s {
				continue
			}
			b.Rate(s, d, 0.1+3*rng.Float64())
		}
	}
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	goal := mrm.NewStateSet(n)
	for g := 1 + rng.Intn(3); g > 0; g-- {
		goal.Add(rng.Intn(n))
	}
	tb := 0.2 + 1.8*rng.Float64()
	rewards := m.DistinctRewards()
	var rs []float64
	for _, h := range rng.Perm(len(rewards) - 1)[:1+rng.Intn(min(3, len(rewards)-1))] {
		x := rng.Float64()
		if rng.Intn(5) == 0 {
			x = 0
		}
		lo, hi := rewards[h]*tb, rewards[h+1]*tb
		rs = append(rs, lo+x*(hi-lo))
	}
	eps := []float64{1e-6, 1e-8, 1e-10}[rng.Intn(3)]
	return diffCase{m: m, goal: goal, t: tb, rs: rs, opts: Options{Epsilon: eps}}
}

// TestRecursionMatchesReferenceRandom checks the fused row pass against
// the band-by-band reference on 300 seeded random MRMs, sliced and (up to
// 12 states) full width, at Workers 1, 2 and 3 with every level fanned
// out.
func TestRecursionMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for c := 0; c < 300; c++ {
		dc := randomCase(rng)
		for _, full := range []bool{false, true} {
			if full && dc.m.N() > 12 {
				// Full width carries all n columns; the small models cover
				// it and keep the suite quick under the race detector.
				continue
			}
			dc.opts.FullWidth = full
			want := dc.reference()
			for _, workers := range diffWorkers {
				dc.opts.Workers = workers
				if err := dc.check(want); err != nil {
					t.Fatalf("case %d (n=%d, %d rewards, t=%v, rs=%v, full=%v, workers=%d): %v",
						c, dc.m.N(), len(dc.m.DistinctRewards()), dc.t, dc.rs, full, workers, err)
				}
			}
		}
	}
}

// q3Case is station Q3 on the reduced model M' of the paper, at the
// text's and the tables' reward bounds in one batch.
func q3Case(tb testing.TB) diffCase {
	tb.Helper()
	red, err := adhoc.Q3Reduced()
	if err != nil {
		tb.Fatal(err)
	}
	goal := mrm.NewStateSetOf(red.Model.N(), red.Goal)
	rs := []float64{adhoc.Q3RewardBound, adhoc.Q3PaperRewardBound}
	return diffCase{m: red.Model, goal: goal, t: adhoc.Q3TimeBound, rs: rs, opts: Options{Epsilon: 1e-9}, grain: runGrain}
}

// p3cCase is the cluster family's P3 query ¬down U^{≤24}_{≤r} down on the
// lumped, Theorem 1-reduced cluster:n model, as the checker evaluates it.
func p3cCase(tb testing.TB, n int, rs ...float64) diffCase {
	tb.Helper()
	params, err := cluster.Default(n)
	if err != nil {
		tb.Fatal(err)
	}
	params.NoNames = true
	m, err := params.Build()
	if err != nil {
		tb.Fatal(err)
	}
	q, err := lump.QuotientRespecting(m, []string{"down"})
	if err != nil {
		tb.Fatal(err)
	}
	down := q.Model.Label("down")
	red, err := mrm.ReduceForUntil(q.Model, down.Complement(), down)
	if err != nil {
		tb.Fatal(err)
	}
	goal := mrm.NewStateSetOf(red.Model.N(), red.Goal)
	return diffCase{m: red.Model, goal: goal, t: 24, rs: rs, opts: Options{Epsilon: 1e-9}, grain: runGrain}
}

// TestRecursionMatchesReferenceReduced checks the reduced models the
// benchmark's P3 checks run on — station Q3 and cluster:12 P3c — at the
// production grain and with every level fanned out.
func TestRecursionMatchesReferenceReduced(t *testing.T) {
	cases := map[string]diffCase{
		"station Q3":     q3Case(t),
		"cluster:12 P3c": p3cCase(t, 12, 11, 13),
	}
	for name, dc := range cases {
		want := dc.reference()
		for _, grain := range []int{runGrain, 0} {
			for _, workers := range diffWorkers {
				dc.grain = grain
				dc.opts.Workers = workers
				if err := dc.check(want); err != nil {
					t.Errorf("%s (grain=%d, workers=%d): %v", name, grain, workers, err)
				}
			}
		}
	}
}

// TestSlabBytesGauge pins the sericola.slab_bytes gauge to the banks'
// size, 8·(2·n·g + 2·m·n·(N+1)·g) bytes, sliced and full width.
func TestSlabBytesGauge(t *testing.T) {
	m := fourState(t)
	goal := mrm.NewStateSetOf(m.N(), 1, 3)
	const n, bands = 4, 2
	for _, c := range []struct {
		full bool
		g    int
	}{{false, 2}, {true, 4}} {
		rec := obs.New()
		res, err := ReachProbAll(m, goal, 1.5, 1.25, Options{Epsilon: 1e-10, FullWidth: c.full, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(8 * (2*n*c.g + 2*bands*n*(res.N+1)*c.g))
		if got := rec.Gauge("sericola.slab_bytes").Value(); got != want {
			t.Errorf("full=%v: slab_bytes %v, want %v (N=%d)", c.full, got, want, res.N)
		}
	}
}

// FuzzRecursion decodes bytes into a small MRM, a goal set, a time bound
// and up to three reward bounds, and checks that the fused row pass never
// panics and agrees with the reference bit for bit.
func FuzzRecursion(f *testing.F) {
	f.Add([]byte{3, 0x05, 2, 1, 0x21, 0, 1, 2, 0, 1, 3, 1, 2, 5, 2, 0, 2})
	f.Add([]byte{5, 0x13, 4, 3, 0x40, 0x90, 0xf0, 0, 1, 2, 3, 4, 0, 1, 7, 1, 2, 3, 2, 3, 1, 3, 4, 6, 4, 0, 2})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("101200010")) // empty goal set
	f.Fuzz(func(t *testing.T, data []byte) {
		dc, ok := decodeCase(data)
		if !ok {
			return
		}
		if dc.goal.IsEmpty() {
			// The reference's mulBlockRows needs at least one
			// carried column; the fused pass carries none and every
			// value is 0.
			got := dc.run((*recursion).run)
			if got.err != nil {
				t.Fatal(got.err)
			}
			for _, res := range got.res {
				for s, v := range res.Values {
					if v != 0 {
						t.Fatalf("empty goal: state %d: %v", s, v)
					}
				}
			}
			return
		}
		if err := dc.check(dc.reference()); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeCase reads a state count (1–6), a goal mask, a time-bound index,
// a byte whose low two bits pick the bound count (1–3) and whose next two
// pick Workers (1–3), the bounds, one reward byte per state and then
// (from, to, rate) triples, self-loops skipped. Every level fans out.
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
	tb := []float64{0, 0.25, 0.5, 1, 1.5, 2}[int(data[2])%6]
	nb := 1 + int(data[3]&3)%3
	workers := 1 + int(data[3]>>2&3)%3
	data = data[4:]
	var rs []float64
	for ; nb > 0 && len(data) > 0; nb-- {
		// Bounds span [0, 4·t], past the largest reward 3.5 times t, so
		// certainly-exceeded and vacuous bounds turn up as well.
		rs = append(rs, float64(data[0])/64*tb)
		data = data[1:]
	}
	rewardPool := []float64{0, 1, 2, 0.5, 3.5, 1.5}
	b := mrm.NewBuilder(n)
	for s := 0; s < n && len(data) > 0; s++ {
		b.Reward(s, rewardPool[int(data[0])%len(rewardPool)])
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		if from, to := int(data[0])%n, int(data[1])%n; from != to {
			b.Rate(from, to, 0.25*float64(1+data[2]%16))
		}
	}
	b.InitialState(0)
	m, err := b.Build()
	if err != nil {
		return diffCase{}, false
	}
	return diffCase{m: m, goal: goal, t: tb, rs: rs, opts: Options{Epsilon: 1e-6, Workers: workers}}, true
}

// BenchmarkRecursion times one P3 batch on the reduced models of the
// benchmark's heaviest Sericola checks.
func BenchmarkRecursion(b *testing.B) {
	for _, c := range []struct {
		name string
		dc   func() diffCase
	}{
		{"station-Q3", func() diffCase { return q3Case(b) }},
		{"cluster12-P3c", func() diffCase { return p3cCase(b, 12, 11) }},
		{"cluster20-P3c", func() diffCase { return p3cCase(b, 20, 11) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			dc := c.dc()
			dc.opts.Pool = sparse.NewVecPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReachProbBatch(dc.m, dc.goal, dc.t, dc.rs, dc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
