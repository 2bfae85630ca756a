package lump_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
)

// resultDiff reports the first difference between two lump results: the
// partition, its numbering, the round count and every bit of the quotient
// model (rates, exit rates, rewards, initial masses, names and labels).
func resultDiff(got, want *lump.Result) error {
	if !slices.Equal(got.BlockOf, want.BlockOf) {
		return fmt.Errorf("BlockOf differs:\n got %v\nwant %v", got.BlockOf, want.BlockOf)
	}
	if len(got.Blocks) != len(want.Blocks) {
		return fmt.Errorf("%d blocks, want %d", len(got.Blocks), len(want.Blocks))
	}
	for b := range want.Blocks {
		if !slices.Equal(got.Blocks[b], want.Blocks[b]) {
			return fmt.Errorf("block %d = %v, want %v", b, got.Blocks[b], want.Blocks[b])
		}
	}
	if got.Rounds != want.Rounds {
		return fmt.Errorf("%d rounds, want %d", got.Rounds, want.Rounds)
	}
	return modelDiff(got.Model, want.Model)
}

func modelDiff(got, want *mrm.MRM) error {
	if got.N() != want.N() {
		return fmt.Errorf("quotient has %d states, want %d", got.N(), want.N())
	}
	if !slices.Equal(got.Labels(), want.Labels()) {
		return fmt.Errorf("labels %v, want %v", got.Labels(), want.Labels())
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for s := 0; s < want.N(); s++ {
		if bits(got.Reward(s)) != bits(want.Reward(s)) {
			return fmt.Errorf("block %d: reward %v, want %v", s, got.Reward(s), want.Reward(s))
		}
		if bits(got.InitView()[s]) != bits(want.InitView()[s]) {
			return fmt.Errorf("block %d: initial mass %v, want %v", s, got.InitView()[s], want.InitView()[s])
		}
		if bits(got.ExitRate(s)) != bits(want.ExitRate(s)) {
			return fmt.Errorf("block %d: exit rate %v, want %v", s, got.ExitRate(s), want.ExitRate(s))
		}
		if got.Name(s) != want.Name(s) {
			return fmt.Errorf("block %d: name %q, want %q", s, got.Name(s), want.Name(s))
		}
		for _, l := range want.Labels() {
			if got.HasLabel(s, l) != want.HasLabel(s, l) {
				return fmt.Errorf("block %d: label %q = %v, want %v", s, l, got.HasLabel(s, l), want.HasLabel(s, l))
			}
		}
		gc, gv := got.Rates().RowRange(s)
		wc, wv := want.Rates().RowRange(s)
		if !slices.Equal(gc, wc) || !slices.EqualFunc(gv, wv, func(a, b float64) bool { return bits(a) == bits(b) }) {
			return fmt.Errorf("block %d: rates %v→%v, want %v→%v", s, gc, gv, wc, wv)
		}
	}
	return nil
}

// checkAgainstReference lumps m both ways, asserts bitwise-identical
// results and that the round cap fails at exactly the same point: a cap
// of Rounds−1 is exceeded, a cap of Rounds is not.
func checkAgainstReference(t *testing.T, name string, m *mrm.MRM, respect []string) *lump.Result {
	t.Helper()
	want, err := referenceQuotient(m, respect, 0)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := lump.QuotientRespecting(m, respect)
	if err != nil {
		t.Fatalf("%s: QuotientRespecting: %v", name, err)
	}
	if err := resultDiff(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.SignedStates > got.Rounds*m.N() {
		t.Errorf("%s: signed %d states, more than %d rounds × %d", name, got.SignedStates, got.Rounds, m.N())
	}
	if _, err := lump.QuotientLimited(m, respect, got.Rounds); err != nil {
		t.Errorf("%s: cap %d = Rounds: %v", name, got.Rounds, err)
	}
	if got.Rounds > 1 {
		_, errGot := lump.QuotientLimited(m, respect, got.Rounds-1)
		_, errWant := referenceQuotient(m, respect, got.Rounds-1)
		if !errors.Is(errGot, lump.ErrRoundsExceeded) || !errors.Is(errWant, lump.ErrRoundsExceeded) {
			t.Errorf("%s: cap %d = Rounds−1: got %v, reference %v; want both ErrRoundsExceeded", name, got.Rounds-1, errGot, errWant)
		}
	}
	return got
}

func TestQuotientMatchesReferenceOnCluster(t *testing.T) {
	atomSets := [][]string{nil, {"down"}, {"degraded", "down"}, {"qos", "pristine"}}
	for _, n := range []int{4, 12, 20, 60} {
		p, err := cluster.Default(n)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, atoms := range atomSets {
			if atoms == nil {
				atoms = m.Labels()
			}
			name := fmt.Sprintf("cluster:%d %v", n, atoms)
			res := checkAgainstReference(t, name, m, atoms)
			t.Logf("%s: %d → %d blocks in %d rounds, %d states signed (all-states rounds: %d)",
				name, m.N(), res.Model.N(), res.Rounds, res.SignedStates, res.Rounds*m.N())
		}
	}
}

func TestQuotientMatchesReferenceOnStation(t *testing.T) {
	m, err := adhoc.Model()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "station all labels", m, m.Labels())
	f := logic.MustParse("P=? [ (call_idle | doze) U{t<=24, r<=600} call_initiated ]")
	checkAgainstReference(t, "station Q3 atoms", m, logic.Atoms(f))
}

// TestQuotientMatchesReferenceOnLongRows lumps hubs whose rows run into
// one block of interchangeable leaves through many edges, past the
// insertion-sort cutoff of the signature sort: the aggregate rates must
// still be summed in CSR column order, whose last bits decide whether the
// hubs with permuted rates merge.
func TestQuotientMatchesReferenceOnLongRows(t *testing.T) {
	for _, leaves := range []int{5, 13, 40} {
		hubs := 4
		b := mrm.NewBuilder(hubs + leaves)
		for h := 0; h < hubs; h++ {
			b.Label(h, "hub")
			for l := 0; l < leaves; l++ {
				b.Rate(h, hubs+l, ratePool[(l*(h%2+1)+h/2)%len(ratePool)])
			}
		}
		for l := 0; l < leaves; l++ {
			b.Rate(hubs+l, l%hubs, 1)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := checkAgainstReference(t, fmt.Sprintf("%d hubs × %d leaves", hubs, leaves), m, []string{"hub"})
		if res.Model.N() >= m.N() {
			t.Errorf("%d leaves: no reduction", leaves)
		}
	}
}

// TestQuotientMatchesReferenceOnRandomModels drives both refinements over
// seeded random MRMs whose rates, rewards and initial masses come from
// small pools, so symmetric states, ties and order-sensitive float sums
// (0.1 + 0.2 ≠ 0.3) are common.
func TestQuotientMatchesReferenceOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lumped := 0
	for i := 0; i < 1200; i++ {
		m, respect := randomModel(t, rng)
		res := checkAgainstReference(t, fmt.Sprintf("model %d", i), m, respect)
		if res.Model.N() < m.N() {
			lumped++
		}
	}
	if lumped < 300 {
		t.Errorf("only %d of the random models lump; the generator is too asymmetric to exercise merging", lumped)
	}
}

var (
	ratePool   = []float64{0.1, 0.2, 0.3, 0.5, 1, 1, 2}
	rewardPool = []float64{0, 0, 1, 2.5}
	atomPool   = []string{"a", "b", "c"}
)

func randomModel(t *testing.T, rng *rand.Rand) (*mrm.MRM, []string) {
	t.Helper()
	n := 1 + rng.Intn(40)
	b := mrm.NewBuilder(n)
	deg := 1 + rng.Intn(4)
	for s := 0; s < n; s++ {
		if n > 1 {
			for k := rng.Intn(deg + 1); k > 0; k-- {
				to := rng.Intn(n - 1)
				if to >= s {
					to++
				}
				b.Rate(s, to, ratePool[rng.Intn(len(ratePool))])
			}
		}
		b.Reward(s, rewardPool[rng.Intn(len(rewardPool))])
		for _, a := range atomPool {
			if rng.Intn(4) == 0 {
				b.Label(s, a)
			}
		}
	}
	switch k := rng.Intn(3); {
	case k == 1 && n > 1:
		b.InitialProb(0, 0.5).InitialProb(n-1, 0.5)
	case k == 2:
		b.InitialState(rng.Intn(n))
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("random model: %v", err)
	}
	var respect []string
	for _, a := range atomPool {
		if rng.Intn(2) == 0 {
			respect = append(respect, a)
		}
	}
	return m, respect
}

// FuzzQuotient decodes bytes into a small MRM and a respected-atom set,
// then checks the refinement against the all-states reference and checks
// the lumpability invariant directly: the states of a block agree on the
// respected labels and the reward, and have bit-identical aggregate rates
// into every other block.
func FuzzQuotient(f *testing.F) {
	f.Add([]byte{3, 0x0f, 0, 1, 0, 0, 2, 0, 1, 3, 1, 2, 3, 1})
	f.Add([]byte{6, 0x05, 0, 1, 1, 0, 2, 1, 1, 3, 2, 2, 4, 2, 3, 5, 3, 4, 5, 3, 5, 0, 0})
	f.Add([]byte{8, 0xff, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, respect := decodeModel(data)
		if m == nil {
			return
		}
		want, errWant := referenceQuotient(m, respect, 0)
		got, errGot := lump.QuotientRespecting(m, respect)
		if errWant != nil || errGot != nil {
			t.Fatalf("quotient: %v, reference: %v", errGot, errWant)
		}
		if err := resultDiff(got, want); err != nil {
			t.Fatal(err)
		}
		checkLumpable(t, m, respect, got)
	})
}

// decodeModel reads a state count (1–8), a respected-atom mask, one
// (reward, labels) byte per state and then (from, to, rate) triples.
func decodeModel(data []byte) (*mrm.MRM, []string) {
	if len(data) < 2 {
		return nil, nil
	}
	n := 1 + int(data[0])%8
	var respect []string
	for i, a := range atomPool {
		if data[1]&(1<<i) != 0 {
			respect = append(respect, a)
		}
	}
	data = data[2:]
	b := mrm.NewBuilder(n)
	for s := 0; s < n && len(data) > 0; s++ {
		b.Reward(s, rewardPool[int(data[0])%len(rewardPool)])
		for i, a := range atomPool {
			if data[0]&(0x10<<i) != 0 {
				b.Label(s, a)
			}
		}
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		from, to := int(data[0])%n, int(data[1])%n
		if from != to {
			b.Rate(from, to, ratePool[int(data[2])%len(ratePool)])
		}
	}
	m, err := b.Build()
	if err != nil {
		return nil, nil
	}
	return m, respect
}

func checkLumpable(t *testing.T, m *mrm.MRM, respect []string, res *lump.Result) {
	t.Helper()
	agg := func(s int) map[int]uint64 {
		sums := make(map[int]float64)
		cols, vals := m.Rates().RowRange(s)
		for k, c := range cols {
			if tb := res.BlockOf[c]; tb != res.BlockOf[s] {
				sums[tb] += vals[k]
			}
		}
		out := make(map[int]uint64, len(sums))
		for tb, v := range sums {
			out[tb] = math.Float64bits(v)
		}
		return out
	}
	for _, members := range res.Blocks {
		rep := members[0]
		want := agg(rep)
		for _, s := range members[1:] {
			if math.Float64bits(m.Reward(s)) != math.Float64bits(m.Reward(rep)) {
				t.Fatalf("states %d and %d share a block but not a reward", rep, s)
			}
			for _, a := range respect {
				if m.HasLabel(s, a) != m.HasLabel(rep, a) {
					t.Fatalf("states %d and %d share a block but differ on %q", rep, s, a)
				}
			}
			got := agg(s)
			if len(got) != len(want) {
				t.Fatalf("states %d and %d share a block but reach %d vs %d other blocks", rep, s, len(want), len(got))
			}
			for tb, v := range want {
				if got[tb] != v {
					t.Fatalf("states %d and %d share a block but differ on the rate into block %d", rep, s, tb)
				}
			}
		}
	}
}
