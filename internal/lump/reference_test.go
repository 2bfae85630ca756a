package lump_test

import (
	"fmt"
	"math"
	"sort"

	"github.com/performability/csrl/internal/lump"
	"github.com/performability/csrl/internal/mrm"
)

// referenceQuotient is the all-states refinement: every round re-signs
// every state, hashing signatures with byte-wise FNV-1a. It is the oracle
// the incremental refinement must match bit for bit — partition, block
// numbering, round count and quotient model.
func referenceQuotient(m *mrm.MRM, respect []string, maxRounds int) (*lump.Result, error) {
	if m.HasImpulses() {
		return nil, fmt.Errorf("lump: %w", mrm.ErrImpulsesUnsupported)
	}
	n := m.N()
	labels := append([]string(nil), respect...)
	sort.Strings(labels)
	init := m.InitView()
	rates := m.Rates()

	words := (len(labels) + 63) / 64
	var labelBits []uint64
	if words > 0 {
		labelBits = make([]uint64, n*words)
		for s := 0; s < n; s++ {
			for li, l := range labels {
				if m.HasLabel(s, l) {
					labelBits[s*words+li/64] |= 1 << uint(li%64)
				}
			}
		}
	}
	sameInitial := func(s, r int) bool {
		if math.Float64bits(m.Reward(s)) != math.Float64bits(m.Reward(r)) {
			return false
		}
		if math.Float64bits(init[s]) != math.Float64bits(init[r]) {
			return false
		}
		for w := 0; w < words; w++ {
			if labelBits[s*words+w] != labelBits[r*words+w] {
				return false
			}
		}
		return true
	}
	blockOf := make([]int, n)
	numBlocks := 0
	{
		type cand struct{ id, rep int }
		buckets := make(map[uint64][]cand)
		for s := 0; s < n; s++ {
			h := uint64(fnvOffset64)
			for w := 0; w < words; w++ {
				h = fnvWord(h, labelBits[s*words+w])
			}
			h = fnvWord(h, math.Float64bits(m.Reward(s)))
			h = fnvWord(h, math.Float64bits(init[s]))
			id := -1
			for _, c := range buckets[h] {
				if sameInitial(s, c.rep) {
					id = c.id
					break
				}
			}
			if id < 0 {
				id = numBlocks
				numBlocks++
				buckets[h] = append(buckets[h], cand{id: id, rep: s})
			}
			blockOf[s] = id
		}
	}

	type sigEntry struct {
		block int
		rate  float64
	}
	sigEqual := func(a, b []sigEntry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].block != b[i].block || math.Float64bits(a[i].rate) != math.Float64bits(b[i].rate) {
				return false
			}
		}
		return true
	}
	acc := make([]float64, n)
	stamp := make([]int, n)
	epoch := 0
	var sig []sigEntry
	cnt := make([]int, n+1)
	order := make([]int, n)
	next := make([]int, n)
	type subBlock struct {
		id  int
		sig []sigEntry
	}
	buckets := make(map[uint64][]subBlock)
	rounds := 0
	for round := 0; ; round++ {
		if maxRounds > 0 && round >= maxRounds {
			return nil, lump.ErrRoundsExceeded
		}
		for b := 0; b <= numBlocks; b++ {
			cnt[b] = 0
		}
		for _, b := range blockOf {
			cnt[b+1]++
		}
		for b := 1; b <= numBlocks; b++ {
			cnt[b] += cnt[b-1]
		}
		pos := append([]int(nil), cnt[:numBlocks]...)
		for s := 0; s < n; s++ {
			b := blockOf[s]
			order[pos[b]] = s
			pos[b]++
		}
		changed := false
		nextID := 0
		for b := 0; b < numBlocks; b++ {
			states := order[cnt[b]:cnt[b+1]]
			clear(buckets)
			subCount := 0
			for _, s := range states {
				epoch++
				sig = sig[:0]
				cols, vals := rates.RowRange(s)
				for k, t := range cols {
					v := vals[k]
					tb := blockOf[t]
					if v == 0 || tb == b {
						continue
					}
					if stamp[tb] != epoch {
						stamp[tb] = epoch
						acc[tb] = 0
						sig = append(sig, sigEntry{block: tb})
					}
					acc[tb] += v
				}
				sort.Slice(sig, func(i, j int) bool { return sig[i].block < sig[j].block })
				h := uint64(fnvOffset64)
				for i := range sig {
					sig[i].rate = acc[sig[i].block]
					h = fnvWord(h, uint64(sig[i].block))
					h = fnvWord(h, math.Float64bits(sig[i].rate))
				}
				id := -1
				for _, c := range buckets[h] {
					if sigEqual(c.sig, sig) {
						id = c.id
						break
					}
				}
				if id < 0 {
					id = nextID
					nextID++
					subCount++
					buckets[h] = append(buckets[h], subBlock{id: id, sig: append([]sigEntry(nil), sig...)})
				}
				next[s] = id
			}
			if subCount > 1 {
				changed = true
			}
		}
		copy(blockOf, next)
		numBlocks = nextID
		if !changed {
			rounds = round + 1
			break
		}
	}

	blocks := make([][]int, numBlocks)
	for s, b := range blockOf {
		blocks[b] = append(blocks[b], s)
	}
	qb := mrm.NewBuilder(numBlocks)
	for b, members := range blocks {
		rep := members[0]
		qb.Reward(b, m.Reward(rep))
		qb.Name(b, m.Name(rep))
		for _, l := range labels {
			if m.HasLabel(rep, l) {
				qb.Label(b, l)
			}
		}
		var mass float64
		for _, s := range members {
			mass += init[s]
		}
		if mass > 0 {
			qb.InitialProb(b, mass)
		}
		epoch++
		var targets []int
		cols, vals := rates.RowRange(rep)
		for k, t := range cols {
			v := vals[k]
			if v == 0 {
				continue
			}
			tb := blockOf[t]
			if stamp[tb] != epoch {
				stamp[tb] = epoch
				acc[tb] = 0
				targets = append(targets, tb)
			}
			acc[tb] += v
		}
		sort.Ints(targets)
		for _, t := range targets {
			if t != b {
				qb.Rate(b, t, acc[t])
			}
		}
	}
	qm, err := qb.Build()
	if err != nil {
		return nil, fmt.Errorf("lump: quotient: %w", err)
	}
	return &lump.Result{Model: qm, BlockOf: blockOf, Blocks: blocks, Rounds: rounds}, nil
}

// FNV-1a 64-bit, folded over the bytes of each 64-bit word.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}
