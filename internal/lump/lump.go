// Package lump implements ordinary lumpability (Markov-chain bisimulation)
// quotienting for Markov reward models, the state-space reduction that the
// successor tools of this paper's line of work (most notably MRMC) apply
// before CSRL model checking. Two states are lumpable when they carry the
// same atomic propositions and reward rate and have identical aggregate
// rates into every equivalence class; the quotient MRM then satisfies
// exactly the same CSRL formulas (over the preserved propositions) as the
// original, with every state inheriting the verdict of its block.
//
// The implementation is a partition refinement: start from the (labels,
// reward, initial-mass) signature partition and split blocks by their
// aggregate-rate signature vectors until a fixpoint is reached. Rounds are
// incremental. A block that did not split in round k can split in round
// k+1 only if one of its states has an edge into a block that did split
// in round k: its edges into unsplit blocks are the same edges, summed in
// the same CSR column order, so those aggregate rates are bit-identical.
// Round k+1 therefore re-signs only the dirty blocks — the children of the
// blocks split in round k and the blocks with an edge into one of them,
// found by one successor scan against per-block split flags — and every
// other block carries over whole. The partition, the block numbering, the
// round count and the quotient are bit for bit those of re-signing every
// state in every round.
//
// Blocks are contiguous ranges of one state permutation, ascending within
// each range, and during refinement a block is named by the position where
// its range starts. A split re-partitions its parent's range stably, its
// children in order of their first state, so range order is the order in
// which all-states rounds number the blocks and the final block IDs are
// the ranks of the range starts. Signatures are hashed a word at a time;
// hash buckets are verified by exact signature comparison, so a hash
// collision can slow a split down but can never merge two non-bisimilar
// states.
package lump

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// ErrRoundsExceeded is returned by QuotientLimited when the refinement has
// not reached a fixpoint within the allowed number of rounds. Each round
// strictly refines the partition, so hitting the limit means the quotient
// is close to trivial anyway; callers use the error to fall back to the
// unlumped model rather than pay O(n) rounds for no reduction.
var ErrRoundsExceeded = errors.New("lump: refinement round limit exceeded")

// Result is a lumped model together with the surjection onto its blocks.
type Result struct {
	// Model is the quotient MRM; block b is state b of Model.
	Model *mrm.MRM
	// BlockOf maps each original state to its block index.
	BlockOf []int
	// Blocks lists the original states of every block, in ascending order.
	Blocks [][]int
	// Rounds is the number of refinement rounds run, the last of which
	// split nothing: a round cap of Rounds succeeds, one of Rounds−1 fails.
	Rounds int
	// SignedStates counts the state signatures computed over all rounds,
	// the refinement's work; re-signing every state would cost Rounds·N.
	SignedStates int
}

// Quotient computes the coarsest ordinary-lumpability quotient of m that
// respects all state labels and rewards. Models with impulse rewards are
// not lumped (aggregating transitions with distinct impulses is lossy).
func Quotient(m *mrm.MRM) (*Result, error) {
	return QuotientRespecting(m, m.Labels())
}

// QuotientRespecting lumps with respect to only the given atomic
// propositions — formula-dependent lumping: pass logic.Atoms(formula) to
// obtain the coarsest quotient that is exact for that formula. Propositions
// outside the list may be merged away and are absent from the quotient.
func QuotientRespecting(m *mrm.MRM, respect []string) (*Result, error) {
	return QuotientLimited(m, respect, 0)
}

// QuotientLimited is QuotientRespecting with a cap on refinement rounds:
// maxRounds > 0 returns ErrRoundsExceeded instead of continuing past that
// many splitting rounds (a partition refined r times has at least r+1
// blocks, so a cap of r only ever abandons quotients with more than r
// blocks). maxRounds ≤ 0 refines to the fixpoint unconditionally.
func QuotientLimited(m *mrm.MRM, respect []string, maxRounds int) (*Result, error) {
	if m.HasImpulses() {
		return nil, fmt.Errorf("lump: %w", mrm.ErrImpulsesUnsupported)
	}
	labels := append([]string(nil), respect...)
	sort.Strings(labels)
	r := newRefiner(m, labels)
	if err := r.refine(maxRounds); err != nil {
		return nil, err
	}
	blockOf, blocks := r.number()
	qm, err := quotient(m, labels, blockOf, blocks)
	if err != nil {
		return nil, fmt.Errorf("lump: quotient: %w", err)
	}
	return &Result{Model: qm, BlockOf: blockOf, Blocks: blocks, Rounds: r.rounds, SignedStates: r.signed}, nil
}

// initialPartition groups the states with identical label sets, rewards
// and initial-state masses, numbering the groups by first appearance.
// (Initial probability masses are summed per block, which is only faithful
// if blocks do not mix initial and non-initial states with different
// masses; keeping the initial signature avoids the common pitfall.)
// Per-state label membership is packed into a bitset both for hashing and
// for the exact collision check.
func initialPartition(m *mrm.MRM, labels []string) (blockOf []int, numBlocks int) {
	n := m.N()
	init := m.InitView()
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
	same := func(s, r int) bool {
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
	blockOf = make([]int, n)
	type cand struct{ id, rep int }
	buckets := make(map[uint64][]cand)
	for s := 0; s < n; s++ {
		h := uint64(hashSeed)
		for w := 0; w < words; w++ {
			h = mix(h, labelBits[s*words+w])
		}
		h = mix(h, math.Float64bits(m.Reward(s)))
		h = mix(h, math.Float64bits(init[s]))
		id := -1
		for _, c := range buckets[h] {
			if same(s, c.rep) {
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
	return blockOf, numBlocks
}

// linearScanMax is the largest block whose states look up their sub-block
// by a linear scan over the sub-blocks found so far; larger blocks index
// the sub-blocks by signature hash.
const linearScanMax = 16

// refiner holds the partition and the scratch of the refinement rounds.
// Blocks are named by the start of their range in order; every per-block
// slice is indexed by that name.
type refiner struct {
	rates   *sparse.CSR
	blockOf []int // state → start of its block's range
	order   []int // states grouped by block, ascending within a block
	end     []int // end[p]: one past the range of the block starting at p

	// split marks the children of the blocks split in the last round (all
	// blocks before the first); dirty marks the blocks to re-sign in this
	// round.
	split, dirty         []bool
	splitList, dirtyList []int

	sub []int // sub[i]: sub-block of order[i] within its block this round
	tmp []int // scratch for the stable re-partition of a split block

	sig   []sigEntry // the signature being built
	arena []sigEntry // the signatures of the current block's sub-blocks
	subs  []subBlock
	index map[uint64]int // hash → newest sub-block with it (large blocks)

	rounds, signed int
}

// subBlock is one signature class of the block being signed.
type subBlock struct {
	hash     uint64
	off, len int // signature at arena[off : off+len]
	size     int // member count
	at       int // re-partition cursor
	next     int // older sub-block with the same hash, or -1
}

// sigEntry is one (target block, aggregate rate) component of a state's
// refinement signature.
type sigEntry struct {
	block int
	rate  float64
}

func newRefiner(m *mrm.MRM, labels []string) *refiner {
	n := m.N()
	r := &refiner{
		rates:   m.Rates(),
		blockOf: make([]int, n),
		order:   make([]int, n),
		end:     make([]int, n),
		split:   make([]bool, n),
		dirty:   make([]bool, n),
		sub:     make([]int, n),
		tmp:     make([]int, n),
		index:   make(map[uint64]int),
	}
	ids, numBlocks := initialPartition(m, labels)
	start := make([]int, numBlocks+1)
	for _, b := range ids {
		start[b+1]++
	}
	for b := 0; b < numBlocks; b++ {
		start[b+1] += start[b]
		r.end[start[b]] = start[b+1]
		r.split[start[b]] = true
		r.splitList = append(r.splitList, start[b])
	}
	for s, b := range ids {
		r.blockOf[s] = start[b]
	}
	// start[b] turns into the fill cursor of block b.
	for s, b := range ids {
		r.order[start[b]] = s
		start[b]++
	}
	return r
}

// refine runs rounds until one splits no block.
func (r *refiner) refine(maxRounds int) error {
	for round := 0; ; round++ {
		if maxRounds > 0 && round >= maxRounds {
			return ErrRoundsExceeded
		}
		r.markDirty()
		for _, p := range r.dirtyList {
			r.dirty[p] = false
			r.signBlock(p)
		}
		r.rounds = round + 1
		if len(r.splitList) == 0 {
			return nil
		}
		// Children take their names only now: every signature of the round
		// had to see the partition the round started from.
		for _, q := range r.splitList {
			for _, s := range r.order[q:r.end[q]] {
				r.blockOf[s] = q
			}
		}
	}
}

// markDirty collects the round's dirty blocks and clears the split flags
// they were derived from. Singleton blocks never split and are skipped.
func (r *refiner) markDirty() {
	r.dirtyList = r.dirtyList[:0]
	for _, p := range r.splitList {
		if r.end[p]-p > 1 {
			r.dirty[p] = true
			r.dirtyList = append(r.dirtyList, p)
		}
	}
	for p := 0; p < len(r.order); p = r.end[p] {
		if r.dirty[p] || r.end[p]-p == 1 {
			continue
		}
	scan:
		for _, s := range r.order[p:r.end[p]] {
			cols, _ := r.rates.RowRange(s)
			for _, t := range cols {
				if r.split[r.blockOf[t]] {
					r.dirty[p] = true
					r.dirtyList = append(r.dirtyList, p)
					break scan
				}
			}
		}
	}
	for _, p := range r.splitList {
		r.split[p] = false
	}
	r.splitList = r.splitList[:0]
}

// signBlock splits the block starting at p into its signature classes,
// numbered in order of first appearance.
func (r *refiner) signBlock(p int) {
	e := r.end[p]
	r.signed += e - p
	r.subs, r.arena = r.subs[:0], r.arena[:0]
	indexed := e-p > linearScanMax
	for i := p; i < e; i++ {
		h := r.sign(r.order[i], p)
		c := r.lookup(h, indexed)
		if c < 0 {
			c = len(r.subs)
			sb := subBlock{hash: h, off: len(r.arena), len: len(r.sig), next: -1}
			r.arena = append(r.arena, r.sig...)
			if indexed {
				if head, ok := r.index[h]; ok {
					sb.next = head
				}
				r.index[h] = c
			}
			r.subs = append(r.subs, sb)
		}
		r.subs[c].size++
		r.sub[i] = c
	}
	if indexed {
		for _, sb := range r.subs {
			delete(r.index, sb.hash)
		}
	}
	if len(r.subs) > 1 {
		r.partition(p, e)
	}
}

// sign builds the signature of state s in the block named own into r.sig
// and returns its hash. Ordinary lumpability constrains the aggregate rate
// into every OTHER block; internal transitions are invisible at the block
// level and excluded.
func (r *refiner) sign(s, own int) uint64 {
	sig := r.sig[:0]
	cols, vals := r.rates.RowRange(s)
	for k, t := range cols {
		if tb := r.blockOf[t]; vals[k] != 0 && tb != own {
			sig = append(sig, sigEntry{block: tb, rate: vals[k]})
		}
	}
	sig = aggregate(sig)
	h := uint64(hashSeed)
	for _, e := range sig {
		h = mix(h, uint64(e.block))
		h = mix(h, math.Float64bits(e.rate))
	}
	r.sig = sig
	return h
}

// lookup returns the sub-block whose signature equals r.sig, or -1.
func (r *refiner) lookup(h uint64, indexed bool) int {
	if !indexed {
		for c := range r.subs {
			if r.subs[c].hash == h && sigEqual(r.subSig(c), r.sig) {
				return c
			}
		}
		return -1
	}
	c, ok := r.index[h]
	if !ok {
		return -1
	}
	for ; c >= 0; c = r.subs[c].next {
		if sigEqual(r.subSig(c), r.sig) {
			return c
		}
	}
	return -1
}

func (r *refiner) subSig(c int) []sigEntry {
	sb := r.subs[c]
	return r.arena[sb.off : sb.off+sb.len]
}

// partition stably re-orders the range [p, e) so each sub-block gets a
// contiguous sub-range, in sub-block order, and flags the children as
// split for the next round.
func (r *refiner) partition(p, e int) {
	at := p
	for c := range r.subs {
		sb := &r.subs[c]
		sb.at = at
		r.end[at] = at + sb.size
		r.split[at] = true
		r.splitList = append(r.splitList, at)
		at += sb.size
	}
	for i := p; i < e; i++ {
		sb := &r.subs[r.sub[i]]
		r.tmp[sb.at] = r.order[i]
		sb.at++
	}
	copy(r.order[p:e], r.tmp[p:e])
}

// number turns block names into IDs — the ranks of the range starts — and
// lists the members of every block.
func (r *refiner) number() (blockOf []int, blocks [][]int) {
	id := r.tmp
	numBlocks := 0
	for p := 0; p < len(r.order); p = r.end[p] {
		id[p] = numBlocks
		numBlocks++
	}
	blocks = make([][]int, 0, numBlocks)
	for p := 0; p < len(r.order); p = r.end[p] {
		blocks = append(blocks, r.order[p:r.end[p]:r.end[p]])
	}
	blockOf = r.blockOf
	for s, p := range blockOf {
		blockOf[s] = id[p]
	}
	return blockOf, blocks
}

// quotient builds the lumped MRM: each block takes its first state's
// reward, name and respected labels, its members' summed initial mass,
// and that state's aggregate rates into the other blocks, summed in CSR
// column order as the refinement summed them.
func quotient(m *mrm.MRM, labels []string, blockOf []int, blocks [][]int) (*mrm.MRM, error) {
	init := m.InitView()
	qb := mrm.NewBuilder(len(blocks))
	var row []sigEntry
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
		row = row[:0]
		cols, vals := m.Rates().RowRange(rep)
		for k, t := range cols {
			if vals[k] != 0 {
				row = append(row, sigEntry{block: blockOf[t], rate: vals[k]})
			}
		}
		row = aggregate(row)
		for _, e := range row {
			// Aggregate rates within the block are self-loops of the
			// quotient CTMC; they are unobservable and dropped.
			if e.block != b {
				qb.Rate(b, e.block, e.rate)
			}
		}
	}
	return qb.Build()
}

// aggregate sums a row's (block, rate) entries per block, adding the rates
// in the order the entries come — CSR column order — and returns the sums
// sorted by block, in place. The sort is stable so that order survives:
// insertion sort for the short rows of typical models, a typed merge sort
// beyond.
func aggregate(row []sigEntry) []sigEntry {
	if len(row) > 12 {
		slices.SortStableFunc(row, bySigBlock)
	} else {
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j].block < row[j-1].block; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
	}
	out := row[:0]
	for i := 0; i < len(row); {
		e := sigEntry{block: row[i].block}
		for ; i < len(row) && row[i].block == e.block; i++ {
			e.rate += row[i].rate
		}
		out = append(out, e)
	}
	return out
}

func bySigBlock(a, b sigEntry) int { return cmp.Compare(a.block, b.block) }

// sigEqual compares two signatures exactly (bit equality on rates), the
// collision check behind the hash buckets.
func sigEqual(a, b []sigEntry) bool {
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

// hashSeed starts every signature hash; mix folds in one 64-bit word with
// a multiply and an xor-shift.
const hashSeed = 0x9e3779b97f4a7c15

func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0xff51afd7ed558ccd
	return h ^ h>>32
}

// Lift expands per-block values back to per-state values.
func (r *Result) Lift(blockValues []float64) []float64 {
	out := make([]float64, len(r.BlockOf))
	for s, b := range r.BlockOf {
		out[s] = blockValues[b]
	}
	return out
}

// LiftSet expands a set of blocks back to the set of original states whose
// block is in it.
func (r *Result) LiftSet(blockSet *mrm.StateSet) *mrm.StateSet {
	out := mrm.NewStateSet(len(r.BlockOf))
	for s, b := range r.BlockOf {
		if blockSet.Contains(b) {
			out.Add(s)
		}
	}
	return out
}
