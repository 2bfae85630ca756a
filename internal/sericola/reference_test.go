package sericola

import (
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/parallel"
	"github.com/performability/csrl/internal/sparse"
)

// referenceGrain is the fan-out threshold of referenceRun: the matrix size
// n·g before its per-level row sweeps fan out across workers.
const referenceGrain = 2048

// mulBlockRows computes rows [lo, hi) of dst = P·src for n×g row-major
// slabs. Each dst row is zeroed and then accumulated in stored-entry
// order, with a register form at g = 1: IEEE-754 rounds each += to a
// double either way, so column j of the result equals MulVec applied to
// column j of src. dst and src must not alias.
func mulBlockRows(p *sparse.CSR, dst, src []float64, g, lo, hi int) {
	for i := lo; i < hi; i++ {
		cols, vals := p.RowRange(i)
		if g == 1 {
			var s float64
			for k, c := range cols {
				s += vals[k] * src[c]
			}
			dst[i] = s
			continue
		}
		drow := dst[i*g : (i+1)*g]
		for j := range drow {
			drow[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			for j, sv := range src[c*g : (c+1)*g] {
				drow[j] += v * sv
			}
		}
	}
}

// referenceRun is the band-by-band recursion: every level multiplies P
// into each band's and phase's previous C matrix with one
// mulBlockRows call, keeps the products in their own banks and
// then runs the up/down sweeps band by band over a row range. It is the
// oracle the fused row pass of recursion.run must match bit for bit —
// hMats, tMat and hence every ReachProbBatch value. It ignores rc.grain.
func referenceRun(rc *recursion) (hMats [][]float64, tMat []float64) {
	p, rho, bands, targets, poisPMF, lf := rc.p, rc.rho, rc.bands, rc.targets, rc.poisPMF, rc.lf
	nSteps, workers, cols, pool := rc.nSteps, rc.workers, rc.cols, rc.pool
	n := p.Dim()
	g := len(cols)
	mBands := len(bands) - 1
	if n*g < referenceGrain {
		workers = 1
	}

	// Row classification per band: up(h, i) ⇔ ρ_i ≥ ρ_h. Because bands are
	// consecutive distinct rewards, ¬up(h,i) ⇔ ρ_i ≤ ρ_{h−1}.
	up := make([][]bool, mBands+1)
	for h := 1; h <= mBands; h++ {
		up[h] = make([]bool, n)
		for i := 0; i < n; i++ {
			up[h][i] = rho[i] >= bands[h]
		}
	}

	sz := n * g
	// All n×g buffers of the recursion are carved out of one pooled slab.
	// The live set is known upfront — per band, the PC products hold one
	// buffer per level and the two rotating C banks grow to nSteps+1
	// buffers each, plus Pⁿ and its predecessor — so a single Get covers
	// the whole recursion and one Put checks it back in, regardless of how
	// the bank rotation below aliases the [][]float64 headers.
	nBufs := 2 + mBands*nSteps + 2*mBands*(nSteps+1)
	slab := pool.Get(nBufs * sz)
	off := 0
	newBank := func() []float64 {
		b := slab[off : off+sz : off+sz]
		off += sz
		return b
	}

	// C matrices for the previous and current level: cur[h][k], h ∈ 1..m,
	// k ∈ 0..level. Two banks of matrices are swapped between levels so
	// the O(m·N) matrices are allocated once, not once per level.
	prev := make([][][]float64, mBands+1)
	cur := make([][][]float64, mBands+1)
	spare := make([][][]float64, mBands+1) // bank reused as the next cur
	pc := make([][][]float64, mBands+1)    // pc[h][k] = P·prev[h][k]

	// Pⁿ (restricted to the carried columns) and its predecessor:
	// P⁰[i, cols[j]] = 1 iff i = cols[j].
	pn := newBank()
	for j, col := range cols {
		pn[col*g+j] = 1
	}
	pnNext := newBank()

	hMats = make([][]float64, len(targets))
	for ti := range hMats {
		hMats[ti] = pool.Get(sz)
	}
	tMat = pool.Get(sz)

	// Binomial pmf rows of the current level, one per target, recomputed
	// sequentially before each level's parallel region (read-only inside
	// it) — once per level, not once per worker.
	binoms := make([][]float64, len(targets))
	for ti := range binoms {
		binoms[ti] = make([]float64, nSteps+1)
	}

	// Level n = 0: C(h,0,0) = diag(1{up(h,i)}), restricted columns. The
	// bank headers are sized for the whole run upfront, so the rotation
	// below never re-allocates them.
	for h := 1; h <= mBands; h++ {
		c := newBank()
		for j, col := range cols {
			if up[h][col] {
				c[col*g+j] = 1
			}
		}
		bank := make([][]float64, 1, nSteps+1)
		bank[0] = c
		cur[h] = bank
	}
	accumulate := func(level int) {
		w := poisPMF(level)
		if w == 0 {
			return
		}
		for idx := 0; idx < sz; idx++ {
			tMat[idx] += w * pn[idx]
		}
		for ti := range targets {
			numeric.BinomialRow(lf, level, targets[ti].x, binoms[ti])
			ck := cur[targets[ti].h]
			hM := hMats[ti]
			for k := 0; k <= level; k++ {
				bw := binoms[ti][k]
				if bw == 0 {
					continue
				}
				c := ck[k]
				f := w * bw
				for idx := 0; idx < sz; idx++ {
					hM[idx] += f * c[idx]
				}
			}
		}
	}
	accumulate(0)

	// The per-level parallel body is hoisted out of the level loop (its
	// level-dependent inputs are captured by reference) so the loop does
	// not allocate a fresh closure per level. The row products go through
	// mulBlockRows — the multi-vector kernel's row-range core, one
	// read of the matrix's stored entries per row for all g carried
	// columns, with a register specialisation at g = 1; its zero-then-
	// accumulate order in CSR entry order keeps the products bitwise
	// identical to the previous hand-rolled flatten.
	var (
		level int
		w     float64
	)
	levelBody := func(lo, hi int) {
		// PC[h][k] = P·C(h, level−1, k) and Pⁿ, rows lo..hi−1.
		for h := 1; h <= mBands; h++ {
			for k := 0; k < level; k++ {
				mulBlockRows(p, pc[h][k], prev[h][k], g, lo, hi)
			}
		}
		mulBlockRows(p, pnNext, pn, g, lo, hi)
		// Up-row sweep: increasing h, increasing k.
		for h := 1; h <= mBands; h++ {
			dh := bands[h] - bands[h-1]
			for i := lo; i < hi; i++ {
				if !up[h][i] {
					continue
				}
				row := i * g
				// Base k = 0.
				var baseRow []float64
				if h == 1 {
					baseRow = pnNext
				} else {
					baseRow = cur[h-1][level]
				}
				copy(cur[h][0][row:row+g], baseRow[row:row+g])
				// k = 1..level.
				a := (rho[i] - bands[h]) / (rho[i] - bands[h-1])
				b := dh / (rho[i] - bands[h-1])
				for k := 1; k <= level; k++ {
					dst := cur[h][k]
					prevK := cur[h][k-1]
					pck := pc[h][k-1]
					for j := 0; j < g; j++ {
						dst[row+j] = a*prevK[row+j] + b*pck[row+j]
					}
				}
			}
		}
		// Down-row sweep: decreasing h, decreasing k.
		for h := mBands; h >= 1; h-- {
			dh := bands[h] - bands[h-1]
			for i := lo; i < hi; i++ {
				if up[h][i] {
					continue
				}
				row := i * g
				// Base k = level: C(h,n,n) = C(h+1,n,0), or 0 in the top
				// band (explicitly cleared — the buffers are recycled).
				if h < mBands {
					copy(cur[h][level][row:row+g], cur[h+1][0][row:row+g])
				} else {
					base := cur[h][level]
					for j := 0; j < g; j++ {
						base[row+j] = 0
					}
				}
				a := (bands[h-1] - rho[i]) / (bands[h] - rho[i])
				b := dh / (bands[h] - rho[i])
				for k := level - 1; k >= 0; k-- {
					dst := cur[h][k]
					nextK := cur[h][k+1]
					pck := pc[h][k]
					for j := 0; j < g; j++ {
						dst[row+j] = a*nextK[row+j] + b*pck[row+j]
					}
				}
			}
		}
		// Accumulate rows lo..hi−1 into tMat and every target's hMat
		// (row-local writes).
		if w == 0 {
			return
		}
		for idx := lo * g; idx < hi*g; idx++ {
			tMat[idx] += w * pnNext[idx]
		}
		for ti := range targets {
			ck := cur[targets[ti].h]
			hM := hMats[ti]
			for k := 0; k <= level; k++ {
				bw := binoms[ti][k]
				if bw == 0 {
					continue
				}
				c := ck[k]
				f := w * bw
				for idx := lo * g; idx < hi*g; idx++ {
					hM[idx] += f * c[idx]
				}
			}
		}
	}

	for level = 1; level <= nSteps; level++ {
		// Bank bookkeeping stays sequential: swap the matrix banks and make
		// sure every buffer the parallel region will write exists.
		for h := 1; h <= mBands; h++ {
			prev[h], spare[h] = cur[h], prev[h]
			if pc[h] == nil {
				pc[h] = make([][]float64, nSteps)
			}
			for k := 0; k < level; k++ {
				if pc[h][k] == nil {
					pc[h][k] = newBank()
				}
			}
			// Recycle the level-2 bank; every entry is fully overwritten
			// by the sweeps below except the explicitly cleared base case.
			bank := spare[h]
			if cap(bank) < level+1 {
				grown := make([][]float64, level+1, nSteps+1)
				copy(grown, bank)
				bank = grown
			}
			bank = bank[:level+1]
			for k := 0; k <= level; k++ {
				if bank[k] == nil {
					bank[k] = newBank()
				}
			}
			cur[h] = bank
		}

		// One parallel region per level: each worker owns a contiguous row
		// range and runs the full per-row pipeline — PC products, the Pⁿ
		// update (into pnNext, which holds P^level until the swap below),
		// the up/down sweeps and the accumulation — in sequential order.
		w = poisPMF(level)
		if w != 0 {
			for ti := range targets {
				numeric.BinomialRow(lf, level, targets[ti].x, binoms[ti])
			}
		}
		parallel.For(workers, n, levelBody)
		pn, pnNext = pnNext, pn
	}
	// Check the slab back in (hMats/tMat stay out; the caller returns them
	// after the goal-column summation).
	pool.Put(slab)
	return hMats, tMat
}
