package sparse

import (
	"sort"

	"github.com/performability/csrl/internal/parallel"
)

// parGrain is the minimum number of stored entries before MulVecPar fans
// out; below it the scheduling overhead dominates and the sequential
// kernel is used directly.
const parGrain = 1024

// MulVecPar computes dst = M·x like MulVec, partitioned across workers.
// Each worker owns a contiguous row range, and every row's dot product is
// evaluated in the same order as the sequential kernel, so the result is
// bitwise identical to MulVec for every workers value. Row ranges are
// balanced by stored-entry count, not row count, so banded matrices with
// skewed rows (e.g. the pseudo-Erlang expansion) split evenly.
func (m *CSR) MulVecPar(dst, x []float64, workers int) {
	if len(dst) != m.n || len(x) != m.n {
		//lint:ignore bannedcall dimension mismatch is a programmer error on the hottest kernel; an error return would tax every caller
		panic("sparse: MulVecPar dimension mismatch")
	}
	w := parallel.Resolve(workers)
	if w == 1 || m.NNZ() < parGrain || m.n < 2 {
		m.MulVec(dst, x)
		return
	}
	cuts := m.rowCuts(w)
	tasks := make([]func(), 0, len(cuts)-1)
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		tasks = append(tasks, func() {
			for i := lo; i < hi; i++ {
				var s float64
				for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
					s += m.val[k] * x[m.col[k]]
				}
				dst[i] = s
			}
		})
	}
	parallel.Do(tasks...)
}

// rowCuts returns w+1 monotone row boundaries [0=c0 <= c1 <= … <= cw=n]
// such that each range [ci, ci+1) holds roughly NNZ/w stored entries.
// The boundaries depend only on the matrix and w, keeping MulVecPar
// deterministic.
func (m *CSR) rowCuts(w int) []int {
	if w > m.n {
		w = m.n
	}
	cuts := make([]int, w+1)
	nnz := m.NNZ()
	for c := 1; c < w; c++ {
		target := nnz * c / w
		cuts[c] = sort.SearchInts(m.rowPtr, target+1) - 1
	}
	cuts[w] = m.n
	// Deduplicate collapsed boundaries (possible when one row holds more
	// than NNZ/w entries) while keeping monotonicity.
	for c := 1; c <= w; c++ {
		if cuts[c] < cuts[c-1] {
			cuts[c] = cuts[c-1]
		}
	}
	out := cuts[:1]
	for c := 1; c <= w; c++ {
		if cuts[c] > out[len(out)-1] {
			out = append(out, cuts[c])
		}
	}
	return out
}
