package sparse

import "sync"

// poolCapPerSize bounds how many free buffers of one length the pool
// retains; further Puts are dropped for the garbage collector. The working
// set of a checker run is a handful of vectors plus the Sericola matrix
// banks, all well below this cap — the cap only guards against a caller
// that Puts an unbounded stream of buffers.
const poolCapPerSize = 256

// VecPool recycles float64 scratch buffers across the numerical kernels.
// Buffers are keyed by exact length, so one pool serves mixed sizes (state
// vectors, the Sericola recursion's slab, n·(R+1) discretisation grids) at
// once. The zero value is not usable; construct with NewVecPool. All
// methods are safe for concurrent use and nil-receiver-safe: a nil *VecPool
// degrades to plain allocation, so every call site can thread an optional
// pool unconditionally.
//
// Ownership rules (see DESIGN.md "Work and memory complexity"):
//   - whoever calls Get owns the buffer and is responsible for Put — or for
//     passing ownership onward explicitly (the uniformisation sweeps return
//     their pool-born accumulator to the caller);
//   - a buffer must never be Put while any other goroutine can still reach
//     it, and never twice;
//   - check-out and check-in must happen on the same side of a parallel
//     region boundary (a worker that Gets inside its chunk Puts inside the
//     chunk; the region owner Gets/Puts outside it).
type VecPool struct {
	mu         sync.Mutex
	free       map[int][][]float64 // guarded by mu
	gets       int64               // guarded by mu
	reuses     int64               // guarded by mu
	allocBytes int64               // guarded by mu
}

// PoolStats is a snapshot of a pool's cumulative traffic, the work
// dimension the observability layer reports: how many buffers were handed
// out, how many of those were recycled rather than freshly allocated, and
// how many bytes the pool had to allocate in total.
type PoolStats struct {
	// Gets counts every Get call.
	Gets int64 `json:"gets"`
	// Reuses counts Gets satisfied from the free list.
	Reuses int64 `json:"reuses"`
	// AllocBytes is the total size of freshly allocated buffers (8 bytes
	// per float64), i.e. the slab traffic the reuse saved everyone else.
	AllocBytes int64 `json:"alloc_bytes"`
}

// NewVecPool returns an empty pool.
func NewVecPool() *VecPool {
	return &VecPool{free: make(map[int][][]float64)}
}

// Get returns a zeroed buffer of length n, recycling a previously Put one
// when available. A nil receiver allocates directly.
func (p *VecPool) Get(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	p.mu.Lock()
	p.gets++
	list := p.free[n]
	if len(list) == 0 {
		p.allocBytes += 8 * int64(n)
		p.mu.Unlock()
		return make([]float64, n)
	}
	p.reuses++
	v := list[len(list)-1]
	list[len(list)-1] = nil
	p.free[n] = list[:len(list)-1]
	p.mu.Unlock()
	for i := range v {
		v[i] = 0
	}
	return v
}

// Put returns a buffer to the pool for reuse by a later Get of the same
// length. The caller must not retain any reference to v. Nil receivers and
// nil or empty buffers are no-ops.
func (p *VecPool) Put(v []float64) {
	if p == nil || len(v) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free[len(v)]) < poolCapPerSize {
		p.free[len(v)] = append(p.free[len(v)], v)
	}
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's cumulative traffic. A nil pool
// reports zeroes.
func (p *VecPool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Gets: p.gets, Reuses: p.reuses, AllocBytes: p.allocBytes}
}

// Len reports how many free buffers of length n the pool currently holds
// (diagnostics and tests).
func (p *VecPool) Len(n int) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free[n])
}
