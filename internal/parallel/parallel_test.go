package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.NumCPU() {
		t.Errorf("Resolve(0) = %d, want NumCPU = %d", got, runtime.NumCPU())
	}
	if got := Resolve(1); got != 1 {
		t.Errorf("Resolve(1) = %d, want 1", got)
	}
	if got := Resolve(7); got != 7 {
		t.Errorf("Resolve(7) = %d, want 7", got)
	}
	if got := Resolve(-3); got != 1 {
		t.Errorf("Resolve(-3) = %d, want 1", got)
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	for _, count := range []int{0, 1, 2, 3, 17, 100} {
		var ran int64
		tasks := make([]func(), count)
		for i := range tasks {
			tasks[i] = func() { atomic.AddInt64(&ran, 1) }
		}
		Do(tasks...)
		if ran != int64(count) {
			t.Errorf("Do with %d tasks ran %d", count, ran)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int64, n)
			For(workers, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad chunk [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForChunkingIsDeterministic(t *testing.T) {
	// The chunk boundaries must depend only on (workers, n): collect them
	// twice and compare as sets.
	collect := func() map[[2]int]bool {
		var mu sync.Mutex
		chunks := make(map[[2]int]bool)
		For(4, 103, func(lo, hi int) {
			mu.Lock()
			chunks[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return chunks
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("chunk count differs between runs: %d vs %d", len(a), len(b))
	}
	for c := range a {
		if !b[c] {
			t.Fatalf("chunk %v missing from second run", c)
		}
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	// Oversubscribe deliberately: each outer chunk spawns an inner For.
	// With a blocking pool this would deadlock once all workers are
	// parked in inner waits; the help-drain submit policy must not.
	var total int64
	outer := 4 * runtime.NumCPU()
	For(0, outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(0, 100, func(ilo, ihi int) {
				atomic.AddInt64(&total, int64(ihi-ilo))
			})
		}
	})
	if total != int64(outer*100) {
		t.Fatalf("nested For ran %d inner indices, want %d", total, outer*100)
	}
}

func TestDoSaturation(t *testing.T) {
	// Far more tasks than queue capacity: the non-blocking submit must
	// fall back to inline execution and still run everything.
	const tasks = 10000
	var ran int64
	fns := make([]func(), tasks)
	for i := range fns {
		fns[i] = func() { atomic.AddInt64(&ran, 1) }
	}
	Do(fns...)
	if ran != tasks {
		t.Fatalf("saturated Do ran %d of %d tasks", ran, tasks)
	}
}

func TestConcurrentDoCallers(t *testing.T) {
	// Many goroutines using the pool at once (as ReachProbAll's fan-out
	// plus nested kernels will); mostly a -race exercise.
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			For(0, 500, func(lo, hi int) {
				atomic.AddInt64(&total, int64(hi-lo))
			})
		}()
	}
	wg.Wait()
	if total != 8*500 {
		t.Fatalf("concurrent callers covered %d indices, want %d", total, 8*500)
	}
}
