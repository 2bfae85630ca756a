// Batched admission: concurrent queries against the same model that share
// a core.GroupKey — same Φ, Ψ and time bound, differing only in the reward
// bound and the P operator — are coalesced onto one
// Checker.EvaluateGroup call. The batch kernels evaluate g reward columns
// through one Sericola recursion over the memoised uniformised matrix,
// bitwise-identically to g separate runs, so coalescing changes latency
// and cost but never answers.
//
// The mechanism is a short admission window: the first query of a group
// opens it, companions arriving within it join, and when the timer fires
// the whole group is computed once and every member receives its own
// Result. Formulas without a group key bypass admission entirely.

package service

import (
	"fmt"
	"sync"
	"time"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/obs"
)

// pending is one admitted query waiting for its group to fire.
type pending struct {
	f  logic.StateFormula
	ch chan batchResult
}

// batchResult is what one group member receives: its own Result, the
// group's shared numerics report, and the group size.
type batchResult struct {
	res    *core.Result
	report *obs.Report
	size   int
	err    error
}

// batcher runs the admission window for one model's checker.
type batcher struct {
	checker *core.Checker
	window  time.Duration

	mu     sync.Mutex
	groups map[core.GroupKey][]pending // open windows, guarded by mu

	// stats, guarded by mu
	batches   int64 // groups fired
	coalesced int64 // members of groups with size >= 2
	maxBatch  int64
}

func newBatcher(c *core.Checker, window time.Duration) *batcher {
	return &batcher{checker: c, window: window, groups: make(map[core.GroupKey][]pending)}
}

// admit submits f, whose group key is key, and blocks until its batch
// fires. With batching disabled (negative window) the query runs alone
// immediately.
func (b *batcher) admit(key core.GroupKey, f logic.StateFormula) (batchResult, error) {
	if b.window < 0 {
		res := b.fire([]pending{{f: f}})[0]
		return res, res.err
	}
	ch := make(chan batchResult, 1)

	b.mu.Lock()
	members, open := b.groups[key]
	if !open {
		// The window timer closes the group; members joining after close
		// start a fresh one.
		time.AfterFunc(b.window, func() { b.close(key) })
	}
	b.groups[key] = append(members, pending{f: f, ch: ch})
	b.mu.Unlock()

	res := <-ch
	return res, res.err
}

// close detaches the group and fires it. Runs on the timer goroutine, so
// a slow batch never blocks admission of the next window.
func (b *batcher) close(key core.GroupKey) {
	b.mu.Lock()
	members := b.groups[key]
	delete(b.groups, key)
	b.mu.Unlock()
	for i, res := range b.fire(members) {
		members[i].ch <- res
	}
}

// fire evaluates one group under a recorder shared by the group: the
// members share the computation, so they share its ledger, and each gets a
// pointer to the one report.
func (b *batcher) fire(members []pending) []batchResult {
	fs := make([]logic.StateFormula, len(members))
	for i, m := range members {
		fs[i] = m.f
	}
	view := b.checker.WithRecorder(obs.New())
	out := make([]batchResult, len(members))
	results, err := view.EvaluateGroup(fs)
	if err != nil {
		err = fmt.Errorf("batched until (%d members): %w", len(members), err)
		for i := range out {
			out[i] = batchResult{err: err}
		}
		return out
	}
	rep := view.NumericsReport()
	for i, res := range results {
		out[i] = batchResult{res: res, report: rep, size: len(members)}
	}

	b.mu.Lock()
	b.batches++
	n := int64(len(members))
	if n > 1 {
		b.coalesced += n
	}
	if n > b.maxBatch {
		b.maxBatch = n
	}
	b.mu.Unlock()
	return out
}

// batchStats is the batcher's contribution to /v1/stats.
type batchStats struct {
	batches, coalesced, maxBatch int64
}

func (b *batcher) snapshot() batchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return batchStats{batches: b.batches, coalesced: b.coalesced, maxBatch: b.maxBatch}
}
