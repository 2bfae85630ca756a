// Package srn implements stochastic reward nets (SRNs, ref [6] of the
// paper): stochastic Petri nets with exponentially timed transitions,
// guards, and a reward-rate function over markings. The reachability graph
// of an SRN with an initial marking is a Markov reward model; this is how
// the paper obtains the case-study MRM of Section 5 (Figure 2) and the role
// played there by the SPNP tool.
package srn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/mrm"
)

// Marking assigns a token count to every place.
type Marking []int

// Clone returns an independent copy of the marking.
func (m Marking) Clone() Marking {
	c := make(Marking, len(m))
	copy(c, m)
	return c
}

// Key returns a canonical string for deduplication.
func (m Marking) Key() string {
	var b strings.Builder
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// Arc connects a transition to a place with a weight (tokens consumed or
// produced per firing).
type Arc struct {
	Place  int
	Weight int
}

// Transition is an exponentially timed SRN transition.
type Transition struct {
	Name string
	// Rate is the firing rate when enabled. If RateFn is non-nil it
	// overrides Rate and may depend on the marking.
	Rate   float64
	RateFn func(Marking) float64
	// In are the input arcs (tokens required and consumed).
	In []Arc
	// Out are the output arcs (tokens produced).
	Out []Arc
	// Guard optionally restricts enabling beyond token availability.
	Guard func(Marking) bool
	// Impulse is an optional impulse reward earned each time the
	// transition fires (paper §6 future work; supported by the
	// discretisation procedure and the simulator).
	Impulse float64
}

// Net is a stochastic reward net.
type Net struct {
	Places      []string
	Transitions []Transition
}

var (
	// ErrExplosion reports that reachability-graph generation exceeded the
	// configured state budget.
	ErrExplosion = errors.New("srn: state space exceeds maximum")
	// ErrNet reports a structurally invalid net.
	ErrNet = errors.New("srn: invalid net")
)

// Validate checks structural consistency of the net.
func (n *Net) Validate() error {
	for ti, t := range n.Transitions {
		if t.Name == "" {
			return fmt.Errorf("%w: transition %d has no name", ErrNet, ti)
		}
		for _, a := range append(append([]Arc(nil), t.In...), t.Out...) {
			if a.Place < 0 || a.Place >= len(n.Places) {
				return fmt.Errorf("%w: transition %q references place %d of %d", ErrNet, t.Name, a.Place, len(n.Places))
			}
			if a.Weight <= 0 {
				return fmt.Errorf("%w: transition %q has non-positive arc weight %d", ErrNet, t.Name, a.Weight)
			}
		}
		if t.RateFn == nil && t.Rate <= 0 {
			return fmt.Errorf("%w: transition %q has non-positive rate %v", ErrNet, t.Name, t.Rate)
		}
		if t.Impulse < 0 {
			return fmt.Errorf("%w: transition %q has negative impulse %v", ErrNet, t.Name, t.Impulse)
		}
	}
	return nil
}

// Enabled reports whether transition ti is enabled in marking m.
func (n *Net) Enabled(ti int, m Marking) bool {
	t := &n.Transitions[ti]
	for _, a := range t.In {
		if m[a.Place] < a.Weight {
			return false
		}
	}
	if t.Guard != nil && !t.Guard(m) {
		return false
	}
	return true
}

// Fire returns the marking reached by firing transition ti in m. The caller
// must ensure the transition is enabled.
func (n *Net) Fire(ti int, m Marking) Marking {
	t := &n.Transitions[ti]
	next := m.Clone()
	for _, a := range t.In {
		next[a.Place] -= a.Weight
	}
	for _, a := range t.Out {
		next[a.Place] += a.Weight
	}
	return next
}

// rate returns the firing rate of transition ti in marking m.
func (n *Net) rate(ti int, m Marking) float64 {
	t := &n.Transitions[ti]
	if t.RateFn != nil {
		return t.RateFn(m)
	}
	return t.Rate
}

// Options configures reachability-graph generation.
type Options struct {
	// MaxStates bounds the explored state space (0 = 1<<20).
	MaxStates int
	// Reward maps a marking to its reward rate ρ (0 everywhere if nil).
	Reward func(Marking) float64
	// Labels optionally adds extra atomic propositions per marking.
	// Every place with at least one token always contributes its place
	// name as a label.
	Labels func(Marking) []string
	// NoNames skips the per-state name strings ("p1+p2+…"). At 10^5+
	// markings the concatenated names dominate the generator's residual
	// allocations, while the names are only read when printing states of
	// small models; MRM.Name falls back to "s<i>".
	NoNames bool
}

// BuildMRM explores the reachability graph breadth-first from init and
// returns the resulting MRM together with the marking of every state.
// State 0 is the initial marking.
//
// The explorer is built for large nets: markings live in a chunked arena
// and are deduplicated through the packed integer encoding of encode.go
// (no per-marking key strings), firing writes into one reused scratch
// marking, and transitions stream straight into parallel (from, to, rate)
// triple slices — the CSR builder's native diet — so the per-state
// footprint during exploration is the marking itself plus a map word.
// The breadth-first frontier is the tail of the arena, bounded by
// Options.MaxStates; exceeding the bound returns ErrExplosion.
func (n *Net) BuildMRM(init Marking, opts Options) (*mrm.MRM, []Marking, error) {
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	if len(init) != len(n.Places) {
		return nil, nil, fmt.Errorf("%w: initial marking has %d places, net has %d", ErrNet, len(init), len(n.Places))
	}
	maxStates := opts.MaxStates
	if maxStates == 0 {
		maxStates = 1 << 20
	}
	anyImpulse := false
	for ti := range n.Transitions {
		if n.Transitions[ti].Impulse != 0 {
			anyImpulse = true
			break
		}
	}

	store := newMarkingStore(len(n.Places))
	store.add(init)
	index := newDedup(store, init)
	index.insert(init, 0)
	var (
		eFrom, eTo []int
		eRate      []float64
		eImpulse   []float64 // parallel to eRate; nil when no transition carries one
	)
	scratch := make(Marking, len(n.Places))
	for head := 0; head < store.n; head++ {
		m := store.at(head)
		for ti := range n.Transitions {
			if !n.Enabled(ti, m) {
				continue
			}
			rate := n.rate(ti, m)
			if rate < 0 {
				return nil, nil, fmt.Errorf("%w: transition %q has negative rate %v in marking %v", ErrNet, n.Transitions[ti].Name, rate, m)
			}
			if rate == 0 {
				continue
			}
			n.fireInto(ti, m, scratch)
			idx := index.lookup(scratch)
			if idx < 0 {
				if store.n >= maxStates {
					return nil, nil, fmt.Errorf("%w: %d states", ErrExplosion, maxStates)
				}
				idx = store.add(scratch)
				index.insert(scratch, idx)
			}
			if idx != head { // a self-loop in a CTMC is unobservable; drop it
				eFrom = append(eFrom, head)
				eTo = append(eTo, idx)
				eRate = append(eRate, rate)
				if anyImpulse {
					eImpulse = append(eImpulse, n.Transitions[ti].Impulse)
				}
			}
		}
	}

	b := mrm.NewBuilder(store.n).Grow(len(eRate))
	for e := range eRate {
		b.Rate(eFrom[e], eTo[e], eRate[e])
	}
	if anyImpulse {
		// Competing transitions between the same pair of markings merge
		// into one CTMC rate; their impulse becomes the rate-weighted
		// average (exact for the expected reward, and exact outright when
		// the impulses agree).
		impulseSum := make(map[[2]int]float64)
		rateSum := make(map[[2]int]float64)
		for e := range eRate {
			key := [2]int{eFrom[e], eTo[e]}
			impulseSum[key] += eRate[e] * eImpulse[e]
			rateSum[key] += eRate[e]
		}
		for key, wsum := range impulseSum {
			if wsum > 0 {
				b.Impulse(key[0], key[1], wsum/rateSum[key])
			}
		}
	}
	var nameParts []string
	for si := 0; si < store.n; si++ {
		m := store.at(si)
		if opts.Reward != nil {
			b.Reward(si, opts.Reward(m))
		}
		nameParts = nameParts[:0]
		for pi, tokens := range m {
			if tokens > 0 {
				b.Label(si, n.Places[pi])
				if !opts.NoNames {
					nameParts = append(nameParts, n.Places[pi])
				}
			}
		}
		if opts.Labels != nil {
			for _, l := range opts.Labels(m) {
				b.Label(si, l)
			}
		}
		if !opts.NoNames {
			b.Name(si, strings.Join(nameParts, "+"))
		}
	}
	b.InitialState(0)
	model, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("srn: build MRM: %w", err)
	}
	return model, store.all(), nil
}

// fireInto writes the marking reached by firing transition ti in m into
// dst (the allocation-free Fire used by the explorer).
func (n *Net) fireInto(ti int, m Marking, dst Marking) {
	t := &n.Transitions[ti]
	copy(dst, m)
	for _, a := range t.In {
		dst[a.Place] -= a.Weight
	}
	for _, a := range t.Out {
		dst[a.Place] += a.Weight
	}
}
