package discretise

import "github.com/performability/csrl/internal/mrm"

// referenceForward is the forward Tijms–Veldman recursion from the single
// source `from`, impulses included: the per-source loop the backward pass
// replaced, kept as the oracle of the differential suite. It takes its
// validated inputs (T, R, d, ρ and the stay factors) from prepare and
// builds its own transposed rates and impulse shifts, so it shares no
// arithmetic with the pass under test.
func referenceForward(m *mrm.MRM, goal *mrm.StateSet, t, r float64, from int, opts Options) (float64, error) {
	p, err := prepare(m, goal, t, r, opts)
	if err != nil {
		return 0, err
	}
	impulseMat := opts.Impulses
	if impulseMat == nil {
		impulseMat = m.Impulses()
	}
	n, R := p.n, p.R
	var impulse map[[2]int]int
	if impulseMat != nil {
		impulse = make(map[[2]int]int)
		impulseMat.Each(func(i, j int, v float64) {
			if k, _ := asNatural(v / p.d); k != 0 {
				impulse[[2]int{i, j}] = min(k, R+1)
			}
		})
	}
	rt := m.Rates().Transpose()
	cur := make([][]float64, n)
	next := make([][]float64, n)
	for s := range cur {
		cur[s] = make([]float64, R+1)
		next[s] = make([]float64, R+1)
	}
	// F¹: the point mass at reward index ρ(from) (see TestConventionPinned).
	if p.rho[from] <= R {
		cur[from][p.rho[from]] = 1 / p.d
	}
	for j := 1; j < p.T; j++ {
		for s := 0; s < n; s++ {
			fs := next[s]
			shift := p.rho[s]
			for k := 0; k <= R; k++ {
				var v float64
				if k >= shift {
					v = cur[s][k-shift] * p.stay[s]
				}
				fs[k] = v
			}
			rt.Row(s, func(src int, rate float64) {
				w := rate * p.d
				shiftSrc := p.rho[src]
				if imp, ok := impulse[[2]int{src, s}]; ok {
					shiftSrc += imp
				}
				for k := shiftSrc; k <= R; k++ {
					fs[k] += cur[src][k-shiftSrc] * w
				}
			})
		}
		cur, next = next, cur
	}
	var sum float64
	goal.Each(func(s int) {
		for k := 0; k <= R; k++ {
			sum += cur[s][k]
		}
	})
	return sum * p.d, nil
}
