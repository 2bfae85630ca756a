package sparse

import (
	"fmt"
	"slices"
)

// Builder accumulates triplets for incremental construction of a CSR matrix.
// The zero value is not usable; create one with NewBuilder.
type Builder struct {
	n  int
	ts []Triplet
}

// NewBuilder returns a builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add records entry (i, j) += v. Out-of-range indices surface as an error
// from Build, so call sites can stay unconditional.
func (b *Builder) Add(i, j int, v float64) {
	b.ts = append(b.ts, Triplet{Row: i, Col: j, Val: v})
}

// Grow reserves room for n more triplets, so a caller that knows its entry
// count fills the builder without re-growing it.
func (b *Builder) Grow(n int) {
	b.ts = slices.Grow(b.ts, n)
}

// Len returns the number of recorded triplets (before duplicate merging).
func (b *Builder) Len() int { return len(b.ts) }

// Build assembles the matrix, merging duplicate entries by summation.
func (b *Builder) Build() (*CSR, error) {
	m, err := NewFromTriplets(b.n, b.ts)
	if err != nil {
		return nil, fmt.Errorf("sparse builder: %w", err)
	}
	return m, nil
}
