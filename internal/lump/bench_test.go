package lump_test

import (
	"fmt"
	"testing"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/lump"
)

// BenchmarkQuotientCluster times the refinement the checker's lump
// pre-pass runs for the scale queries (!down U{t<=T} down, atoms {down})
// on the cluster family at 29 282 and 101 250 states.
func BenchmarkQuotientCluster(b *testing.B) {
	for _, n := range []int{120, 224} {
		p, err := cluster.Default(n)
		if err != nil {
			b.Fatal(err)
		}
		m, err := p.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("cluster:%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var res *lump.Result
			for i := 0; i < b.N; i++ {
				if res, err = lump.QuotientLimited(m, []string{"down"}, 64); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.SignedStates)/float64(m.N()), "signed/n")
		})
	}
}
