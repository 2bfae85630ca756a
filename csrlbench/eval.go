package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
)

// Answer is what one check reports for the initial distribution, in the
// shape csrlcheck prints it: a value for queries, a verdict (and, without
// truncation, the satisfying-state count) for bounded formulas.
type Answer struct {
	Query bool
	Value float64 // queries
	Holds bool    // bounded formulas
	Sat   int     // bounded formulas; -1 when not computed
}

// String renders the answer as the manifest's expected column does.
func (a Answer) String() string {
	if a.Query {
		return strconv.FormatFloat(a.Value, 'g', 12, 64)
	}
	if a.Sat < 0 {
		return fmt.Sprintf("holds=%v", a.Holds)
	}
	return fmt.Sprintf("holds=%v sat=%d", a.Holds, a.Sat)
}

// cliOptions is csrlcheck's flag set: the same names and defaults, so an
// entry's Args configure the in-process replay exactly as they configure
// the binary.
type cliOptions struct {
	core.Options
	truncated bool
}

func parseArgs(args []string) (cliOptions, error) {
	fs := flag.NewFlagSet("args", flag.ContinueOnError)
	algorithm := fs.String("algorithm", "sericola", "")
	epsilon := fs.Float64("epsilon", 1e-9, "")
	k := fs.Int("k", 256, "")
	d := fs.Float64("d", 0, "")
	doLump := fs.Bool("lump", true, "")
	truncate := fs.Float64("truncate", 0, "")
	if err := fs.Parse(args); err != nil {
		return cliOptions{}, err
	}
	opts := core.DefaultOptions()
	opts.Epsilon = *epsilon
	opts.ErlangK = *k
	opts.DiscretiseStep = *d
	opts.Truncate = *truncate
	if !*doLump {
		opts.Lump = core.LumpOff
	}
	switch *algorithm {
	case "sericola":
		opts.P3 = core.AlgSericola
	case "erlang":
		opts.P3 = core.AlgErlang
	case "discretise":
		opts.P3 = core.AlgDiscretise
	default:
		return cliOptions{}, fmt.Errorf("unknown algorithm %q", *algorithm)
	}
	return cliOptions{Options: opts, truncated: *truncate > 0}, nil
}

// loadModel resolves a model spec the way csrlcheck's -model flag does;
// "station" names the case-study model file the benchmark writes.
func loadModel(spec, stationPath string) (*mrm.MRM, error) {
	if rest, ok := strings.CutPrefix(spec, "cluster:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("model %q: %w", spec, err)
		}
		p, err := cluster.Default(n)
		if err != nil {
			return nil, err
		}
		return p.Build()
	}
	if spec == "station" {
		return modelfile.Load(stationPath)
	}
	return nil, fmt.Errorf("unknown model %q", spec)
}

// evaluate answers f on the checker through the calls csrlcheck makes for
// the same flags (without -states): QueryInitial or Values for queries,
// Check alone when truncating, otherwise Sat then Check.
func evaluate(c *core.Checker, m *mrm.MRM, f logic.StateFormula, truncated bool) (Answer, error) {
	if isQuery(f) {
		if truncated {
			v, ok, err := c.QueryInitial(f)
			if err != nil {
				return Answer{}, err
			}
			if ok {
				return Answer{Query: true, Value: v}, nil
			}
		}
		vals, err := c.Values(f)
		if err != nil {
			return Answer{}, err
		}
		var v float64
		for s, p := range m.InitView() {
			v += p * vals[s]
		}
		return Answer{Query: true, Value: v}, nil
	}
	if truncated {
		holds, err := c.Check(f)
		return Answer{Holds: holds, Sat: -1}, err
	}
	sat, err := c.Sat(f)
	if err != nil {
		return Answer{}, err
	}
	holds, err := c.Check(f)
	return Answer{Holds: holds, Sat: sat.Len()}, err
}

func isQuery(f logic.StateFormula) bool {
	switch t := f.(type) {
	case logic.Prob:
		return t.Query
	case logic.Steady:
		return t.Query
	}
	return false
}
