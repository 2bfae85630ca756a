package main

import (
	_ "embed"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
)

// manifestText holds the reference answers, one row per entry any seed can
// produce, in the model;property;constants;expected;tolerance;args layout.
//
//go:embed manifest.txt
var manifestText string

type row struct {
	expected  string
	tolerance float64
}

// manifest maps Entry.Key to its reference row.
type manifest map[string]row

func parseManifest(text string) (manifest, error) {
	m := make(manifest)
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ";")
		if len(f) != 6 {
			return nil, fmt.Errorf("manifest line %d: want 6 fields, got %d", i+1, len(f))
		}
		tol, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return nil, fmt.Errorf("manifest line %d: tolerance: %w", i+1, err)
		}
		key := strings.Join([]string{f[0], f[1], f[2], f[5]}, ";")
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("manifest line %d: duplicate key %s", i+1, key)
		}
		m[key] = row{expected: f[3], tolerance: tol}
	}
	return m, nil
}

// allEntries lists every entry the generator can produce, plus the set-up
// checks: the rows the manifest must cover.
func allEntries() []Entry {
	var es []Entry
	q3Args := [][]string{nil}
	for _, e := range sericolaEps {
		q3Args = append(q3Args, []string{"-algorithm", "sericola", "-epsilon", e})
	}
	for _, k := range erlangK {
		q3Args = append(q3Args, []string{"-algorithm", "erlang", "-k", k})
	}
	for _, d := range discSteps {
		q3Args = append(q3Args, []string{"-algorithm", "discretise", "-d", d})
	}
	for _, r := range rewardGrid {
		for _, a := range q3Args {
			es = append(es, Entry{"station", "Q3", rConst(r), a})
		}
		es = append(es, Entry{"station", "P2", rConst(r), nil})
	}
	for _, n := range append(append([]int{}, clusterSmal...), clusterLarg...) {
		for _, r := range clusterR {
			es = append(es, Entry{fmt.Sprintf("cluster:%d", n), "P3c", rConst(r), nil})
		}
	}
	for _, n := range scaleN {
		for _, t := range timeGrid {
			for _, p := range []string{"P1b", "P1q"} {
				es = append(es, Entry{fmt.Sprintf("cluster:%d", n), p, tConst(t), nil})
				es = append(es, Entry{fmt.Sprintf("cluster:%d", n), p, tConst(t), []string{"-truncate", "1e-14"}})
			}
		}
	}
	for _, t := range stationT {
		es = append(es, Entry{"station", "P1s", tConst(t), nil})
	}
	es = append(es, Entry{"station", "S", "", nil}, Entry{"station", "Bs", "", nil}, Entry{"cluster:60", "Bc", "", nil})
	for _, w := range []string{"paper-p3", "scale-p1"} {
		es = append(es, setupEntries(w)...)
	}
	return es
}

// referenceArgs is the tight configuration a query's expected value comes
// from: Sericola at ε = 1e-11 for reward-bounded untils, dense sweeps at
// ε = 1e-12 otherwise.
func referenceArgs(e Entry) []string {
	switch e.Prop {
	case "Q3", "P3c":
		return []string{"-algorithm", "sericola", "-epsilon", "1e-11"}
	}
	return []string{"-epsilon", "1e-12"}
}

// writeManifest computes every row in-process. A query row's expected
// value is its reference; its tolerance is twice the largest deviation
// from the reference that its procedure settings show over the parameter
// grid, rounded up to one significant digit and at least 1e-9 (csrlcheck
// prints ten decimals). Erlang and discretisation rows are thereby pinned
// to the accuracy those procedures reach today; the cross-procedure
// agreement is printed for the record.
func writeManifest(w io.Writer, stationPath string) error {
	type computed struct {
		e   Entry
		got Answer
		ref float64
	}
	var rows []computed
	classDev := make(map[string]float64) // prop + args -> max |got - ref|
	refs := make(map[string]float64)     // model;prop;consts -> reference
	for _, e := range allEntries() {
		got, err := evalEntry(e, e.Args, stationPath)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Key(), err)
		}
		c := computed{e: e, got: got}
		if got.Query {
			rk := e.Model + ";" + e.Prop + ";" + e.Consts
			ref, ok := refs[rk]
			if !ok {
				a, err := evalEntry(e, referenceArgs(e), stationPath)
				if err != nil {
					return fmt.Errorf("%s reference: %w", e.Key(), err)
				}
				ref = a.Value
				refs[rk] = ref
			}
			c.ref = ref
			class := e.Prop + " " + strings.Join(e.Args, " ")
			classDev[class] = math.Max(classDev[class], math.Abs(got.Value-ref))
		}
		rows = append(rows, c)
	}
	fmt.Fprintln(w, "# Reference answers for csrlbench: model;property;constants;expected;tolerance;args")
	fmt.Fprintln(w, "# Regenerate with: bash csrlbench/run.sh --write-manifest csrlbench/manifest.txt")
	fmt.Fprintln(w, "# Query rows: expected = reference run (Sericola eps 1e-11 for reward-bounded untils,")
	fmt.Fprintln(w, "# dense eps 1e-12 otherwise); tolerance = 2 x the largest deviation of the row's")
	fmt.Fprintln(w, "# procedure settings from the reference over the grid, >= 1e-9. Bounded rows match exactly.")
	classes := make([]string, 0, len(classDev))
	for c := range classDev {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "# agreement %-40s max |dev| %.3g\n", c, classDev[c])
	}
	for _, c := range rows {
		e := c.e
		exp, tol := c.got.String(), 0.0
		if c.got.Query {
			exp = strconv.FormatFloat(c.ref, 'g', 12, 64)
			tol = roundUp(math.Max(2*classDev[e.Prop+" "+strings.Join(e.Args, " ")], 1e-9))
		}
		fmt.Fprintf(w, "%s;%s;%s;%s;%.1g;%s\n", e.Model, e.Prop, e.Consts, exp, tol, strings.Join(e.Args, " "))
	}
	return nil
}

// roundUp rounds x > 0 up to one significant digit.
func roundUp(x float64) float64 {
	p := math.Pow(10, math.Floor(math.Log10(x)))
	return math.Ceil(x/p) * p
}

// evalEntry answers e in-process with the given csrlcheck flags.
func evalEntry(e Entry, args []string, stationPath string) (Answer, error) {
	opts, err := parseArgs(args)
	if err != nil {
		return Answer{}, err
	}
	m, err := loadModel(e.Model, stationPath)
	if err != nil {
		return Answer{}, err
	}
	f, err := logic.Parse(e.Formula())
	if err != nil {
		return Answer{}, err
	}
	return evaluate(core.New(m, opts.Options), m, f, opts.truncated)
}

func writeManifestFile(path, stationPath string) error {
	var b strings.Builder
	if err := writeManifest(&b, stationPath); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// within reports whether got matches the manifest row: bounded answers
// must match exactly, query values within the row's tolerance.
func (r row) within(got Answer) bool {
	if !got.Query {
		return got.String() == r.expected
	}
	exp, err := strconv.ParseFloat(r.expected, 64)
	if err != nil {
		return false
	}
	return math.Abs(got.Value-exp) <= r.tolerance
}
