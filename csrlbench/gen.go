package main

import (
	"fmt"
	"strings"
)

// Entry is one check the generator asks for. The program under test sees
// only the model spec, the procedure flags and the formula text; the rest
// keys the entry into the reference manifest.
type Entry struct {
	Model  string   // "station" or "cluster:N"
	Prop   string   // property name, column 2 of the manifest
	Consts string   // "R=550", "T=96" or "", column 3 of the manifest
	Args   []string // csrlcheck procedure flags, column 6 of the manifest
}

// property is a formula template with at most one constant.
type property struct {
	template string // fmt verb %s receives the constant's value
	constant string // "R", "T" or ""
}

// properties are the formulas the workloads draw from. Q3 is the paper's
// P3 query on the station; P3c is its analogue on the cluster family.
var properties = map[string]property{
	"Q3":  {"P=? [ (call_idle | doze) U{t<=24, r<=%s} call_initiated ]", "R"},
	"P2":  {"P=? [ F{r<=%s} call_incoming ]", "R"},
	"P3c": {"P=? [ !down U{t<=24, r<=%s} down ]", "R"},
	"P1b": {"P<=0.012 [ !down U{t<=%s} down ]", "T"},
	"P1q": {"P=? [ !down U{t<=%s} down ]", "T"},
	"P1s": {"P<0.5 [ !call_incoming U{t<=%s} call_incoming ]", "T"},
	"S":   {"S=? [ doze ]", ""},
	"Bs":  {"call_idle | doze", ""},
	"Bc":  {"degraded & !down", ""},
}

// Formula renders the entry's formula text.
func (e Entry) Formula() string {
	p := properties[e.Prop]
	if p.constant == "" {
		return p.template
	}
	return fmt.Sprintf(p.template, strings.TrimPrefix(e.Consts, p.constant+"="))
}

// Key is the manifest key of the entry: model;property;constants;args.
func (e Entry) Key() string {
	return strings.Join([]string{e.Model, e.Prop, e.Consts, strings.Join(e.Args, " ")}, ";")
}

// Line renders the entry as one line of a request list.
func (e Entry) Line() string { return e.Key() + ";" + e.Formula() }

// Truncated reports whether the entry asks for truncated forward sweeps.
func (e Entry) Truncated() bool {
	for _, a := range e.Args {
		if a == "-truncate" {
			return true
		}
	}
	return false
}

// IsQuery reports whether the entry's formula is a P=?/S=? query.
func (e Entry) IsQuery() bool { return strings.Contains(properties[e.Prop].template, "=?") }

// Parameter grids. Every value is listed in the manifest, so every entry a
// seed can produce has a reference answer.
var (
	rewardGrid  = []int{150, 200, 250, 300, 350, 400, 450, 500, 550, 600}
	rewardQuad  = []int{150, 300, 450, 600} // for the costlier P3 procedures
	timeGrid    = []int{24, 48, 72, 96}
	stationT    = []int{6, 12, 18, 24}
	sericolaEps = []string{"1e-4", "1e-5", "1e-6", "1e-7", "1e-8"}
	erlangK     = []string{"64", "128", "256"}
	discSteps   = []string{"0.04", "0.03125"}
	clusterSmal = []int{12, 14}
	clusterLarg = []int{18, 20}
	clusterR    = []int{11, 13}
	scaleN      = []int{60, 120, 224}
)

// cycle is the number of passes after which every workload has used each
// of its costly parameter combinations equally often. CLI runs measure
// whole cycles, so the cost mix of a run is the same for every seed; the
// seed decides the order of the checks and which cheap parameters go
// with which.
const cycle = 4

// rng is splitmix64: tiny, and its sequence for a seed never changes, so
// a request list is byte-identical across toolchains.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func shuffle(r *rng, es []Entry) {
	for i := len(es) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		es[i], es[j] = es[j], es[i]
	}
}

// latin picks slot's value in pass from a grid of len(perm) values: slot s
// of pass p gets perm[(s + stride·p) mod len]. With len equal to cycle and
// stride 1, each slot sees every value exactly once per cycle; with stride
// equal to the slots per pass, the slots walk the whole grid.
func latin(perm []int, slot, stride, pass int) int {
	return perm[(slot+stride*pass)%len(perm)]
}

func rConst(v int) string { return fmt.Sprintf("R=%d", v) }
func tConst(v int) string { return fmt.Sprintf("T=%d", v) }

// Pass returns pass number pass of the workload's request list for seed.
// A run is a sequence of passes; the same (workload, seed, pass) always
// gives the same entries in the same order.
func Pass(workload string, seed int64, pass int) ([]Entry, error) {
	// Grid permutations are per seed, so they draw from a pass-independent
	// stream; the order within a pass draws from a per-pass stream.
	grid := newRNG(seed, 1)
	order := newRNG(seed, 1000+uint64(pass))
	var es []Entry
	switch workload {
	case "paper-p3":
		// Sericola's cost depends on ε and r together (levels × bands),
		// so each ε walks the same four reward bounds once per cycle.
		ser := grid.perm(len(rewardQuad))
		for i, eps := range sericolaEps {
			r := rewardQuad[latin(ser, i, 1, pass)]
			es = append(es, Entry{"station", "Q3", rConst(r), []string{"-algorithm", "sericola", "-epsilon", eps}})
		}
		erl := grid.perm(len(rewardQuad))
		for i, k := range erlangK {
			es = append(es, Entry{"station", "Q3", rConst(rewardQuad[latin(erl, i, 1, pass)]), []string{"-algorithm", "erlang", "-k", k}})
		}
		dis := grid.perm(len(rewardQuad))
		for i, d := range discSteps {
			es = append(es, Entry{"station", "Q3", rConst(rewardQuad[latin(dis, i, 1, pass)]), []string{"-algorithm", "discretise", "-d", d}})
		}
		p2 := grid.perm(len(rewardGrid))
		for i := 0; i < 2; i++ {
			es = append(es, Entry{"station", "P2", rConst(rewardGrid[latin(p2, i, 2, pass)]), nil})
		}
		// Each cluster slot walks its four (N, R) combinations once per
		// cycle, from a seeded starting point.
		for _, ns := range [][]int{clusterSmal, clusterLarg} {
			c := (grid.intn(cycle) + pass) % cycle
			n, r := ns[c/2], clusterR[c%2]
			es = append(es, Entry{fmt.Sprintf("cluster:%d", n), "P3c", rConst(r), nil})
		}
	case "scale-p1":
		// Four variants per size — bounded/query × dense/truncated — each
		// pass; each variant sees every time bound once per cycle.
		for _, n := range scaleN {
			ts := grid.perm(len(timeGrid))
			for v := 0; v < 4; v++ {
				prop := "P1b"
				if v%2 == 1 {
					prop = "P1q"
				}
				var args []string
				if v >= 2 {
					args = []string{"-truncate", "1e-14"}
				}
				t := timeGrid[latin(ts, v, 1, pass)]
				es = append(es, Entry{fmt.Sprintf("cluster:%d", n), prop, tConst(t), args})
			}
		}
	case "service-mix":
		// One block of ten: 4 batchable station P3, 1 bounded station P1,
		// 1 steady-state, 3 bounded cluster:60 P1, 1 boolean.
		q3 := grid.perm(len(rewardGrid))
		for i := 0; i < 4; i++ {
			es = append(es, Entry{"station", "Q3", rConst(rewardGrid[latin(q3, i, 4, pass)]), nil})
		}
		st := grid.perm(len(stationT))
		es = append(es, Entry{"station", "P1s", tConst(stationT[latin(st, 0, 1, pass)]), nil})
		es = append(es, Entry{"station", "S", "", nil})
		ct := grid.perm(len(timeGrid))
		for i := 0; i < 3; i++ {
			es = append(es, Entry{"cluster:60", "P1b", tConst(timeGrid[latin(ct, i, 3, pass)]), nil})
		}
		if pass%2 == 0 {
			es = append(es, Entry{"station", "Bs", "", nil})
		} else {
			es = append(es, Entry{"cluster:60", "Bc", "", nil})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper-p3, scale-p1 or service-mix)", workload)
	}
	shuffle(order, es)
	return es, nil
}

// setupEntries are the boolean checks whose wall time is the CLI
// workloads' set-up: process start, model load or SRN build, parse, and no
// numerics (lumping is off, since it is part of the check).
func setupEntries(workload string) []Entry {
	off := []string{"-lump=false"}
	switch workload {
	case "paper-p3":
		return []Entry{{"station", "Bs", "", off}, {"cluster:12", "Bc", "", off}, {"cluster:20", "Bc", "", off}}
	case "scale-p1":
		return []Entry{{"cluster:60", "Bc", "", off}, {"cluster:120", "Bc", "", off}, {"cluster:224", "Bc", "", off}}
	}
	return nil
}

// RequestList renders passes [0, passes) of a workload, one entry a line.
func RequestList(workload string, seed int64, passes int) (string, error) {
	var b strings.Builder
	for p := 0; p < passes; p++ {
		es, err := Pass(workload, seed, p)
		if err != nil {
			return "", err
		}
		for _, e := range es {
			fmt.Fprintf(&b, "%d;%s\n", p, e.Line())
		}
	}
	return b.String(), nil
}
