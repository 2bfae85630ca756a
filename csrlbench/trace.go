package main

import (
	"fmt"
	"math"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/numeric"
	"github.com/performability/csrl/internal/obs"
)

// span is one interval of the traced replay. Spans the benchmark times
// itself carry real start and end times; spans whose duration comes from
// the program's own obs report (Program) are placed at their parent's
// start, since the report keeps only totals.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root
	Req     int     `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"`
	Program bool    `json:"program,omitempty"`
	Work    int     `json:"work,omitempty"` // items processed, e.g. states built
}

func (s span) dur() float64 { return s.EndUS - s.StartUS }

// tracer holds the spans of one traced run in memory; they are written
// with the run record at the end. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

// start opens a span and returns its id.
func (t *tracer) start(req, parent int, name string) int {
	now := t.us(time.Now())
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartUS: now, EndUS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndUS = t.us(time.Now()) }

// program adds a child whose duration the program's report measured.
func (t *tracer) program(req, parent int, name string, d time.Duration) int {
	at := t.spans[parent-1].StartUS
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		StartUS: at, EndUS: at + float64(d)/float64(time.Microsecond), Program: true})
	return len(t.spans)
}

// selfTimes fills SelfUS: a span's duration minus its children's, never
// below zero. It returns how many spans had children longer than
// themselves (zero when the layer accounting is consistent).
func (t *tracer) selfTimes() int {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	over := 0
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUS = s.dur() - child[s.ID]
		if s.SelfUS < -1 { // 1 µs of clock granularity
			over++
		}
		s.SelfUS = math.Max(s.SelfUS, 0)
	}
	return over
}

// programLayers maps the program's obs span names to their parent in the
// layer tree. Only spans that do not overlap their siblings appear: the
// report's core.sat contains sweeps, so it is read as a count, not placed.
var programLayers = []struct{ name, parent string }{
	{"core.lump", "core.check"},
	{"core.reduce", "core.check"},
	{"core.corner", "core.check"},
	{"sericola.recursion", "core.corner"},
	{"discretise.recursion", "core.corner"},
	{"transient.uniformise", "sweeps"},
	{"transient.sweep", "sweeps"},
}

// graft places the report's spans under the core.check span check. The
// transient sweeps belong to core.corner when the P3 procedure is Erlang
// (it uniformises its expanded model), otherwise to core.check.
func (t *tracer) graft(req, check int, rep *obs.Report) {
	ids := map[string]int{"core.check": check}
	for _, l := range programLayers {
		st, ok := rep.Spans[l.name]
		if !ok {
			continue
		}
		parent := l.parent
		if parent == "sweeps" {
			parent = "core.check"
			if _, erl := rep.Gauges["erlang.k"]; erl && ids["core.corner"] != 0 {
				parent = "core.corner"
			}
		}
		ids[l.name] = t.program(req, ids[parent], l.name, time.Duration(st.Nanos))
	}
}

// replay runs one entry in-process as csrlcheck does — load the model,
// parse the formula, check — with the flags args. With tr set it records
// the benchmark's spans under a root for req and arms an obs recorder.
func (b *bench) replay(e Entry, args []string, tr *tracer, req int) (Answer, time.Duration, *obs.Report, error) {
	opts, err := parseArgs(args)
	if err != nil {
		return Answer{}, 0, nil, err
	}
	start := time.Now()
	begin := func(parent int, name string) int {
		if tr == nil {
			return 0
		}
		return tr.start(req, parent, name)
	}
	end := func(id int) {
		if tr != nil {
			tr.end(id)
		}
	}
	root := begin(0, "check")
	load := "modelfile.decode"
	if strings.HasPrefix(e.Model, "cluster:") {
		load = "srn.build"
	}
	id := begin(root, load)
	m, err := loadModel(e.Model, b.stationPath)
	end(id)
	if err != nil {
		return Answer{}, 0, nil, err
	}
	if tr != nil {
		tr.spans[id-1].Work = m.N()
	}
	id = begin(root, "logic.parse")
	f, err := logic.Parse(e.Formula())
	end(id)
	if err != nil {
		return Answer{}, 0, nil, err
	}
	if tr != nil {
		opts.Obs = obs.New()
	}
	c := core.New(m, opts.Options)
	id = begin(root, "core.check")
	a, err := evaluate(c, m, f, opts.truncated)
	end(id)
	end(root)
	wall := time.Since(start)
	rep := c.NumericsReport()
	if tr != nil && rep != nil {
		tr.graft(req, id, rep)
	}
	return a, wall, rep, err
}

// layerAcc accumulates per-check layer measurements of a traced run.
type layerAcc struct {
	checks     int
	vals       map[string][]float64 // metric -> one value per check that has it
	lumpByModl map[string][]float64 // model -> lump ms per check
}

func newLayerAcc() *layerAcc {
	return &layerAcc{vals: make(map[string][]float64), lumpByModl: make(map[string][]float64)}
}

func (l *layerAcc) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

func spanMS(rep *obs.Report, name string) float64 {
	return float64(rep.Spans[name].Nanos) / float64(time.Millisecond)
}

// addReport reads the program's own counts for one check.
func (l *layerAcc) addReport(e Entry, m *mrm.MRM, rep *obs.Report, eps float64) {
	if rep == nil {
		return
	}
	l.add("lump.ms", spanMS(rep, "core.lump"))
	l.lumpByModl[e.Model] = append(l.lumpByModl[e.Model], spanMS(rep, "core.lump"))
	if st := rep.Gauges["lump.states"]; st > 0 {
		l.add("lump.block_ratio", rep.Gauges["lump.blocks"]/st)
	}
	l.add("core.sat_ms", spanMS(rep, "core.sat"))
	l.add("core.sweeps_per_check", float64(rep.Spans["transient.sweep"].Count))
	l.add("mrm.reduce_ms", spanMS(rep, "core.reduce"))
	l.add("transient.sweep_ms", spanMS(rep, "transient.sweep")+spanMS(rep, "transient.uniformise"))
	products := float64(rep.Counters["sweep.products"])
	l.add("transient.products", products)
	if w := rep.Gauges["foxglynn.window"]; w > 0 {
		l.add("numeric.foxglynn_window", w)
	}
	if w := rep.Gauges["truncation.active-window"]; w > 0 {
		l.add("transient.active_window_peak", w)
	}
	// Computed, not measured: one product reads each stored entry of the
	// uniformised matrix (8-byte value, 4-byte column) and reads and
	// writes one vector element per state. Lumped checks sweep the
	// quotient, whose size is scaled by the block ratio.
	n, nnz := float64(m.N()), float64(m.Rates().NNZ())
	if st := rep.Gauges["lump.states"]; st > 0 {
		r := rep.Gauges["lump.blocks"] / st
		n, nnz = n*r, nnz*r
	}
	l.add("transient.bytes_computed", products*(12*nnz+16*n))
	if lv := rep.Gauges["sericola.levels"]; lv > 0 {
		l.add("sericola.ms_each", spanMS(rep, "sericola.recursion"))
		l.add("sericola.levels", lv)
		l.add("sericola.matrix_passes", lv*math.Max(rep.Gauges["sericola.bands"], 1))
	}
	l.add("sericola.ms", spanMS(rep, "sericola.recursion"))
	l.add("discretise.ms", spanMS(rep, "discretise.recursion"))
	if g := rep.Gauges["discretise.grid"]; g > 0 {
		l.add("discretise.grid_cells", g)
	}
	if k := rep.Gauges["erlang.k"]; k > 0 {
		l.add("erlang.ms_each", spanMS(rep, "core.corner"))
	}
	if eps > 0 {
		l.add("obs.eps_spent_ratio", rep.BudgetTotal/eps)
	}
}

// Reductions of one per-layer metric's values over the traced checks.
const (
	perCheck = iota // mean over every traced check, a check without the layer counting 0
	avgOf           // mean over the checks that have the layer
	medOf           // median over the checks that have the layer
	maxOf           // largest value seen
)

// perLayer lists the per-layer metrics every traced run reports, with
// their units, the values they reduce (source, when not the metric's own
// name) and how. A layer the workload bypasses reports 0.
var perLayer = []struct {
	name, unit, source string
	reduce             int
}{
	{"srn.build_ms", "ms", "", avgOf}, {"srn.states_per_s", "1/s", "", avgOf},
	{"modelfile.decode_ms", "ms", "", avgOf}, {"mrm.fingerprint_ms", "ms", "", avgOf},
	{"lump.ms", "ms", "", perCheck}, {"lump.share", "ratio", "", avgOf}, {"lump.block_ratio", "ratio", "", avgOf},
	{"lump.on_over_off", "ratio", "", medOf}, {"lump.on_over_off_max", "ratio", "lump.on_over_off", maxOf},
	{"core.sat_ms", "ms", "", perCheck}, {"core.self_ms", "ms", "", perCheck},
	{"core.sweeps_per_check", "count", "", perCheck}, {"mrm.reduce_ms", "ms", "", perCheck},
	{"numeric.foxglynn_us", "us", "", medOf}, {"numeric.foxglynn_window", "count", "", avgOf},
	{"transient.sweep_ms", "ms", "", perCheck}, {"transient.products", "count", "", perCheck},
	{"transient.active_window_peak", "count", "", maxOf}, {"transient.bytes_computed", "bytes", "", perCheck},
	{"transient.truncated_over_dense", "ratio", "", medOf},
	{"sericola.ms", "ms", "", perCheck}, {"sericola.levels", "count", "", avgOf}, {"sericola.matrix_passes", "count", "", avgOf},
	{"erlang.ms", "ms", "erlang.ms_each", avgOf}, {"erlang.expanded_states", "count", "", avgOf},
	{"discretise.ms", "ms", "", perCheck}, {"discretise.grid_cells", "count", "", avgOf},
	{"steady.ms", "ms", "", avgOf}, {"logic.parse_us", "us", "", avgOf},
	{"service.batch_size_mean", "count", "", avgOf}, {"service.coalesced_ratio", "ratio", "", avgOf},
	{"service.memo_hit_ratio", "ratio", "", avgOf}, {"service.overhead_ms", "ms", "", medOf},
	{"service.batched_over_unbatched", "ratio", "", medOf},
	{"proc.cpu_s_per_check", "s", "", avgOf}, {"proc.start_ms", "ms", "", medOf},
	{"obs.eps_spent_ratio", "ratio", "", medOf},
	{"trace.overhead_ms", "ms", "", medOf}, {"trace.coverage", "ratio", "", avgOf},
}

// value reduces the values recorded under name.
func (l *layerAcc) value(name string, reduce int) float64 {
	xs := l.vals[name]
	if len(xs) == 0 {
		return 0
	}
	switch reduce {
	case perCheck:
		return sum(xs) / float64(max(l.checks, 1))
	case medOf:
		return median(xs)
	case maxOf:
		return percentile(xs, 100)
	}
	return mean(xs)
}

// runTraced is the --trace 1 run of any workload.
func (b *bench) runTraced() error {
	l := newLayerAcc()
	start, err := b.procStart()
	if err != nil {
		return err
	}
	l.add("proc.start_ms", start)
	if b.workload == "service-mix" {
		err = b.traceService(l)
	} else {
		err = b.traceCLI(l)
	}
	if err != nil {
		return err
	}
	if over := b.spans.selfTimes(); over > 0 {
		b.notef("layer accounting: %d spans have children longer than themselves", over)
	}
	b.layerTimes(l)

	for _, p := range perLayer {
		src := p.source
		if src == "" {
			src = p.name
		}
		b.metric(p.name, l.value(src, p.reduce), p.unit)
	}
	models := make([]string, 0, len(l.lumpByModl))
	for m := range l.lumpByModl {
		models = append(models, m)
	}
	sort.Strings(models)
	for _, m := range models {
		b.notef("lump on %s: mean %.1f ms per check over %d checks", m, mean(l.lumpByModl[m]), len(l.lumpByModl[m]))
	}
	return nil
}

// layerTimes reads the span tree: per-check self time of core itself, the
// share of traced check time the named layers account for, the lump share,
// and the bench-timed load and parse layers.
func (b *bench) layerTimes(l *layerAcc) {
	var checkUS, lumpUS, selfCore, srnUS, srnStates float64
	for _, s := range b.spans.spans {
		switch s.Name {
		case "check", "request":
			checkUS += s.dur()
		case "core.lump":
			lumpUS += s.dur()
		case "core.check", "service.handle":
			l.add("core.self_ms", s.SelfUS/1e3)
			selfCore += s.SelfUS
		case "logic.parse":
			l.add("logic.parse_us", s.dur())
		case "srn.build":
			l.add("srn.build_ms", s.dur()/1e3)
			srnUS += s.dur()
			srnStates += float64(s.Work)
		case "modelfile.decode":
			l.add("modelfile.decode_ms", s.dur()/1e3)
		case "mrm.fingerprint":
			l.add("mrm.fingerprint_ms", s.dur()/1e3)
		}
	}
	if srnUS > 0 {
		l.add("srn.states_per_s", srnStates/srnUS*1e6)
	}
	if checkUS > 0 {
		l.add("trace.coverage", 1-selfCore/checkUS)
		l.add("lump.share", lumpUS/checkUS)
	}
}

// procStart is the median wall time of a csrlcheck process that only
// prints its usage: the process start every CLI check pays.
func (b *bench) procStart() (float64, error) {
	var ts []float64
	for i := 0; i < 7; i++ {
		start := time.Now()
		if err := exec.Command(b.csrlcheck, "-h").Run(); err != nil {
			return 0, fmt.Errorf("csrlcheck -h: %w", err)
		}
		ts = append(ts, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ts), nil
}

// sameText reports whether two query values print identically at
// csrlcheck's ten decimals: bitwise agreement as far as the CLI shows it.
func sameText(a, b Answer) bool {
	if a.Query != b.Query {
		return false
	}
	if a.Query {
		return strconv.FormatFloat(a.Value, 'f', 10, 64) == strconv.FormatFloat(b.Value, 'f', 10, 64)
	}
	return a.Holds == b.Holds && (a.Sat < 0 || b.Sat < 0 || a.Sat == b.Sat)
}

// withArg returns args with flag set to value (appended or replaced).
func withArg(args []string, flag, value string) []string {
	out := make([]string, 0, len(args)+2)
	for i := 0; i < len(args); i++ {
		if args[i] == flag {
			i++
			continue
		}
		if strings.HasPrefix(args[i], flag+"=") {
			continue
		}
		out = append(out, args[i])
	}
	return append(out, flag+"="+value)
}

// traceCLI replays paper-p3 or scale-p1: each entry runs as a csrlcheck
// process (the end-to-end answer), then in-process untraced, traced, with
// lumping off, and — for truncated entries — dense.
func (b *bench) traceCLI(l *layerAcc) error {
	start := time.Now()
	req := 0
	for pass := 0; pass == 0 || time.Since(start) < b.seconds; pass++ {
		es, err := Pass(b.workload, b.seed, pass)
		if err != nil {
			return err
		}
		for _, e := range es {
			req++
			r := b.runCLI(e)
			if !b.gate(e, r.answer, r.err) {
				continue
			}
			l.add("proc.cpu_s_per_check", r.cpu.Seconds())
			au, tu, _, err := b.replay(e, e.Args, nil, req)
			if err != nil {
				return err
			}
			at, tt, rep, err := b.replay(e, e.Args, b.spans, req)
			if err != nil {
				return err
			}
			// Untraced again after the traced replay, so warm caches favour
			// neither side of the overhead.
			au2, tu2, _, err := b.replay(e, e.Args, nil, req)
			if err != nil {
				return err
			}
			tu = (tu + tu2) / 2
			if !sameText(au, r.answer) || !sameText(at, r.answer) || !sameText(au2, r.answer) {
				b.failf(e, "in-process answers %s / %s differ from csrlcheck's %s", au, at, r.answer)
				continue
			}
			l.checks++
			l.add("trace.overhead_ms", float64(tt-tu)/float64(time.Millisecond))
			m, err := loadModel(e.Model, b.stationPath)
			if err != nil {
				return err
			}
			opts, err := parseArgs(e.Args)
			if err != nil {
				return err
			}
			l.addReport(e, m, rep, opts.Epsilon)
			b.probes(l, e, m, opts)

			// Same entry, lumping off: answers agree within the row's
			// tolerance, and the time ratio is lump.on_over_off.
			aoff, toff, _, err := b.replay(e, withArg(e.Args, "-lump", "false"), nil, req)
			if err != nil {
				return err
			}
			if !b.manifest[e.Key()].within(aoff) && !sameText(aoff, au) {
				b.failf(e, "lump off answers %s, lump on %s", aoff, au)
			}
			b.addRatio(l, "lump.on_over_off", e, float64(tu)/float64(toff))
			if e.Truncated() {
				ad, td, _, err := b.replay(e, withArg(e.Args, "-truncate", "0"), nil, req)
				if err != nil {
					return err
				}
				if ad.Query != au.Query || (!au.Query && ad.Holds != au.Holds) ||
					(au.Query && math.Abs(ad.Value-au.Value) > b.manifest[e.Key()].tolerance) {
					b.failf(e, "dense answers %s, truncated %s", ad, au)
				}
				b.addRatio(l, "transient.truncated_over_dense", e, float64(tu)/float64(td))
			}
		}
	}
	return nil
}

// probes times layer functions the check calls internally, outside the
// check's span tree: Fox–Glynn for the entry's time bound, and the
// Theorem 1 reduction that sizes Erlang's expanded model.
func (b *bench) probes(l *layerAcc, e Entry, m *mrm.MRM, opts cliOptions) {
	t := 24.0
	if strings.HasPrefix(e.Consts, "T=") {
		t, _ = strconv.ParseFloat(strings.TrimPrefix(e.Consts, "T="), 64) // the grid holds integers
	}
	if e.Prop != "P2" && e.Prop != "S" && !strings.HasPrefix(e.Prop, "B") {
		q := m.UniformisationRate() * t
		begin := time.Now()
		//lint:ignore ledgercharge the probe only times the weights; they feed no answer, so nothing truncated needs charging
		if _, err := numeric.FoxGlynn(q, opts.Epsilon); err == nil {
			l.add("numeric.foxglynn_us", float64(time.Since(begin))/float64(time.Microsecond))
		}
	}
	if opts.P3 == core.AlgErlang && e.Prop == "Q3" {
		phi := m.Label("call_idle").Union(m.Label("doze"))
		red, err := mrm.ReduceForUntil(m, phi, m.Label("call_initiated"))
		if err == nil {
			l.add("erlang.expanded_states", float64(red.Model.N()*opts.ErlangK))
		}
	}
}

// addRatio records an in-run ratio for the per-layer metric and, per
// entry, in the run record.
func (b *bench) addRatio(l *layerAcc, name string, e Entry, v float64) {
	l.add(name, v)
	b.ratios = append(b.ratios, ratio{Name: name, Entry: e.Line(), Value: v})
}

// failf records a traced-run faithfulness failure against an entry that
// already passed the answer gate.
func (b *bench) failf(e Entry, format string, args ...any) {
	b.res.Failed++
	b.res.Correct = false
	if len(b.failures) < 20 {
		b.failures = append(b.failures, e.Line()+": "+fmt.Sprintf(format, args...))
	}
}
