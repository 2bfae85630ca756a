package main

// The -scale-json / -scale-check modes are the scale acceptance record of
// the truncated-sweep pipeline: -scale-json explores a parametric
// workstation-cluster instance past 10^5 markings, times the dense
// untruncated check against the ledger-charged truncated one on the same
// formula, and writes a BENCH_PR9.json report carrying the speedup, the
// peak active window, the exact truncated mass and the ≤ ε budget proof;
// -scale-check re-validates a committed report's invariants, re-proves the
// budget live on a smaller family member, and times the automatic lumping
// pre-pass on the paper's 9-state model against a lump-off run to catch
// the pre-pass ever costing more than noise on the seed.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
	"github.com/performability/csrl/internal/transient"
)

const (
	// scaleN is the default family knob: 2·(scaleN+1)² = 101 250 markings.
	scaleN = 224
	// scaleCheckN sizes the live budget re-proof of -scale-check (7 442
	// markings — the same code paths at CI-friendly cost).
	scaleCheckN = 60
	// scaleTimeBound and the formulas below ask for the probability of
	// losing the cluster (backbone down or a side exhausted) within four
	// days, starting pristine: the canonical forward-reachability question
	// whose mass stays near the all-up corner.
	scaleTimeBound = 96.0
	scaleQuery     = "P=? [ !down U{t<=96} down ]"
	scaleBounded   = "P<=0.021 [ !down U{t<=96} down ]"
	scaleTruncate  = 1e-14
	scaleEpsilon   = 1e-8
	// scaleSpeedupFloor is the acceptance gate: the truncated check must be
	// at least this much faster than the dense untruncated one.
	scaleSpeedupFloor = 5.0
	// scaleDiffCeil bounds |dense − truncated| on the recorded probability;
	// both carry ≤ ε error so anything near 1e-6 means a real defect.
	scaleDiffCeil = 1e-6
	// seedNoiseFactor is how much slower the lump-on seed check may run
	// than lump-off before -scale-check calls it a regression (the 9-state
	// pre-pass is microseconds; 1.5× absorbs timer noise only).
	seedNoiseFactor = 1.5
)

type scaleReport struct {
	Generated        string  `json:"generated"`
	GoVersion        string  `json:"go_version"`
	NumCPU           int     `json:"num_cpu"`
	N                int     `json:"n"`
	States           int     `json:"states"`
	BuildSeconds     float64 `json:"build_seconds"`
	Query            string  `json:"query"`
	Bounded          string  `json:"bounded"`
	Epsilon          float64 `json:"epsilon"`
	Truncate         float64 `json:"truncate"`
	DenseSeconds     float64 `json:"dense_seconds"`
	TruncatedSeconds float64 `json:"truncated_seconds"`
	Speedup          float64 `json:"speedup"`
	PeakActiveWindow int     `json:"peak_active_window"`
	DroppedStates    int64   `json:"dropped_states"`
	TruncatedMass    float64 `json:"truncated_mass"`
	BudgetTotal      float64 `json:"budget_total"`
	BudgetOK         bool    `json:"budget_ok"`
	DenseProb        float64 `json:"dense_prob"`
	TruncatedProb    float64 `json:"truncated_prob"`
	AbsDiff          float64 `json:"abs_diff"`
}

// scaleTimingRuns is how often each timed leg repeats; the recorded time
// is the fastest run, with a forced GC before each so a collection
// triggered by the other leg's garbage cannot masquerade as sweep cost.
const scaleTimingRuns = 3

func timeBest(runs int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < runs; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// scaleInstance explores the family member and returns the model with its
// down/not-down sets.
func scaleInstance(n int) (*mrm.MRM, time.Duration, error) {
	start := time.Now()
	p, err := cluster.Default(n)
	if err != nil {
		return nil, 0, err
	}
	m, err := p.Build()
	if err != nil {
		return nil, 0, err
	}
	return m, time.Since(start), nil
}

// scaleMeasure runs the dense and truncated legs on the instance and fills
// a report. Lumping is off on both sides so the contrast isolates the
// truncated forward sweep; the csrlcheck acceptance run keeps the lump
// default instead.
func scaleMeasure(w io.Writer, n int, workers int) (*scaleReport, error) {
	rep := &scaleReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		N:         n,
		Query:     scaleQuery,
		Bounded:   scaleBounded,
		Epsilon:   scaleEpsilon,
		Truncate:  scaleTruncate,
	}
	m, buildTime, err := scaleInstance(n)
	if err != nil {
		return nil, err
	}
	rep.States = m.N()
	rep.BuildSeconds = buildTime.Seconds()
	fmt.Fprintf(w, "Scale sweep: cluster N=%d, %d states (built in %v)\n\n", n, m.N(), buildTime.Round(time.Millisecond))

	bounded := logic.MustParse(rep.Bounded)
	query := logic.MustParse(rep.Query)

	denseOpts := core.DefaultOptions()
	denseOpts.Epsilon = scaleEpsilon
	denseOpts.Workers = workers
	denseOpts.Lump = core.LumpOff
	dense := core.New(m, denseOpts)
	var denseHolds bool
	denseTime, err := timeBest(scaleTimingRuns, func() (err error) {
		denseHolds, err = dense.Check(bounded)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.DenseSeconds = denseTime.Seconds()
	vals, err := dense.Values(query)
	if err != nil {
		return nil, err
	}
	rep.DenseProb = vals[m.InitialState()]

	truncOpts := denseOpts
	truncOpts.Truncate = scaleTruncate
	truncOpts.Obs = obs.New()
	trunc := core.New(m, truncOpts)
	var truncHolds bool
	truncTime, err := timeBest(scaleTimingRuns, func() (err error) {
		// Reset per run so the reported ledger is one check's charges, not
		// the timing repeats summed.
		truncOpts.Obs.Reset()
		truncHolds, err = trunc.Check(bounded)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.TruncatedSeconds = truncTime.Seconds()
	if denseHolds != truncHolds {
		return nil, fmt.Errorf("scale: dense and truncated verdicts disagree: %v vs %v", denseHolds, truncHolds)
	}

	nr := trunc.NumericsReport()
	rep.BudgetTotal = nr.BudgetTotal
	rep.BudgetOK = nr.BudgetOK
	rep.PeakActiveWindow = int(nr.Gauges["truncation.active-window"])
	rep.DroppedStates = nr.Counters["truncation.dropped-states"]
	for _, c := range nr.Budget {
		if c.Component == "truncation" && c.Term == "state-drop" {
			rep.TruncatedMass = c.Amount
		}
	}

	// The truncated leg's probability, through the same forward entry point
	// the forward path of Checker.Evaluate uses.
	down := m.Label("down")
	phi := down.Complement()
	prob, err := transient.TimeBoundedUntilFrom(m, phi, down, m.InitialState(), scaleTimeBound, transient.Options{
		Epsilon: scaleEpsilon, Workers: workers, Truncate: scaleTruncate,
	})
	if err != nil {
		return nil, err
	}
	rep.TruncatedProb = prob
	rep.AbsDiff = abs(rep.DenseProb - rep.TruncatedProb)
	if rep.TruncatedSeconds > 0 {
		rep.Speedup = rep.DenseSeconds / rep.TruncatedSeconds
	}

	fmt.Fprintf(w, "  %-28s %v (holds=%v, prob=%.9f)\n", "dense untruncated check:", time.Duration(rep.DenseSeconds*float64(time.Second)).Round(time.Millisecond), denseHolds, rep.DenseProb)
	fmt.Fprintf(w, "  %-28s %v (holds=%v, prob=%.9f)\n", "truncated check:", time.Duration(rep.TruncatedSeconds*float64(time.Second)).Round(time.Millisecond), truncHolds, rep.TruncatedProb)
	fmt.Fprintf(w, "  %-28s %.1fx\n", "speedup:", rep.Speedup)
	fmt.Fprintf(w, "  %-28s %d states (of %d)\n", "peak active window:", rep.PeakActiveWindow, rep.States)
	fmt.Fprintf(w, "  %-28s %d drops, mass %.3g (budget %.3g <= eps %.0e: %v)\n",
		"truncation ledger:", rep.DroppedStates, rep.TruncatedMass, rep.BudgetTotal, rep.Epsilon, rep.BudgetOK)
	fmt.Fprintf(w, "  %-28s %.3g\n\n", "|dense - truncated|:", rep.AbsDiff)
	return rep, nil
}

// scaleGates applies the acceptance invariants shared by the fresh run and
// the committed-report validation.
func scaleGates(rep *scaleReport, wantStates int) error {
	if rep.States < wantStates {
		return fmt.Errorf("scale: %d states, need >= %d", rep.States, wantStates)
	}
	if !rep.BudgetOK {
		return fmt.Errorf("scale: truncation budget %.3g exceeds eps %.0e", rep.BudgetTotal, rep.Epsilon)
	}
	if rep.Speedup < scaleSpeedupFloor {
		return fmt.Errorf("scale: truncated check only %.2fx faster than dense, need >= %.0fx", rep.Speedup, scaleSpeedupFloor)
	}
	if rep.AbsDiff > scaleDiffCeil {
		return fmt.Errorf("scale: dense and truncated probabilities differ by %.3g (> %.0e)", rep.AbsDiff, scaleDiffCeil)
	}
	return nil
}

// scaleJSON runs the full sweep and writes the report.
func scaleJSON(w io.Writer, path string, n, workers int) error {
	rep, err := scaleMeasure(w, n, workers)
	if err != nil {
		return err
	}
	if err := scaleGates(rep, 100_000); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	encErr := enc.Encode(rep)
	if closeErr := f.Close(); encErr == nil {
		encErr = closeErr
	}
	if encErr != nil {
		return encErr
	}
	fmt.Fprintf(w, "wrote scale record to %s\n", path)
	return nil
}

// scaleCheck validates the committed record, re-proves the truncation
// budget live on the smaller family member, and gates the lumping pre-pass
// against noise on the 9-state seed model.
func scaleCheck(w io.Writer, path string, workers int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scale baseline: %w", err)
	}
	var rec scaleReport
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("scale baseline %s: %w", path, err)
	}
	fmt.Fprintf(w, "Scale record %s: N=%d, %d states, speedup %.1fx, budget %.3g <= %.0e: %v\n",
		path, rec.N, rec.States, rec.Speedup, rec.BudgetTotal, rec.Epsilon, rec.BudgetOK)
	if err := scaleGates(&rec, 100_000); err != nil {
		return err
	}

	live, err := scaleMeasure(w, scaleCheckN, workers)
	if err != nil {
		return err
	}
	if !live.BudgetOK {
		return fmt.Errorf("scale: live N=%d truncation budget %.3g exceeds eps %.0e", scaleCheckN, live.BudgetTotal, live.Epsilon)
	}
	if live.AbsDiff > scaleDiffCeil {
		return fmt.Errorf("scale: live N=%d dense/truncated probabilities differ by %.3g", scaleCheckN, live.AbsDiff)
	}

	return seedLumpGate(w)
}

// seedLumpGate times the paper's Q2 check on the 9-state model with the
// automatic lumping pre-pass on and off. Each op builds a fresh checker so
// the pre-pass is paid every time rather than amortised by the memo — the
// honest per-check cost. The two runs do identical numeric work when the
// quotient declines or is trivial, so anything beyond seedNoiseFactor is
// the pre-pass itself, not noise.
func seedLumpGate(w io.Writer) error {
	m, err := adhoc.Model()
	if err != nil {
		return err
	}
	f := logic.MustParse("P>0.5 [ F{t<=24} call_incoming ]")
	timeMode := func(mode core.LumpMode) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.Lump = mode
				if _, err := core.New(m, opts).Check(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	off := timeMode(core.LumpOff)
	on := timeMode(core.LumpAuto)
	ratio := on / off
	fmt.Fprintf(w, "Seed lump gate (9-state model): lump-off %.0f ns/op, lump-auto %.0f ns/op (×%.2f)\n\n", off, on, ratio)
	if ratio > seedNoiseFactor {
		return fmt.Errorf("lump pre-pass slows the seed model ×%.2f (> ×%.2f)", ratio, seedNoiseFactor)
	}
	return nil
}
