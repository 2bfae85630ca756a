// Command csrlbench is the repository's end-to-end benchmark. It drives the
// shipped entry points — one csrlcheck process per check, or one csrld
// process over HTTP — from a single seeded generator, checks every answer
// against the reference manifest, and prints its metrics. Run it from the
// repository root through run.sh, which builds everything from source:
//
//	bash csrlbench/run.sh --workload paper-p3 --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	paper-p3     the paper's evaluation: station Q3 by Sericola, Erlang and
//	             discretisation, station F{r<=R}, cluster:12..20 P3 queries
//	scale-p1     time-bounded untils on cluster:60/120/224, half truncated
//	service-mix  an open loop against csrld at a fixed rate, then a rate
//	             ladder for the highest rate that meets the latency limit
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics: setup_s, p50_ms, tail_ms, rate_per_s and
// peak_rss_mb. With --trace 1 the run replays the same checks in-process
// under the benchmark's own spans and prints the per-layer metrics instead
// (see trace.go). Each run also writes a record with provenance and, when
// traced, the span tree to .bench_build/records/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/performability/csrl/internal/adhoc"
	"github.com/performability/csrl/internal/modelfile"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 11
	// hardCap ends a run's measuring loop even when it has not reached
	// its minimum passes, so a run always exits well within 180 s.
	hardCap = 110 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	workload    string
	seed        int64
	seconds     time.Duration
	traced      bool
	root, build string
	csrlcheck   string
	csrld       string
	stationPath string
	manifest    manifest

	res      result
	failures []string
	notes    []string
	spans    *tracer
	ratios   []ratio // in-run ratios, one per entry (traced runs)
}

// ratio is one in-run ratio of a traced run: the same entry timed two ways
// in one run, so it compares across machines.
type ratio struct {
	Name  string  `json:"name"`
	Entry string  `json:"entry"`
	Value float64 `json:"value"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrlbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("csrlbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "paper-p3 | scale-p1 | service-mix")
	seed := fs.Int64("seed", 1, "generator seed; the same seed gives the same request list")
	seconds := fs.Int("seconds", 15, "how long a run measures")
	trace := fs.Int("trace", 0, "1 = traced in-process replay with per-layer metrics")
	root := fs.String("root", ".", "repository root")
	build := fs.String("build", ".bench_build", "build directory holding bin/ (from run.sh)")
	writeManifestPath := fs.String("write-manifest", "", "recompute the reference manifest into this file and exit")
	list := fs.Int("list", 0, "print this many passes of the request list and exit")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		root:     *root,
		build:    *build,
		res:      result{Correct: true, Metrics: make(map[string]metricValue)},
	}
	b.csrlcheck = filepath.Join(b.build, "bin", "csrlcheck")
	b.csrld = filepath.Join(b.build, "bin", "csrld")
	if err := b.writeStation(); err != nil {
		return 1, err
	}
	if *writeManifestPath != "" {
		return 0, writeManifestFile(*writeManifestPath, b.stationPath)
	}
	if _, err := Pass(b.workload, b.seed, 0); err != nil {
		return 2, err
	}
	if *list > 0 {
		s, err := RequestList(b.workload, b.seed, *list)
		fmt.Print(s)
		return 0, err
	}
	m, err := parseManifest(manifestText)
	if err != nil {
		return 1, err
	}
	b.manifest = m
	for _, bin := range []string{b.csrlcheck, b.csrld} {
		if _, err := os.Stat(bin); err != nil {
			return 1, fmt.Errorf("binary missing (run through run.sh): %w", err)
		}
	}

	b.notef("provenance: go %s, nproc %d, GOMAXPROCS %d, commit %s, workload %s, seed %d, seconds %d, trace %d",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(b.root), b.workload, b.seed, *seconds, *trace)
	switch {
	case b.traced:
		b.spans = newTracer()
		err = b.runTraced()
	case b.workload == "service-mix":
		err = b.runService()
	default:
		err = b.runCLIWorkload()
	}
	if err != nil {
		return 1, err
	}
	return 0, b.finish()
}

// writeStation writes the paper's 9-state station model where csrlcheck
// and csrld read it.
func (b *bench) writeStation() error {
	dir := filepath.Join(b.build, "work")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b.stationPath = filepath.Join(dir, "station.json")
	m, err := adhoc.Model()
	if err != nil {
		return err
	}
	var sb strings.Builder
	if err := modelfile.Encode(&sb, m); err != nil {
		return err
	}
	return os.WriteFile(b.stationPath, []byte(sb.String()), 0o644)
}

// gate checks one answer against the manifest. An error, a refusal, a
// failed budget proof (reported through err) or an answer outside the
// row's tolerance is a failure.
func (b *bench) gate(e Entry, got Answer, err error) bool {
	b.res.Attempted++
	if err == nil {
		r, ok := b.manifest[e.Key()]
		switch {
		case !ok:
			err = fmt.Errorf("no manifest row")
		case !r.within(got):
			err = fmt.Errorf("answer %s, manifest %s (tolerance %g)", got, r.expected, r.tolerance)
		}
	}
	if err != nil {
		b.res.Failed++
		b.res.Correct = false
		if len(b.failures) < 20 {
			b.failures = append(b.failures, e.Line()+": "+err.Error())
		}
		return false
	}
	return true
}

// metric records a result. A value that is not finite (a latency
// percentile landing on failed requests) is reported as the largest float,
// which JSON can carry; the run is already marked incorrect.
func (b *bench) metric(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.notef("%s is not finite (%v): failed requests reach it", name, v)
		v = math.MaxFloat64
	}
	b.res.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// finish prints the report — human-readable lines, then the result JSON
// as the last line — and writes the run record.
func (b *bench) finish() error {
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	fail := 0.0
	if b.res.Attempted > 0 {
		fail = float64(b.res.Failed) / float64(b.res.Attempted)
	}
	fmt.Printf("fail_ratio %g (%d of %d)\n", fail, b.res.Failed, b.res.Attempted)
	names := make([]string, 0, len(b.res.Metrics))
	for n := range b.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %.6g %s\n", n, b.res.Metrics[n].Value, b.res.Metrics[n].Unit)
	}
	if b.res.Attempted == 0 {
		b.res.Attempted, b.res.Failed, b.res.Correct = 1, 1, false
	}
	if err := b.writeRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "csrlbench: record:", err)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// writeRecord stores the run's provenance, notes, metrics and, for traced
// runs, the span tree under records/ in the build directory.
func (b *bench) writeRecord() error {
	dir := filepath.Join(b.build, "records")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit(b.root),
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds.Seconds(),
		"traced":     b.traced,
		"result":     b.res,
		"notes":      b.notes,
		"failures":   b.failures,
	}
	if b.spans != nil {
		rec["spans"] = b.spans.spans
		rec["ratios"] = b.ratios
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", b.workload, b.seed, b.traced)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// commit reads the checked-out commit from .git when there is one; a
// plain source checkout reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}
