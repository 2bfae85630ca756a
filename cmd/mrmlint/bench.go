package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"github.com/performability/csrl/internal/lint"
)

// lintBenchReport is the cold-versus-warm record of the incremental
// cache: a records list plus a lint block with the gate inputs. The gate
// is warm_over_cold < 0.5 — a cache that saves less than half the wall
// time is not pulling its weight — and the command exits 1 when it fails.
// `make bench-smoke` and `make bench-check` write the record under
// .bench_build/.
type lintBenchReport struct {
	Generated string            `json:"generated"`
	GoVersion string            `json:"go_version"`
	NumCPU    int               `json:"num_cpu"`
	Records   []lintBenchRecord `json:"records"`
	Lint      lintBenchStats    `json:"lint"`
}

type lintBenchRecord struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
}

type lintBenchStats struct {
	Packages      int     `json:"packages"`
	Findings      int     `json:"findings"`
	WarmOverCold  float64 `json:"warm_over_cold"`
	ByteIdentical bool    `json:"byte_identical"`
}

// runLintBench times one cold and one warm cached run over the module,
// verifies the two -json diagnostic streams are byte-identical, writes
// the report to outFile and returns the exit code (1 when the warm run is
// not at least twice as fast as cold, or when replay diverges).
func runLintBench(stderr io.Writer, outFile, dir string, patterns []string, analyzers []*lint.Analyzer) int {
	cacheDir, err := os.MkdirTemp("", "mrmlint-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}
	defer func() {
		_ = os.RemoveAll(cacheDir) // best-effort temp cleanup
	}()

	var coldOut bytes.Buffer
	start := time.Now()
	n, cold, err := lintPackagesCached(&coldOut, dir, patterns, analyzers, emitJSON, cacheDir)
	coldDur := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}

	var warmOut bytes.Buffer
	start = time.Now()
	_, warm, err := lintPackagesCached(&warmOut, dir, patterns, analyzers, emitJSON, cacheDir)
	warmDur := time.Since(start)
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}

	identical := bytes.Equal(coldOut.Bytes(), warmOut.Bytes())
	ratio := float64(warmDur) / float64(coldDur)
	report := lintBenchReport{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Records: []lintBenchRecord{
			{Name: "LintModule/cold", NsPerOp: float64(coldDur.Nanoseconds())},
			{Name: "LintModule/warm", NsPerOp: float64(warmDur.Nanoseconds())},
		},
		Lint: lintBenchStats{
			Packages:      cold.Cold,
			Findings:      n,
			WarmOverCold:  ratio,
			ByteIdentical: identical,
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}
	data = append(data, '\n')
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		fmt.Fprintln(stderr, "mrmlint:", err)
		return 2
	}

	fmt.Fprintf(stderr, "mrmlint: bench: cold %s, warm %s over %d package(s) (warm/cold %.3f) -> %s\n",
		coldDur.Round(time.Millisecond), warmDur.Round(time.Millisecond), cold.Cold, ratio, outFile)
	if warm.Warm != cold.Cold {
		fmt.Fprintf(stderr, "mrmlint: bench: warm run served %d of %d package(s) from the cache\n", warm.Warm, cold.Cold)
		return 1
	}
	if !identical {
		fmt.Fprintln(stderr, "mrmlint: bench: warm -json output is not byte-identical to cold")
		return 1
	}
	if ratio >= 0.5 {
		fmt.Fprintf(stderr, "mrmlint: bench: warm run is %.0f%% of cold, want < 50%%\n", ratio*100)
		return 1
	}
	return 0
}
