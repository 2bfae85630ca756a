package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cliRun is one csrlcheck process: its wall time, its answer as parsed
// from standard output, and the rusage the kernel reports for it.
type cliRun struct {
	wall   time.Duration
	answer Answer
	err    error
	rssKB  int64
	cpu    time.Duration
}

// modelArg maps an entry's model to csrlcheck's -model argument.
func (b *bench) modelArg(model string) string {
	if model == "station" {
		return b.stationPath
	}
	return model
}

// runCLI runs one check as its own csrlcheck process. Exit code 2 (the
// formula does not hold) is a verdict, not a failure.
func (b *bench) runCLI(e Entry) cliRun {
	args := append([]string{"-model", b.modelArg(e.Model)}, e.Args...)
	args = append(args, e.Formula())
	cmd := exec.Command(b.csrlcheck, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
			r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit) && exit.ExitCode() == 2:
	default:
		r.err = fmt.Errorf("csrlcheck %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
		return r
	}
	r.answer, r.err = parseCLIOutput(out.String(), e.IsQuery())
	return r
}

// parseCLIOutput reads the answer lines csrlcheck prints.
func parseCLIOutput(out string, query bool) (Answer, error) {
	a := Answer{Query: query, Sat: -1}
	seen := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "value from the initial distribution: "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, "value from the initial distribution: "), 64)
			if err != nil {
				return a, fmt.Errorf("csrlcheck value: %w", err)
			}
			a.Value, seen = v, true
		case strings.HasPrefix(line, "holds in the initial state(s): "):
			a.Holds = strings.TrimPrefix(line, "holds in the initial state(s): ") == "true"
			seen = true
		case strings.HasPrefix(line, "satisfying states: ") && !strings.Contains(line, "not computed"):
			var n, total int
			if _, err := fmt.Sscanf(line, "satisfying states: %d of %d", &n, &total); err != nil {
				return a, fmt.Errorf("csrlcheck satisfying states: %w", err)
			}
			a.Sat = n
		}
	}
	if !seen {
		return a, fmt.Errorf("csrlcheck printed no answer: %q", out)
	}
	return a, nil
}

// runCLIWorkload is the untraced run of paper-p3 or scale-p1.
func (b *bench) runCLIWorkload() error {
	// Set-up: the workload's boolean checks, several times; the median
	// rep's total is setup_s. The reps also warm the page cache.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		var total time.Duration
		for _, e := range setupEntries(b.workload) {
			r := b.runCLI(e)
			b.gate(e, r.answer, r.err)
			total += r.wall
		}
		setups = append(setups, total.Seconds())
	}

	var walls []float64
	var cpu time.Duration
	var rssKB int64
	// Whole cycles only, at least one: the tail percentile follows from
	// that minimum sample count (see tailPercentile). Another cycle starts
	// only if, at the mean cycle time so far, it ends within 1.25× the
	// run's seconds, so a run lasts about --seconds whatever the machine.
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass%cycle == 0 && pass > 0 {
			elapsed := time.Since(start)
			perCycle := elapsed / time.Duration(pass/cycle)
			if elapsed+perCycle > b.seconds*5/4 {
				break
			}
		}
		if time.Since(start) > hardCap {
			b.notef("stopped after %d passes at the %v cap", pass, hardCap)
			break
		}
		es, err := Pass(b.workload, b.seed, pass)
		if err != nil {
			return err
		}
		for _, e := range es {
			r := b.runCLI(e)
			b.gate(e, r.answer, r.err)
			walls = append(walls, float64(r.wall)/float64(time.Millisecond))
			cpu += r.cpu
			rssKB = max(rssKB, r.rssKB)
		}
	}
	elapsed := time.Since(start)
	q := tailPercentile(cycle * len(mustPass(b.workload, b.seed)))
	b.metric("setup_s", median(setups), "s")
	b.metric("p50_ms", median(walls), "ms")
	b.metric("tail_ms", percentile(walls, q), "ms")
	b.metric("rate_per_s", float64(len(walls))/elapsed.Seconds(), "1/s")
	b.metric("peak_rss_mb", float64(rssKB)/1024, "MB")
	b.notef("check_p50_ms %.3f ms, check_tail_ms (p%g) %.3f ms over %d checks; checks_per_s %.4f; cpu_s_per_check %.4f",
		median(walls), q, percentile(walls, q), len(walls), float64(len(walls))/elapsed.Seconds(),
		cpu.Seconds()/float64(len(walls)))
	return nil
}

func mustPass(workload string, seed int64) []Entry {
	es, _ := Pass(workload, seed, 0) // the workload name was validated at start
	return es
}
