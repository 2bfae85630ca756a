package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/performability/csrl/internal/service"
)

const (
	// svcRate is the fixed offered rate (requests per second) at which
	// svc_p50_ms and svc_tail_ms are measured.
	svcRate = 20.0
	// svcLimit is the latency limit the tail must meet for a ladder rung
	// to pass.
	svcLimit = 250 * time.Millisecond
	// probeTime is how long one ladder rung is offered, and how long the
	// closed loop runs that tells the ladder where to start.
	probeTime = 2500 * time.Millisecond
	// svcMinRequests is the fixed-rate phase's guaranteed sample count,
	// which fixes its tail percentile.
	svcMinRequests = 160
)

// ladder is the fixed set of offered rates svc_max_rps is searched on:
// 5% steps from 5 to about 400 requests per second.
func ladder() []float64 {
	var rs []float64
	for r := 5.0; r < 400; r *= 1.05 {
		rs = append(rs, r)
	}
	return rs
}

// daemon is one running csrld with its models registered.
type daemon struct {
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	base    string
	client  *http.Client
	fps     map[string]string // model spec -> fingerprint
	station string            // station model file to upload
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts csrld with cluster:60 preloaded (built by the server
// from its SRN), uploads the station model file, and returns once /healthz
// answers and both fingerprints are known.
func (b *bench) startDaemon(conns int) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
		fps:     make(map[string]string),
		station: b.stationPath,
	}
	d.cmd = exec.Command(b.csrld, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-preload", "cluster:60")
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	if err := d.ready(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) ready() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := d.do(http.MethodGet, "/healthz", nil, nil)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("csrld not healthy after 30 s: %v: %s", err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	station, err := os.ReadFile(d.station)
	if err != nil {
		return err
	}
	var info service.ModelInfo
	if _, err := d.do(http.MethodPost, "/v1/models", station, &info); err != nil {
		return fmt.Errorf("upload station: %w", err)
	}
	d.fps["station"] = info.Fingerprint
	var models []service.ModelInfo
	if _, err := d.do(http.MethodGet, "/v1/models", nil, &models); err != nil {
		return err
	}
	for _, m := range models {
		if m.States == 2*61*61 {
			d.fps["cluster:60"] = m.Fingerprint
		}
	}
	if d.fps["cluster:60"] == "" {
		return fmt.Errorf("preloaded cluster:60 not listed")
	}
	return nil
}

// stop ends csrld and returns its peak RSS in KiB and CPU time.
func (d *daemon) stop() (int64, time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine: Wait reports it
	_ = d.cmd.Wait()                          // killed by the signal by design
	d.client.CloseIdleConnections()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss, time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return 0, 0
}

// do sends one request to csrld and decodes a 2xx JSON body into v (when
// v is non-nil). Any other status is an error carrying the body.
func (d *daemon) do(method, path string, body []byte, v any) (int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if v == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, v)
}

// check sends one check request. A refusal or a failed budget proof is an
// error.
func (d *daemon) check(e Entry) (*service.CheckResponse, error) {
	body, err := json.Marshal(service.CheckRequest{Model: d.fps[e.Model], Formula: e.Formula()})
	if err != nil {
		return nil, err
	}
	var cr service.CheckResponse
	if _, err := d.do(http.MethodPost, "/v1/check", body, &cr); err != nil {
		return nil, err
	}
	if !cr.BudgetOK {
		return &cr, fmt.Errorf("budget proof failed: %g > %g", cr.Report.BudgetTotal, cr.Report.Epsilon)
	}
	return &cr, nil
}

func (d *daemon) stats() (service.Stats, error) {
	var st service.Stats
	_, err := d.do(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// responseAnswer turns a response into the answer the manifest checks.
func responseAnswer(r *service.CheckResponse) Answer {
	if r.Kind == "query" && r.Value != nil {
		return Answer{Query: true, Value: *r.Value}
	}
	a := Answer{Sat: -1}
	if r.Holds != nil {
		a.Holds = *r.Holds
	}
	if r.Satisfying != nil {
		a.Sat = *r.Satisfying
	}
	return a
}

// svcResult is one request of an open-loop phase.
type svcResult struct {
	e       Entry
	due     time.Time
	latency time.Duration // completion minus due time
	resp    *service.CheckResponse
	err     error
}

// phase is the outcome of offering one rate.
type phase struct {
	results  []svcResult   // the requests sent
	lateness time.Duration // how late the generator released its latest request
	backlog  int           // requests still queued when the schedule ended
	aborted  bool          // the backlog passed the limit and sending stopped
	elapsed  time.Duration // first due time to last completion
}

// openLoop offers the entries at rate requests per second, each due at
// start + i/rate, over at most conns connections. A request waits for a
// free connection if all are busy; its latency runs from its due time.
// With maxBacklog > 0, sending stops once more requests than that wait:
// the backlog is growing, and the rest of the schedule would only queue.
func (d *daemon) openLoop(es []Entry, rate float64, conns, maxBacklog int) phase {
	type job struct {
		i   int
		due time.Time
	}
	results := make([]svcResult, len(es))
	queue := make(chan job, len(es)) // sized to the number of sends
	var wg sync.WaitGroup
	var pending atomic.Int64
	for w := 0; w < conns; w++ {
		wg.Add(1)
		//lint:ignore goroutinemisuse one HTTP client per connection; these wait on the server, they run no numerics
		go func() {
			defer wg.Done()
			for j := range queue {
				pending.Add(-1)
				resp, err := d.check(es[j.i])
				results[j.i] = svcResult{e: es[j.i], due: j.due, latency: time.Since(j.due), resp: resp, err: err}
			}
		}()
	}
	var ph phase
	start := time.Now()
	sent := 0
	for ; sent < len(es); sent++ {
		if maxBacklog > 0 && pending.Load() > int64(maxBacklog) {
			ph.aborted = true
			break
		}
		due := start.Add(time.Duration(float64(sent) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		ph.lateness = max(ph.lateness, time.Since(due))
		pending.Add(1)
		queue <- job{sent, due}
	}
	ph.backlog = int(pending.Load())
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.results = results[:sent]
	return ph
}

// stream returns n service-mix entries, continuing the pass sequence from
// *pass, so successive phases of a run see fresh (but seeded) requests.
func (b *bench) stream(n int, pass *int) ([]Entry, error) {
	var es []Entry
	for len(es) < n {
		p, err := Pass(b.workload, b.seed, *pass)
		if err != nil {
			return nil, err
		}
		*pass++
		es = append(es, p...)
	}
	return es[:n], nil
}

// latencies gates every result and returns the latencies in ms; a failed
// request counts as missing the limit (+Inf).
func (b *bench) latencies(ph phase) []float64 {
	var ms []float64
	for _, r := range ph.results {
		var a Answer
		if r.resp != nil {
			a = responseAnswer(r.resp)
		}
		if b.gate(r.e, a, r.err) {
			ms = append(ms, float64(r.latency)/float64(time.Millisecond))
		} else {
			ms = append(ms, math.Inf(1))
		}
	}
	return ms
}

// maxRate finds svc_max_rps. A closed loop of conns clients, back to back
// for probeTime, estimates the capacity; the ladder is then walked down
// from the highest rung not above it until a rung passes: every request
// answered correctly, the tail within svcLimit, and no more queued at the
// end of the schedule than drains within the limit. The result is the rate
// achieved on that rung. A backlog of a second's worth of requests ends a
// probe early as failed.
func (b *bench) maxRate(d *daemon, conns int, pass *int) (float64, error) {
	es, err := b.stream(int(400*probeTime.Seconds()), pass)
	if err != nil {
		return 0, err
	}
	capacity := d.closedLoop(es, conns, probeTime)
	rungs := ladder()
	i := len(rungs) - 1
	for i > 0 && rungs[i] > capacity {
		i--
	}
	limitMS := float64(svcLimit) / float64(time.Millisecond)
	for ; i >= 0; i-- {
		rate := rungs[i]
		es, err := b.stream(max(40, int(rate*probeTime.Seconds())), pass)
		if err != nil {
			return 0, err
		}
		ph := d.openLoop(es, rate, conns, max(conns, int(rate)))
		lat := b.latencies(ph)
		tail := percentile(lat, tailPercentile(len(lat)))
		ok := !ph.aborted && tail <= limitMS && !math.IsInf(percentile(lat, 100), 1) &&
			float64(ph.backlog) <= max(float64(conns), rate*svcLimit.Seconds())
		b.notef("ladder %.1f req/s (closed-loop capacity %.1f): tail %.1f ms, backlog %d, aborted %v, pass %v",
			rate, capacity, tail, ph.backlog, ph.aborted, ok)
		if ok {
			return float64(len(ph.results)) / ph.elapsed.Seconds(), nil
		}
	}
	return 0, fmt.Errorf("no rung of the ladder met the %v limit", svcLimit)
}

// closedLoop sends es back to back over conns connections for d and
// returns the completed requests per second. Answers are not gated: this
// only sizes the ladder search.
func (d *daemon) closedLoop(es []Entry, conns int, dur time.Duration) float64 {
	var next, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		//lint:ignore goroutinemisuse one HTTP client per connection; these wait on the server, they run no numerics
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := next.Add(1) - 1
				if int(i) >= len(es) {
					return
				}
				if _, err := d.check(es[i]); err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// peakRSS reads csrld's peak resident set so far, in KiB.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// runService is the untraced service-mix run.
func (b *bench) runService() error {
	conns := runtime.NumCPU()
	var setups []float64
	var d *daemon
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		var err error
		d, err = b.startDaemon(conns)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < setupReps-1 {
			d.stop()
		}
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	pass := 0
	// Warm-up: every skeleton once, closed loop, not measured.
	warm, err := b.stream(40, &pass)
	if err != nil {
		return err
	}
	for _, e := range warm {
		_, err := d.check(e)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", e.Line(), err)
		}
	}
	before, err := d.stats()
	if err != nil {
		return err
	}

	n := max(svcMinRequests, int(svcRate*b.seconds.Seconds()/2))
	es, err := b.stream(n, &pass)
	if err != nil {
		return err
	}
	fixed := d.openLoop(es, svcRate, conns, 0)
	lat := b.latencies(fixed)
	q := tailPercentile(svcMinRequests)
	after, err := d.stats()
	if err != nil {
		return err
	}
	// Peak RSS as of the fixed-rate phase: the rate ladder overloads the
	// server on purpose, and what that leaves in the heap varies.
	rssKB, err := d.peakRSS()
	if err != nil {
		return err
	}

	best, err := b.maxRate(d, conns, &pass)
	if err != nil {
		return err
	}
	_, cpu := d.stop()
	d = nil

	b.metric("setup_s", median(setups), "s")
	b.metric("p50_ms", median(lat), "ms")
	b.metric("tail_ms", percentile(lat, q), "ms")
	b.metric("rate_per_s", best, "1/s")
	b.metric("peak_rss_mb", float64(rssKB)/1024, "MB")
	b.notef("svc_p50_ms %.3f ms, svc_tail_ms (p%g) %.3f ms over %d requests at %.0f req/s offered; generator lateness max %.3f ms",
		median(lat), q, percentile(lat, q), len(lat), svcRate, float64(fixed.lateness)/float64(time.Millisecond))
	b.notef("svc_max_rps %.3f (latency limit %v on the tail); batches %d, coalesced %d in the fixed phase; csrld cpu %.3f s",
		best, svcLimit, after.Batches-before.Batches, after.Coalesced-before.Coalesced, cpu.Seconds())
	return nil
}
