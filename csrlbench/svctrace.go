package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/performability/csrl/internal/cluster"
	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/service"
	"github.com/performability/csrl/internal/steady"
)

// inProcess is a service.Server built the way csrld builds it, with the
// benchmark's spans around model construction and registration.
type inProcess struct {
	handler http.Handler
	opts    core.Options
	fps     map[string]string
	models  map[string]*mrm.MRM
}

// newInProcess mirrors csrld's defaults: sericola, ε = 1e-9, lumping on,
// no truncation, the default memo cap — and the given batch window.
func (b *bench) newInProcess(window time.Duration, tr *tracer, req int) (*inProcess, error) {
	opts, err := parseArgs(nil) // csrlcheck's defaults are csrld's
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{Checker: opts.Options, BatchWindow: window})
	if err != nil {
		return nil, err
	}
	p := &inProcess{handler: srv.Handler(), opts: opts.Options, fps: make(map[string]string), models: make(map[string]*mrm.MRM)}
	begin := func(name string) int {
		if tr == nil {
			return 0
		}
		return tr.start(req, 0, name)
	}
	end := func(id int) {
		if tr != nil {
			tr.end(id)
		}
	}
	id := begin("srn.build")
	params, err := cluster.Default(60)
	if err != nil {
		return nil, err
	}
	c60, err := params.Build()
	end(id)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.spans[id-1].Work = c60.N()
	}
	data, err := os.ReadFile(b.stationPath)
	if err != nil {
		return nil, err
	}
	id = begin("modelfile.decode")
	station, err := modelfile.Decode(bytes.NewReader(data))
	end(id)
	if err != nil {
		return nil, err
	}
	for spec, m := range map[string]*mrm.MRM{"cluster:60": c60, "station": station} {
		id = begin("mrm.fingerprint")
		m.Fingerprint()
		end(id)
		fp, _, err := srv.Register(m)
		if err != nil {
			return nil, err
		}
		p.fps[spec], p.models[spec] = fp, m
	}
	return p, nil
}

// serve answers one check through the handler, as csrld would over HTTP.
func (p *inProcess) serve(e Entry) (*service.CheckResponse, error) {
	body, err := json.Marshal(service.CheckRequest{Model: p.fps[e.Model], Formula: e.Formula()})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var cr service.CheckResponse
	return &cr, json.Unmarshal(rec.Body.Bytes(), &cr)
}

// sameBits reports whether two service answers agree bit for bit.
func sameBits(a, b *service.CheckResponse) bool {
	x, y := responseAnswer(a), responseAnswer(b)
	if x.Query != y.Query {
		return false
	}
	if x.Query {
		return math.Float64bits(x.Value) == math.Float64bits(y.Value)
	}
	return x.Holds == y.Holds && x.Sat == y.Sat
}

func memoTotals(st service.Stats) (hits, misses int64) {
	for _, m := range st.Models {
		hits += m.Memo.Hits
		misses += m.Memo.Misses
	}
	return hits, misses
}

// traceService replays service-mix: csrld answers each request over HTTP
// (closed loop, one at a time), then an in-process server built the same
// way answers it under the benchmark's spans. The two must agree bit for
// bit; the difference in time is the service overhead (HTTP, JSON, the
// process boundary). An open-loop phase at the fixed rate gives the
// batching counts, and a separate in-process comparison the batching gain.
func (b *bench) traceService(l *layerAcc) error {
	conns := runtime.NumCPU()
	d, err := b.startDaemon(conns)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	p, err := b.newInProcess(0, b.spans, 0)
	if err != nil {
		return err
	}
	for spec, fp := range p.fps {
		if d.fps[spec] != fp {
			b.failf(Entry{Model: spec}, "in-process fingerprint %s, csrld %s", fp, d.fps[spec])
		}
	}
	pass := 0
	warm, err := b.stream(40, &pass)
	if err != nil {
		return err
	}
	for _, e := range warm {
		if _, err := d.check(e); err != nil {
			return fmt.Errorf("warm-up %s: %w", e.Line(), err)
		}
		if _, err := p.serve(e); err != nil {
			return fmt.Errorf("warm-up in-process %s: %w", e.Line(), err)
		}
	}
	before, err := d.stats()
	if err != nil {
		return err
	}

	served := 0
	start := time.Now()
	for req := 1; req <= 40 || time.Since(start) < b.seconds/2; req++ {
		es, err := b.stream(1, &pass)
		if err != nil {
			return err
		}
		e := es[0]
		begin := time.Now()
		resp, err := d.check(e)
		client := time.Since(begin)
		served++
		var a Answer
		if resp != nil {
			a = responseAnswer(resp)
		}
		if !b.gate(e, a, err) {
			continue
		}
		id := b.spans.start(req, 0, "logic.parse")
		_, perr := logic.Parse(e.Formula())
		b.spans.end(id)
		if perr != nil {
			return perr
		}
		t0 := time.Now()
		if _, err := p.serve(e); err != nil {
			b.failf(e, "in-process: %v", err)
			continue
		}
		untraced := time.Since(t0)
		root := b.spans.start(req, 0, "request")
		h := b.spans.start(req, root, "service.handle")
		in, err := p.serve(e)
		b.spans.end(h)
		b.spans.end(root)
		if err != nil {
			b.failf(e, "in-process: %v", err)
			continue
		}
		if !sameBits(in, resp) {
			b.failf(e, "in-process answer %s, csrld %s", responseAnswer(in), a)
			continue
		}
		b.spans.graft(req, h, in.Report)
		l.checks++
		handle := b.spans.spans[h-1].dur() * float64(time.Microsecond)
		l.add("service.overhead_ms", (float64(client)-handle)/float64(time.Millisecond))
		l.add("trace.overhead_ms", b.spans.spans[root-1].dur()/1e3-float64(untraced)/float64(time.Millisecond))
		l.addReport(e, p.models[e.Model], in.Report, in.Report.Epsilon)
		b.probes(l, e, p.models[e.Model], cliOptions{Options: p.opts})
		if e.Prop == "S" {
			m := p.models[e.Model]
			t0 := time.Now()
			if _, err := steady.Probabilities(m, m.Label("doze")); err == nil {
				l.add("steady.ms", float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
	}
	mid, err := d.stats()
	if err != nil {
		return err
	}
	h0, m0 := memoTotals(before)
	h1, m1 := memoTotals(mid)
	if h1+m1 > h0+m0 {
		l.add("service.memo_hit_ratio", float64(h1-h0)/float64(h1+m1-h0-m0))
	}

	// Batching as the open loop sees it at the fixed rate.
	es, err := b.stream(int(svcRate*4), &pass)
	if err != nil {
		return err
	}
	ph := d.openLoop(es, svcRate, conns, 0)
	b.latencies(ph)
	after, err := d.stats()
	if err != nil {
		return err
	}
	batchable := 0
	for _, e := range es {
		if e.Prop == "Q3" {
			batchable++
		}
	}
	if n := after.Batches - mid.Batches; n > 0 && batchable > 0 {
		l.add("service.batch_size_mean", float64(batchable)/float64(n))
		l.add("service.coalesced_ratio", float64(after.Coalesced-mid.Coalesced)/float64(batchable))
	}
	served += len(es)
	_, cpu := d.stop()
	d = nil
	l.add("proc.cpu_s_per_check", cpu.Seconds()/float64(served+len(warm)))
	return b.batchGain(l)
}

// batchGain offers groups of four batchable station queries, differing
// only in r, concurrently to two in-process servers — one with csrld's
// admission window, one with batching off — and records the ratio of the
// group's wall times. The answers must agree bit for bit.
func (b *bench) batchGain(l *layerAcc) error {
	batched, err := b.newInProcess(0, nil, 0)
	if err != nil {
		return err
	}
	single, err := b.newInProcess(-1, nil, 0)
	if err != nil {
		return err
	}
	warm := Entry{"station", "Q3", rConst(rewardGrid[0]), nil}
	for _, p := range []*inProcess{batched, single} {
		if _, err := p.serve(warm); err != nil {
			return err
		}
	}
	group := func(p *inProcess, es []Entry) (time.Duration, []*service.CheckResponse, error) {
		out := make([]*service.CheckResponse, len(es))
		errs := make([]error, len(es))
		var wg sync.WaitGroup
		start := time.Now()
		for i := range es {
			wg.Add(1)
			//lint:ignore goroutinemisuse concurrent submission is what lets the admission window coalesce the group
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = p.serve(es[i])
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, nil, err
			}
		}
		return wall, out, nil
	}
	grid := newRNG(b.seed, 7).perm(len(rewardGrid))
	for g := 0; g < 6; g++ {
		es := make([]Entry, 4)
		for i := range es {
			es[i] = Entry{"station", "Q3", rConst(rewardGrid[latin(grid, i, 4, g)]), nil}
		}
		tb, rb, err := group(batched, es)
		if err != nil {
			return err
		}
		tu, ru, err := group(single, es)
		if err != nil {
			return err
		}
		for i := range es {
			if !sameBits(rb[i], ru[i]) {
				b.failf(es[i], "batched answer %s, unbatched %s", responseAnswer(rb[i]), responseAnswer(ru[i]))
			}
		}
		b.addRatio(l, "service.batched_over_unbatched", es[0], float64(tb)/float64(tu))
	}
	return nil
}
