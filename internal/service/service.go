// Package service implements the long-running HTTP/JSON checker service
// behind cmd/csrld: the "millions of users" architecture move of the
// roadmap, where everything the batch CLI builds per process — parsed
// models, the checker memo (uniformised matrices, Fox–Glynn tables, lump
// quotients), the vector pools, the parallel engine — becomes shared
// infrastructure serving many concurrent requests.
//
// The moving parts:
//
//   - a parse-once model registry keyed by mrm.Fingerprint(): re-uploading
//     the same model file lands on the existing entry, whose shared
//     core.Checker keeps every cross-request cache warm (pointer-identity
//     memo keys don't survive re-parsing, content hashes do);
//   - per-request obs.Recorder instances grafted onto the shared checker
//     with Checker.WithRecorder, so each response carries its own error
//     ledger and Σ charges ≤ ε budget proof — a shared recorder would
//     merge concurrent requests' charges and falsify the proof;
//   - a batched admission layer (batch.go) that coalesces concurrent
//     queries against the same model, differing only in their reward
//     bound, onto one core.Checker.EvaluateGroup call — one Sericola
//     recursion over the memoised uniformised matrix for the whole batch.
//
// Numerical options (ε, procedure, workers, truncation, lump mode) are
// fixed per service instance rather than per request: batched requests
// must be exchangeable, and one configuration per deployment is what makes
// results reproducible across the fleet.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/performability/csrl/internal/core"
	"github.com/performability/csrl/internal/logic"
	"github.com/performability/csrl/internal/modelfile"
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/obs"
)

// DefaultMemoCap is the per-table memo bound for service checkers. A
// service holds the hot tables of many recurring queries, so the bound is
// two orders of magnitude above the CLI default; at ~n·nnz floats per
// uniformised matrix the cap, not the entry count, is what keeps a
// pathological query stream from growing the cache without bound.
const DefaultMemoCap = 4096

// DefaultBatchWindow is how long the admission layer holds the first
// query of a batch group open for companions. Two milliseconds is far
// below human-visible latency and far above the scheduling jitter of
// concurrently submitted requests — the coalescing case it exists for.
const DefaultBatchWindow = 2 * time.Millisecond

// DefaultMaxModels bounds the registry; uploads past the cap are refused
// rather than silently evicting a model another client is querying.
const DefaultMaxModels = 64

// maxUploadBytes bounds one model upload (16 MiB of JSON is ~10^5 states
// with names — past what the dense procedures handle anyway).
const maxUploadBytes = 16 << 20

// Options configures a Server.
type Options struct {
	// Checker is the numerical configuration every model's shared checker
	// runs with. Obs must be nil: recorders are per request by design.
	Checker core.Options
	// MemoCap overrides the per-table memo bound (0 = DefaultMemoCap).
	MemoCap int
	// BatchWindow is the admission coalescing window (0 = DefaultBatchWindow,
	// negative = batching off).
	BatchWindow time.Duration
	// MaxModels bounds the registry (0 = DefaultMaxModels).
	MaxModels int
}

// Server is the checker service: an http.Handler serving the /v1 API over
// a registry of models with shared checkers. All methods are safe for
// concurrent use.
type Server struct {
	opts Options

	mu     sync.RWMutex
	models map[string]*modelEntry // keyed by fingerprint, guarded by mu

	requests atomic.Int64 // /v1/check requests admitted
	failures atomic.Int64 // /v1/check requests answered with an error status
}

// modelEntry is one registered model with its cross-request shared state.
type modelEntry struct {
	fp      string
	m       *mrm.MRM
	checker *core.Checker // recorder-free base; requests graft their own
	batch   *batcher
	uploads atomic.Int64 // uploads that landed on this entry (first included)
}

// New builds a server. Options.Checker.Obs must be nil (ledgers are per
// request); a non-nil recorder is rejected loudly rather than silently
// shared.
func New(opts Options) (*Server, error) {
	if opts.Checker.Obs != nil {
		return nil, errors.New("service: Options.Checker.Obs must be nil; recorders are per-request")
	}
	if opts.MemoCap == 0 {
		opts.MemoCap = DefaultMemoCap
	}
	if opts.BatchWindow == 0 {
		opts.BatchWindow = DefaultBatchWindow
	}
	if opts.MaxModels == 0 {
		opts.MaxModels = DefaultMaxModels
	}
	opts.Checker.MemoCap = opts.MemoCap
	return &Server{opts: opts, models: make(map[string]*modelEntry)}, nil
}

// Register adds a model to the registry directly (the programmatic
// counterpart of POST /v1/models, used for preloading). It returns the
// fingerprint and whether the model was new.
func (s *Server) Register(m *mrm.MRM) (string, bool, error) {
	fp := m.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.models[fp]; ok {
		s.models[fp].uploads.Add(1)
		return fp, false, nil
	}
	if len(s.models) >= s.opts.MaxModels {
		return "", false, fmt.Errorf("service: registry full (%d models); raise -max-models or retire a deployment", s.opts.MaxModels)
	}
	entry := &modelEntry{fp: fp, m: m, checker: core.New(m, s.opts.Checker)}
	entry.batch = newBatcher(entry.checker, s.opts.BatchWindow)
	entry.uploads.Add(1)
	s.models[fp] = entry
	return fp, true, nil
}

func (s *Server) lookup(fp string) *modelEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.models[fp]
}

// Handler returns the service's HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/check", s.handleCheck)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// apiError is the JSON error envelope; every non-2xx response carries one.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful left to do on error
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ModelInfo is one registry row of GET /v1/models and the response of a
// POST /v1/models upload.
type ModelInfo struct {
	Fingerprint string         `json:"fingerprint"`
	States      int            `json:"states"`
	Labels      []string       `json:"labels"`
	Created     bool           `json:"created,omitempty"` // true on first upload
	Uploads     int64          `json:"uploads"`
	Memo        core.MemoStats `json:"memo"`
}

func (e *modelEntry) info(created bool) ModelInfo {
	return ModelInfo{
		Fingerprint: e.fp,
		States:      e.m.N(),
		Labels:      e.m.Labels(),
		Created:     created,
		Uploads:     e.uploads.Load(),
		Memo:        e.checker.MemoStats(),
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		m, err := modelfile.Decode(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "model upload: %v", err)
			return
		}
		fp, created, err := s.Register(m)
		if err != nil {
			writeError(w, http.StatusInsufficientStorage, "%v", err)
			return
		}
		status := http.StatusOK
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, s.lookup(fp).info(created))
	case http.MethodGet:
		s.mu.RLock()
		fps := make([]string, 0, len(s.models))
		for fp := range s.models {
			fps = append(fps, fp)
		}
		s.mu.RUnlock()
		sort.Strings(fps)
		out := make([]ModelInfo, 0, len(fps))
		for _, fp := range fps {
			if e := s.lookup(fp); e != nil {
				out = append(out, e.info(false))
			}
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use POST to upload or GET to list")
	}
}

// CheckRequest is the body of POST /v1/check.
type CheckRequest struct {
	// Model is the fingerprint returned by the model upload.
	Model string `json:"model"`
	// Formula is the CSRL formula to check or query.
	Formula string `json:"formula"`
	// States requests the per-state value/verdict listing (costly at
	// scale; off by default).
	States bool `json:"states,omitempty"`
}

// CheckResponse is the body of a successful POST /v1/check.
type CheckResponse struct {
	Model   string `json:"model"`
	Formula string `json:"formula"`
	// Kind is "query" for P=?/S=? formulas, "bounded" otherwise.
	Kind string `json:"kind"`
	// Value is the α-weighted value from the initial distribution (query
	// formulas only).
	Value *float64 `json:"value,omitempty"`
	// Holds reports whether every positive-initial-mass state satisfies
	// the formula (bounded formulas only).
	Holds *bool `json:"holds,omitempty"`
	// Satisfying counts Sat(Φ) (bounded formulas only). It is absent when
	// the service truncates and the forward path answered without the
	// per-state results (see core.Checker.Evaluate).
	Satisfying *int `json:"satisfying,omitempty"`
	// Values/Verdicts list per-state results when CheckRequest.States set.
	Values   []float64 `json:"values,omitempty"`
	Verdicts []bool    `json:"verdicts,omitempty"`
	// Batched reports the admission layer coalesced this request with
	// BatchSize-1 concurrent companions into one numerical computation;
	// the report's charges then bound every member's error (the members
	// share the computation, hence its ledger).
	Batched   bool `json:"batched,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// Report is this request's numerics report: the error-budget ledger
	// with its Σ charges ≤ ε verdict (BudgetOK), counters, gauges, spans.
	Report *obs.Report `json:"report"`
	// BudgetOK mirrors Report.BudgetOK at the top level — the per-response
	// budget proof the smoke and the clients assert on.
	BudgetOK bool `json:"budget_ok"`
	// Memo snapshots the model's cross-request memo traffic after this
	// request; hits climbing while misses stay flat across identical
	// waves is the no-re-uniformisation signal.
	Memo core.MemoStats `json:"memo"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	s.requests.Add(1)
	var req CheckRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	entry := s.lookup(req.Model)
	if entry == nil {
		s.failures.Add(1)
		writeError(w, http.StatusNotFound, "unknown model %q; upload it via POST /v1/models first", req.Model)
		return
	}
	formula, err := logic.Parse(req.Formula)
	if err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusBadRequest, "parse formula: %v", err)
		return
	}
	if err := validAtoms(entry.m, formula); err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp, err := s.check(entry, formula, req.States)
	if err != nil {
		s.failures.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "check: %v", err)
		return
	}
	resp.Model = entry.fp
	resp.Formula = formula.String()
	writeJSON(w, http.StatusOK, resp)
}

// check evaluates one request against the entry's shared checker. Formulas
// with a batched evaluation go through the admission layer; everything else
// runs directly under a per-request recorder.
func (s *Server) check(entry *modelEntry, f logic.StateFormula, listStates bool) (*CheckResponse, error) {
	var resp *CheckResponse
	if key, ok := core.GroupOf(f); ok {
		br, err := entry.batch.admit(key, f)
		if err != nil {
			return nil, err
		}
		resp = respond(br.res, listStates)
		resp.Batched, resp.BatchSize, resp.Report = br.size > 1, br.size, br.report
	} else {
		view := entry.checker.WithRecorder(obs.New())
		res, err := view.Evaluate(f, listStates)
		if err != nil {
			return nil, err
		}
		resp = respond(res, listStates)
		resp.Report = view.NumericsReport()
	}
	resp.BudgetOK = resp.Report.BudgetOK
	resp.Memo = entry.checker.MemoStats()
	return resp, nil
}

// respond renders one core.Result as a response body.
func respond(res *core.Result, listStates bool) *CheckResponse {
	if res.Query {
		resp := &CheckResponse{Kind: "query", Value: &res.Value}
		if listStates {
			resp.Values = res.Values
		}
		return resp
	}
	resp := &CheckResponse{Kind: "bounded", Holds: &res.Holds}
	if res.Sat != nil {
		n := res.Sat.Len()
		resp.Satisfying = &n
		if listStates {
			resp.Verdicts = make([]bool, res.Sat.Universe())
			for i := range resp.Verdicts {
				resp.Verdicts[i] = res.Sat.Contains(i)
			}
		}
	}
	return resp
}

// validAtoms rejects formulas naming labels the model does not carry. The
// checker itself treats an unknown atom as an empty satisfaction set —
// sound for one-shot CLI runs where the user sees the model and formula
// side by side, but in a service a typo would silently answer "false
// everywhere", so the API refuses it with the label inventory instead.
func validAtoms(m *mrm.MRM, f logic.StateFormula) error {
	known := make(map[string]bool)
	for _, l := range m.Labels() {
		known[l] = true
	}
	for _, a := range logic.Atoms(f) {
		if !known[a] {
			return fmt.Errorf("formula names label %q which the model does not carry (labels: %v)", a, m.Labels())
		}
	}
	return nil
}

// Stats is the body of GET /v1/stats: the live health surface.
type Stats struct {
	Models   []ModelInfo `json:"models"`
	Requests int64       `json:"requests"`
	Failures int64       `json:"failures"`
	// Batches counts admission batches fired; Coalesced counts requests
	// that shared a batch with at least one companion; MaxBatch is the
	// largest batch so far.
	Batches   int64 `json:"batches"`
	Coalesced int64 `json:"coalesced"`
	MaxBatch  int64 `json:"max_batch"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// Snapshot assembles the service-wide statistics.
func (s *Server) Snapshot() Stats {
	s.mu.RLock()
	entries := make([]*modelEntry, 0, len(s.models))
	for _, e := range s.models {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	st := Stats{Requests: s.requests.Load(), Failures: s.failures.Load()}
	for _, e := range entries {
		st.Models = append(st.Models, e.info(false))
		bs := e.batch.snapshot()
		st.Batches += bs.batches
		st.Coalesced += bs.coalesced
		if bs.maxBatch > st.MaxBatch {
			st.MaxBatch = bs.maxBatch
		}
	}
	return st
}
