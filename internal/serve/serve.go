// Package serve exposes the in-core analyzer as an HTTP JSON API — the
// interactive, OSACA-style "analyze this block on this uarch" service the
// paper's tooling offers, grown to production shape: requests route
// through the same pipeline memo cache and persistent result store as
// batch reproduction (cmd/repro), so served traffic and reproduction
// share one cache and one determinism contract. Analyzing a block over
// HTTP returns exactly what cmd/osaca prints for the same input.
//
// Endpoints (see API.md for the full request/response contract):
//
//	POST   /v1/analyze       one assembly block         → AnalyzeResponse
//	POST   /v1/batch         many blocks in one call    → BatchResponse
//	POST   /v1/sweep         design-space sweep         → sweep.Result
//	POST   /v1/jobs          enqueue a durable batch    → JobSubmitResponse (202)
//	GET    /v1/jobs/{id}     poll status + results      → jobqueue.JobView
//	GET    /v1/jobs          list jobs (?state=)        → JobListResponse
//	DELETE /v1/jobs/{id}     cancel pending items       → jobqueue.JobView
//	GET    /v1/models        models (?limit/offset/arch)→ ModelList
//	POST   /v1/models        register a machine file    → ModelRegistered
//	GET    /v1/models/{key}  export one machine file    → machine-file JSON
//	GET    /v1/store/{hash}  peer-store fetch           → wire envelope
//	PUT    /v1/store/{hash}  peer-store write-behind    → 204
//	GET    /healthz          liveness + accounting      → HealthResponse
//	GET    /metrics          same accounting, Prometheus text format
//
// Every response echoes an X-Request-Id (client-supplied or generated),
// and every non-2xx response carries the unified error envelope
// {"error":{"code","message","request_id"}} — see errors.go.
//
// Machine models are content-addressed: every model has a fingerprint
// (sha256 of its canonical machine file) and results are cached under
// its uarch.Model.CacheKey, so a registered or inline custom machine can
// never collide with a built-in — or another custom machine — in the
// shared memo cache and persistent store. Analyze/batch requests may
// carry an inline "machine" object instead of naming a registered arch.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/jobqueue"
	"incore/internal/pipeline"
	"incore/internal/remotestore"
	"incore/internal/store"
	"incore/internal/uarch"
)

// Default hostile-input limits; see Options.
const (
	// DefaultMaxBodyBytes bounds a request body; an assembly listing is
	// small, and a bound keeps a malformed client from holding memory
	// hostage. Over-limit bodies are rejected with 413 before parsing.
	DefaultMaxBodyBytes = 4 << 20
	// DefaultMaxBlockInstrs bounds one parsed block. The analyzer is
	// near-linear on realistic code, but adversarial blocks can drive
	// its loop-carried-dependency search superlinear; capping the input
	// keeps the worst case small enough for the analysis deadline.
	DefaultMaxBlockInstrs = 1 << 16
	// DefaultAnalysisTimeout bounds one analysis. Any suite block
	// analyzes in well under a second; a request that cannot finish in
	// this budget is pathological, and the worker is released with a 503
	// rather than wedged.
	DefaultAnalysisTimeout = 30 * time.Second
)

// AnalyzeRequest asks for an in-core analysis of one assembly block.
type AnalyzeRequest struct {
	// Arch selects a registered machine model key (GET /v1/models).
	Arch string `json:"arch,omitempty"`
	// Machine optionally carries an inline JSON machine file to analyze
	// against instead of a registered model. The inline model is used
	// for this request only (it is not registered) and its results are
	// cached under its content fingerprint, so it cannot collide with a
	// registered model sharing its key. When both Arch and Machine are
	// given, Arch must match the machine file's key.
	Machine json.RawMessage `json:"machine,omitempty"`
	// Asm is the assembly listing, in the model's dialect.
	// OSACA/LLVM-MCA/IACA region markers are honored when present.
	Asm string `json:"asm"`
	// Name labels the block in the rendered report. Optional; it does
	// not affect the analysis or its cache key.
	Name string `json:"name,omitempty"`
}

// AnalyzeResponse is the analysis outcome for one block.
type AnalyzeResponse struct {
	Name string `json:"name"`
	Arch string `json:"arch"`
	// Prediction is the lower-bound cycles per block iteration;
	// Bound names the binding constraint ("port", "issue", "lcd").
	Prediction    float64 `json:"prediction"`
	Bound         string  `json:"bound"`
	TPBound       float64 `json:"tp_bound"`
	GreedyTPBound float64 `json:"greedy_tp_bound"`
	IssueBound    float64 `json:"issue_bound"`
	CriticalPath  float64 `json:"critical_path"`
	LCDCycles     float64 `json:"lcd_cycles"`
	LCDPath       []int   `json:"lcd_path,omitempty"`
	TotalUops     int     `json:"total_uops"`
	// Coverage reports how the block's instructions resolved against
	// the model; Unknown > 0 marks a degraded analysis (unmodeled
	// mnemonics received conservative synthesized descriptors instead
	// of rejecting the block).
	Coverage CoverageInfo `json:"coverage"`
	// Report is the OSACA-style text report, identical to cmd/osaca's
	// output for the same block and model.
	Report string `json:"report"`
}

// CoverageInfo is the wire form of core.Coverage plus its derived
// covered fraction.
type CoverageInfo struct {
	Exact            int      `json:"exact"`
	Fallback         int      `json:"fallback"`
	Unknown          int      `json:"unknown"`
	Fraction         float64  `json:"fraction"`
	UnknownMnemonics []string `json:"unknown_mnemonics,omitempty"`
}

func coverageInfo(c core.Coverage) CoverageInfo {
	return CoverageInfo{
		Exact: c.Exact, Fallback: c.Fallback, Unknown: c.Unknown,
		Fraction: c.Fraction(), UnknownMnemonics: c.UnknownMnemonics,
	}
}

// BatchRequest carries many analyze requests; results come back in
// request order, each independently succeeding or failing.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchItem is one batch result: exactly one of Result or Error is set.
// Code carries the machine error code (same vocabulary as the top-level
// error envelope) when Error is set.
type BatchItem struct {
	Result *AnalyzeResponse `json:"result,omitempty"`
	Error  string           `json:"error,omitempty"`
	Code   string           `json:"code,omitempty"`
}

// BatchResponse is the ordered outcome of a batch call.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// ModelInfo describes one registered machine model.
type ModelInfo struct {
	Key        string   `json:"key"`
	Name       string   `json:"name"`
	CPU        string   `json:"cpu"`
	Vendor     string   `json:"vendor"`
	Dialect    string   `json:"dialect"`
	Ports      []string `json:"ports"`
	IssueWidth int      `json:"issue_width"`
	// Fingerprint is the sha256 of the model's canonical machine file;
	// CacheKey is the identity results are cached under (bare key for
	// unmodified built-ins, key@fingerprint otherwise).
	Fingerprint string `json:"fingerprint"`
	CacheKey    string `json:"cache_key"`
	// HasNodeParams reports whether the model carries the node-level
	// section (ECM / frequency / roofline calibration).
	HasNodeParams bool `json:"has_node_params"`
}

// ModelRegistered is the response to POST /v1/models.
type ModelRegistered struct {
	Key         string `json:"key"`
	Fingerprint string `json:"fingerprint"`
	CacheKey    string `json:"cache_key"`
	// Created is false when the identical model was already registered
	// (registration is idempotent on content).
	Created bool `json:"created"`
}

// ModelList is the paginated answer to GET /v1/models: the requested
// page plus the total match count before pagination.
type ModelList struct {
	Models []ModelInfo `json:"models"`
	Total  int         `json:"total"`
}

// HealthResponse reports liveness plus the accounting that serves as
// the performance observable (hit counts and queue depths, not
// wall-clock).
type HealthResponse struct {
	Status string         `json:"status"`
	Models int            `json:"models"`
	Cache  pipeline.Stats `json:"cache"`
	Store  *store.Stats   `json:"store,omitempty"`
	// Remote reports the peer-store tier when one is attached: hit,
	// miss, and error counts plus the circuit-breaker state — the
	// observable for the degradation contract (a dead peer shows up
	// here as breaker "open", not as failing requests).
	Remote *remotestore.Stats `json:"remote,omitempty"`
	// Jobs reports the job queue: backlog depth and per-state job
	// counts next to the store accounting.
	Jobs jobqueue.Stats `json:"jobs"`
	// Compiled reports the compiled-artifact tier: programs, parsed
	// blocks, and depgraph skeletons cached for the process lifetime,
	// with hit/attach/compile counts and an estimated byte footprint.
	Compiled pipeline.ArtifactStats `json:"compiled"`
}

// maxInlineModels bounds the parsed-inline-machine cache; above it the
// cache resets rather than grows (entries are cheap to rebuild).
const maxInlineModels = 128

// maxRegisteredModels bounds how many models POST /v1/models will grow
// the process-global registry to. Registrations are permanent for the
// process lifetime (a key, once taken, must keep meaning one scenario),
// so unlike the inline cache they cannot be evicted — the endpoint
// refuses new keys beyond the cap instead of letting an unauthenticated
// client grow the registry without bound. Inline "machine" objects are
// unaffected.
const maxRegisteredModels = 1024

// Options bound what one request may cost the server and configure the
// job queue. Zero values mean the package defaults; AnalysisTimeout < 0
// disables the deadline.
type Options struct {
	// MaxBodyBytes caps a request body; over-limit bodies are rejected
	// with 413 before any parsing.
	MaxBodyBytes int64
	// MaxBlockInstrs caps one parsed block's instruction count; larger
	// blocks are rejected with 413.
	MaxBlockInstrs int
	// AnalysisTimeout bounds one block's analysis. A request exceeding
	// it gets a 503 and its worker is released; the abandoned
	// computation finishes at most once (memo singleflight) and is
	// discarded. Job items run under the same deadline.
	AnalysisTimeout time.Duration
	// JobsDir is the durable root for /v1/jobs records; empty keeps the
	// queue in memory (the endpoints work, jobs die with the process).
	JobsDir string
	// JobWorkers sets how many queue workers drain job items
	// (0 selects GOMAXPROCS; negative starts none, for submit-only
	// tests).
	JobWorkers int
	// MaxJobs bounds retained job records (0 selects the jobqueue
	// default); submissions beyond it are refused with 507.
	MaxJobs int
	// MaxSweepVariants caps one sweep request's declared cross-product
	// (0 selects DefaultMaxSweepVariants; negative disables the cap).
	// Over-cap sweeps are refused with 413 sweep_too_large before any
	// variant model is built.
	MaxSweepVariants int
	// AccessLog, when non-nil, receives one line per request: method,
	// path, status, duration, request ID, and the store warm/cold delta.
	AccessLog *log.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxBlockInstrs == 0 {
		o.MaxBlockInstrs = DefaultMaxBlockInstrs
	}
	if o.AnalysisTimeout == 0 {
		o.AnalysisTimeout = DefaultAnalysisTimeout
	}
	if o.MaxSweepVariants == 0 {
		o.MaxSweepVariants = DefaultMaxSweepVariants
	}
	return o
}

// Server handles analysis requests with one analyzer configuration.
type Server struct {
	an        *core.Analyzer
	opt       Options
	jobs      *jobqueue.Queue
	accessLog *log.Logger

	// inlineMu guards inline, a cache of parsed inline machine files
	// keyed by the sha256 of their raw JSON, so repeated requests
	// carrying the same custom machine skip re-parsing and re-indexing
	// the model on every call.
	inlineMu sync.Mutex
	inline   map[[sha256.Size]byte]*uarch.Model
}

// New returns a server with OSACA-like analyzer defaults — the same
// configuration cmd/osaca and the experiment runners use, so all three
// share cache entries — default hostile-input limits, and a memory-only
// job queue.
func New() *Server {
	s, err := NewWithOptions(Options{})
	if err != nil {
		// Unreachable: only opening a durable queue directory can fail,
		// and the zero Options select a memory-only queue.
		panic(err)
	}
	return s
}

// NewWithOptions is New with explicit limits and job-queue
// configuration. The error is non-nil only when a durable JobsDir
// cannot be opened. Callers own the returned server's lifecycle: Close
// stops the queue workers and checkpoints in-flight jobs.
func NewWithOptions(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	q, err := jobqueue.Open(jobqueue.Options{Dir: opt.JobsDir, Schema: jobsSchema(), MaxJobs: opt.MaxJobs})
	if err != nil {
		return nil, err
	}
	s := &Server{
		an:        core.New(),
		opt:       opt,
		jobs:      q,
		accessLog: opt.AccessLog,
		inline:    make(map[[sha256.Size]byte]*uarch.Model),
	}
	workers := opt.JobWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 0 {
		q.Start(workers, s.runJobItem)
	}
	return s, nil
}

// Close stops the job-queue workers, waits for in-flight items, and
// checkpoints every job so a later server over the same JobsDir resumes
// where this one stopped. Idempotent.
func (s *Server) Close() { s.jobs.Close() }

// JobStats exposes the queue accounting (for /healthz and tests).
func (s *Server) JobStats() jobqueue.Stats { return s.jobs.Stats() }

// Handler returns the route table wrapped in the request-ID middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("POST /v1/models", s.handleRegisterModel)
	mux.HandleFunc("GET /v1/models/{key}", s.handleExportModel)
	mux.HandleFunc("GET /v1/store/{hash}", s.handlePeerGet)
	mux.HandleFunc("PUT /v1/store/{hash}", s.handlePeerPut)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.withRequestID(s.withRecover(mux))
}

// inlineModel parses (or recalls) an inline machine file. Models land in
// a small content-keyed cache: two requests with byte-identical machine
// objects share one parsed *uarch.Model, and — because pipeline keys use
// CacheKey — one set of cached results.
func (s *Server) inlineModel(raw json.RawMessage) (*uarch.Model, error) {
	h := sha256.Sum256(raw)
	s.inlineMu.Lock()
	m, ok := s.inline[h]
	s.inlineMu.Unlock()
	if ok {
		return m, nil
	}
	m, err := uarch.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	s.inlineMu.Lock()
	if len(s.inline) >= maxInlineModels {
		s.inline = make(map[[sha256.Size]byte]*uarch.Model)
	}
	// On a racing double parse the last writer wins; both models carry
	// identical content and CacheKey, so either is fine to serve.
	s.inline[h] = m
	s.inlineMu.Unlock()
	return m, nil
}

// resolveModel picks the machine model for one request: an inline
// machine file if present, a registered key otherwise.
func (s *Server) resolveModel(req *AnalyzeRequest) (*uarch.Model, error) {
	if len(req.Machine) == 0 {
		if req.Arch == "" {
			return nil, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "missing arch")
		}
		m, err := uarch.Get(req.Arch)
		if err != nil {
			// 400, not 404: the resource here is the analysis, and it
			// failed because the request named a model that does not
			// exist — same status as before the envelope redesign.
			return nil, wrapAPIError(CodeModelNotFound, http.StatusBadRequest, err)
		}
		return m, nil
	}
	m, err := s.inlineModel(req.Machine)
	if err != nil {
		return nil, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err)
	}
	if req.Arch != "" && req.Arch != m.Key {
		return nil, apiErrorf(CodeInvalidRequest, http.StatusBadRequest,
			"arch %q does not match inline machine key %q", req.Arch, m.Key)
	}
	return m, nil
}

// analyze runs one request through the memoized pipeline path. Memo
// misses compute on a pooled core.ResultArena from cached artifacts and
// copy the Result out of it, so any number of concurrent requests share
// arenas safely without per-request allocation storms.
func (s *Server) analyze(req AnalyzeRequest) (*AnalyzeResponse, error) {
	resp, _, err := s.analyzeTracked(req)
	return resp, err
}

// analyzeTracked is analyze reporting cache provenance: warm is true
// when the answer came from the memo tier or the persistent store
// without a fresh computation. The job queue records the flag per item,
// which is how a resumed job proves its already-stored items were not
// recomputed.
func (s *Server) analyzeTracked(req AnalyzeRequest) (*AnalyzeResponse, bool, error) {
	if req.Asm == "" {
		return nil, false, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "missing asm")
	}
	m, err := s.resolveModel(&req)
	if err != nil {
		return nil, false, err
	}
	name := req.Name
	if name == "" {
		name = "block"
	}
	// The parse rides the process-wide artifact cache: repeated requests
	// carrying the same listing for the same (arch, dialect) share one
	// parsed block — and, through content keys, one skeleton and one set
	// of memoized results downstream. The returned block is shared; the
	// request pipeline treats blocks as immutable already.
	b, err := pipeline.ParseRequestBlock(name, m.Key, m.Dialect, req.Asm)
	if err != nil {
		return nil, false, wrapAPIError(CodeInvalidRequest, http.StatusBadRequest, err)
	}
	if n := len(b.Instrs); n > s.opt.MaxBlockInstrs {
		return nil, false, apiErrorf(CodeBlockTooLarge, http.StatusRequestEntityTooLarge,
			"block has %d instructions, limit is %d", n, s.opt.MaxBlockInstrs)
	}
	res, warm, err := s.analyzeBounded(b, m)
	if err != nil {
		return nil, false, err
	}
	// The memoized Result may carry the block of an earlier requester
	// with identical content but a different name; render the report
	// against a shallow copy holding this request's block so the label
	// always matches the request.
	labeled := *res
	labeled.Block = b
	return &AnalyzeResponse{
		Name:          name,
		Arch:          m.Key,
		Prediction:    res.Prediction,
		Bound:         res.Bound,
		TPBound:       res.TPBound,
		GreedyTPBound: res.GreedyTPBound,
		IssueBound:    res.IssueBound,
		CriticalPath:  res.CriticalPath,
		LCDCycles:     res.LCD.Cycles,
		LCDPath:       res.LCD.Path,
		TotalUops:     res.TotalUops,
		Coverage:      coverageInfo(res.Coverage),
		Report:        labeled.Report(),
	}, warm, nil
}

// analyzeBounded runs the memoized analysis under the configured
// deadline. On timeout the handler's worker is released with a 503 while
// the abandoned computation runs to completion in its goroutine exactly
// once — the pipeline memo's singleflight guarantees concurrent and
// later requests for the same key attach to that one computation rather
// than piling up fresh ones — and its result is discarded here.
func (s *Server) analyzeBounded(b *isa.Block, m *uarch.Model) (*core.Result, bool, error) {
	if s.opt.AnalysisTimeout < 0 {
		return pipeline.AnalyzeWarm(s.an, b, m)
	}
	type outcome struct {
		res  *core.Result
		warm bool
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		res, warm, err := pipeline.AnalyzeWarm(s.an, b, m)
		done <- outcome{res, warm, err}
	}()
	t := time.NewTimer(s.opt.AnalysisTimeout)
	defer t.Stop()
	select {
	case o := <-done:
		return o.res, o.warm, o.err
	case <-t.C:
		return nil, false, apiErrorf(CodeAnalysisTimeout, http.StatusServiceUnavailable,
			"analysis exceeded the %s deadline", s.opt.AnalysisTimeout)
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	resp, err := s.analyze(req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	// One pipeline map over the shared pool: batch items parallelize
	// exactly like experiment jobs, deduplicate through the same memo
	// tier, and come back in request order. Item failures are data, not
	// a map error, so one bad block cannot veto its neighbors.
	items, _ := pipeline.Map(pipeline.Default(), req.Requests, func(ar AnalyzeRequest) (BatchItem, error) {
		resp, err := s.analyze(ar)
		if err != nil {
			_, code := classify(err)
			return BatchItem{Error: err.Error(), Code: string(code)}, nil
		}
		return BatchItem{Result: resp}, nil
	})
	writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

// dialectName renders a model's dialect for the wire.
func dialectName(m *uarch.Model) string {
	if m.Dialect == isa.DialectAArch64 {
		return "aarch64"
	}
	return "x86"
}

// handleModels lists registered models with offset/limit pagination and
// an optional arch filter matching either a model key or a dialect
// family ("x86", "aarch64"). Total counts matches before pagination, so
// a client can page without a second count request.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, offset := -1, 0
	var err error
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, r, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "invalid limit %q", v))
			return
		}
	}
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			writeError(w, r, apiErrorf(CodeInvalidRequest, http.StatusBadRequest, "invalid offset %q", v))
			return
		}
	}
	arch := q.Get("arch")
	infos := make([]ModelInfo, 0)
	for _, m := range uarch.All() {
		if arch != "" && arch != m.Key && arch != dialectName(m) {
			continue
		}
		infos = append(infos, ModelInfo{
			Key:           m.Key,
			Name:          m.Name,
			CPU:           m.CPU,
			Vendor:        m.Vendor,
			Dialect:       dialectName(m),
			Ports:         m.Ports,
			IssueWidth:    m.IssueWidth,
			Fingerprint:   m.Fingerprint(),
			CacheKey:      m.CacheKey(),
			HasNodeParams: m.Node != nil,
		})
	}
	total := len(infos)
	if offset > len(infos) {
		offset = len(infos)
	}
	infos = infos[offset:]
	if limit >= 0 && limit < len(infos) {
		infos = infos[:limit]
	}
	writeJSON(w, http.StatusOK, ModelList{Models: infos, Total: total})
}

// handleRegisterModel registers the machine file in the request body.
// Registration is idempotent on content; a key collision with different
// content is a 409 so a client can never silently repoint a key (and
// with it the result caches other clients rely on).
func (s *Server) handleRegisterModel(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	m, err := uarch.ReadJSON(body)
	if err != nil {
		writeError(w, r, err)
		return
	}
	// Approximate cap check (racy against concurrent registrations, but
	// the bound is a resource guard, not an exact quota): only refuse
	// keys that would grow the registry — re-registrations of known
	// keys still resolve below so idempotent posts keep working.
	if len(uarch.Keys()) >= maxRegisteredModels {
		if _, err := uarch.Get(m.Key); err != nil {
			writeError(w, r, apiErrorf(CodeRegistryFull, http.StatusInsufficientStorage,
				"model registry is full (%d models); re-register an existing key or use an inline \"machine\" object", maxRegisteredModels))
			return
		}
	}
	// Register decides created-vs-idempotent-vs-conflict under one lock,
	// so concurrent registrations of a key see one consistent outcome.
	created, err := uarch.Register(m)
	if err != nil {
		writeError(w, r, wrapAPIError(CodeModelConflict, http.StatusConflict, err))
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, ModelRegistered{
		Key: m.Key, Fingerprint: m.Fingerprint(), CacheKey: m.CacheKey(), Created: created,
	})
}

// handleExportModel writes the machine file of one registered model —
// the round-trip counterpart of POST /v1/models and cmd/modelinfo
// -export; re-registering the exported bytes is a no-op.
func (s *Server) handleExportModel(w http.ResponseWriter, r *http.Request) {
	m, err := uarch.Get(r.PathValue("key"))
	if err != nil {
		writeError(w, r, wrapAPIError(CodeModelNotFound, http.StatusNotFound, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	m.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:   "ok",
		Models:   len(uarch.Keys()),
		Cache:    pipeline.Shared().Stats(),
		Jobs:     s.jobs.Stats(),
		Compiled: pipeline.CompiledArtifacts().Stats(),
	}
	if st := pipeline.PersistentStore(); st != nil {
		stats := st.Stats()
		resp.Store = &stats
		if rc, ok := st.Remote().(*remotestore.Client); ok {
			rs := rc.Stats()
			resp.Remote = &rs
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
