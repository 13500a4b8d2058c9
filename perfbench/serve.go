package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/serve"
	"incore/internal/store"
	"incore/internal/uarch"
)

// serve-mixed: POST /v1/analyze over loopback HTTP to serve's handler,
// with a store attached in a fresh directory. Load comes from this one
// process over nproc client goroutines, each with one connection.
//
// The seeded mix is 80% hot requests — one of the 416 suite blocks (290
// unique bodies), memo hits once touched — and 20% fresh ones: a suite
// block with one immediate or displacement changed to a value no other
// request uses, so each fresh request parses, analyzes and writes to
// the memo, the compiled tier and the store.
//
// Phases: cold/warm passes (all 416 suite blocks closed-loop, from empty
// tiers and then from the store); an open-loop phase at the base rate,
// each request timed from when it was due; and a ladder of higher rates
// that finds the highest rate whose p99 meets latencyLimit with no
// growing backlog.

const (
	// baseRate is about a third of the capacity measured on a 2-vCPU
	// Xeon host.
	baseRate = 1000.0
	// latencyLimit is the ladder's fixed p99 limit, timed from due time.
	latencyLimit = 50 * time.Millisecond
	// stepDur is how long one ladder step offers its rate.
	stepDur = 2 * time.Second
	// freshPercent is the share of fresh requests in the mix.
	freshPercent = 20
)

// serveSetup is one constructed server with its inputs.
type serveSetup struct {
	hot     []hotReq
	tokens  [][]numToken
	dir     string
	srv     *http.Server
	done    chan struct{}
	url     string
	clients []*http.Client
	oracle  *oracle
	app     *serve.Server
	tracing atomic.Bool // traced runs: record handler spans
}

// hotReq is one suite block as a request.
type hotReq struct {
	arch, name, asm string
	body            []byte
}

// numToken is one immediate or displacement in a block's text.
type numToken struct{ lo, hi int }

var (
	immRE  = regexp.MustCompile(`[$#](-?\d+)\b`)
	dispRE = regexp.MustCompile(`(?:^|[\s,])(-?\d+)\(`)
)

// numTokens finds the integer immediates and displacements of asm.
func numTokens(asm string) []numToken {
	var out []numToken
	for _, re := range []*regexp.Regexp{immRE, dispRE} {
		for _, m := range re.FindAllStringSubmatchIndex(asm, -1) {
			lo, hi := m[2], m[3]
			if hi < len(asm) && asm[hi] == '.' { // a float immediate
				continue
			}
			out = append(out, numToken{lo, hi})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

// request is one generated request of the mix.
type request struct {
	hot  bool
	blk  int // suite index
	tok  int // token index (fresh only)
	val  int64
	body []byte
}

// splitmix64 is a stateless hash, so request i of a phase is a pure
// function of (seed, phase, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixRequest generates request i of phase. Fresh values are unique per
// (phase, i), so no two fresh requests share a block body.
func (s *serveSetup) mixRequest(seed int64, phase, i int) request {
	h := splitmix64(uint64(seed)<<32 ^ uint64(phase)<<24 ^ uint64(i))
	blk := int((h >> 8) % uint64(len(s.hot)))
	if h%100 >= freshPercent {
		return request{hot: true, blk: blk, body: s.hot[blk].body}
	}
	for len(s.tokens[blk]) == 0 {
		blk = (blk + 1) % len(s.hot)
	}
	r := request{blk: blk, tok: int((h >> 32) % uint64(len(s.tokens[blk]))), val: 100_000 + 8*int64(phase*1_000_000+i)}
	r.body = mustJSON(serve.AnalyzeRequest{Arch: s.hot[blk].arch, Name: s.hot[blk].name, Asm: s.freshAsm(r)})
	return r
}

func (s *serveSetup) freshAsm(r request) string {
	h := s.hot[r.blk]
	t := s.tokens[r.blk][r.tok]
	return h.asm[:t.lo] + strconv.FormatInt(r.val, 10) + h.asm[t.hi:]
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings always encode
	}
	return data
}

// newServeSetup builds the inputs, a fresh store, the server and its
// clients, and prewarms the hot set.
func newServeSetup(b *bench) (*serveSetup, error) {
	suite, err := kernels.FullSuite()
	if err != nil {
		return nil, err
	}
	s := &serveSetup{oracle: newOracle()}
	for _, tb := range suite {
		asm := tb.Block.Text()
		s.hot = append(s.hot, hotReq{tb.Config.Arch, tb.Block.Name, asm,
			mustJSON(serve.AnalyzeRequest{Arch: tb.Config.Arch, Name: tb.Block.Name, Asm: asm})})
		s.tokens = append(s.tokens, numTokens(asm))
	}
	if s.dir, err = b.tempDir("serve-store-"); err != nil {
		return nil, err
	}
	if _, err := resetTiers(s.dir); err != nil {
		return nil, err
	}
	if s.app, err = serve.NewWithOptions(serve.Options{JobWorkers: -1}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/analyze"
	s.srv = &http.Server{Handler: s.handler(b.tr, s.app.Handler())}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < b.jobs; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	if _, err := s.closedLoop(b, s.suiteRequests(), "prewarm"); err != nil {
		s.close()
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	return s, nil
}

// close stops the server and its connections and waits for them.
func (s *serveSetup) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	<-s.done
	s.app.Close()
	os.RemoveAll(s.dir)
}

// suiteRequests is the 416 suite blocks in suite order.
func (s *serveSetup) suiteRequests() []request {
	out := make([]request, len(s.hot))
	for i := range s.hot {
		out[i] = request{hot: true, blk: i, body: s.hot[i].body}
	}
	return out
}

// outcome is one request's result.
type outcome struct {
	req      request
	status   int
	lat      time.Duration // from due time (open loop) or send (closed loop)
	late     time.Duration // send time minus due time
	pred     float64
	bound    string
	finished time.Time
}

// post sends one request on client c.
func (s *serveSetup) post(c *http.Client, r request, id int) outcome {
	out := outcome{req: r}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(r.body))
	if err != nil {
		return out
	}
	kind := "hot"
	if !r.hot {
		kind = "fresh"
	}
	req.Header.Set("X-Bench-Kind", kind)
	req.Header.Set("X-Bench-Id", strconv.Itoa(id))
	resp, err := c.Do(req)
	if err != nil {
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out
	}
	out.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var v struct {
			Prediction float64 `json:"prediction"`
			Bound      string  `json:"bound"`
		}
		if json.Unmarshal(data, &v) != nil {
			out.status = -1
		}
		out.pred, out.bound = v.Prediction, v.Bound
	}
	return out
}

// load sends n requests from gen over the clients. rate > 0 is an open
// loop: request i is due at start + i/rate and timed from then; rate 0
// is a closed loop timed from each send.
func (s *serveSetup) load(n int, rate float64, gen func(i int) request) []outcome {
	out := make([]outcome, n)
	runtime.GC() // every phase starts from the same heap state
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, c := range s.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r := gen(i)
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				sent := time.Now()
				o := s.post(c, r, i)
				o.finished = time.Now()
				o.lat = o.finished.Sub(due)
				o.late = sent.Sub(due)
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop sends reqs closed-loop, verifies every answer, and
// returns the wall time; any non-200 answer is also returned as an error.
func (s *serveSetup) closedLoop(b *bench, reqs []request, what string) (time.Duration, error) {
	start := time.Now()
	out := s.load(len(reqs), 0, func(i int) request { return reqs[i] })
	wall := time.Since(start)
	s.verify(b, out, what)
	for _, o := range out {
		if o.status != http.StatusOK {
			return wall, fmt.Errorf("%s: block %d: status %d", what, o.req.blk, o.status)
		}
	}
	return wall, nil
}

// verify counts each outcome as one operation and checks every 200
// answer's prediction and bound against a direct analysis.
func (s *serveSetup) verify(b *bench, out []outcome, what string) {
	for _, o := range out {
		ok := o.status == http.StatusOK
		if !ok {
			b.note("%s: request for block %d: status %d", what, o.req.blk, o.status)
		} else {
			h := s.hot[o.req.blk]
			asm := h.asm
			if !o.req.hot {
				asm = s.freshAsm(o.req)
			}
			want, err := s.oracle.analyze(h.arch, h.name, asm, o.req.hot)
			if err != nil || want.Prediction != o.pred || want.Bound != o.bound {
				ok = false
				b.note("%s: block %d (hot=%t): served %v/%s, direct %v/%s (%v)", what, o.req.blk, o.req.hot,
					o.pred, o.bound, want.Prediction, want.Bound, err)
			}
		}
		b.op(ok)
	}
}

// oracle is the direct core.New().Analyze of a block, cached for the
// hot set (fresh blocks are distinct by construction).
type oracle struct {
	an  *core.Analyzer
	mu  sync.Mutex
	hot map[string]*core.Result
}

func newOracle() *oracle { return &oracle{an: core.New(), hot: map[string]*core.Result{}} }

func (o *oracle) analyze(arch, name, asm string, cache bool) (*core.Result, error) {
	key := arch + "\x00" + asm
	if cache {
		o.mu.Lock()
		r, ok := o.hot[key]
		o.mu.Unlock()
		if ok {
			return r, nil
		}
	}
	m, err := uarch.Get(arch)
	if err != nil {
		return nil, err
	}
	blk, err := isa.ParseMarkedBlock(name, arch, m.Dialect, asm)
	if err != nil {
		return nil, err
	}
	r, err := o.an.Analyze(blk, m)
	if err != nil {
		return nil, err
	}
	if cache {
		o.mu.Lock()
		o.hot[key] = r
		o.mu.Unlock()
	}
	return r, nil
}

// handler returns serve's handler; in a traced run it records a span
// around each call while s.tracing is set.
func (s *serveSetup) handler(tr *tracer, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseInt(r.Header.Get("X-Bench-Id"), 10, 64)
		_, end := tr.begin("serve.Handler/"+r.Header.Get("X-Bench-Kind"), 0, id)
		h.ServeHTTP(w, r)
		end()
	})
}

// coldWarm runs one cold pass (empty tiers, fresh store) and one warm
// pass (empty memo and artifacts, reading that store) over the suite.
func (s *serveSetup) coldWarm(b *bench) (cold, warm time.Duration, err error) {
	os.RemoveAll(s.dir)
	if _, err = resetTiers(s.dir); err != nil {
		return
	}
	reqs := s.suiteRequests()
	if cold, err = s.closedLoop(b, reqs, "cold pass"); err != nil {
		return
	}
	b.count("cold.memo_misses", pipeline.Shared().Stats().Misses)
	b.count("cold.store_misses", pipeline.PersistentStore().Stats().Misses)
	if _, err = resetTiers(s.dir); err != nil {
		return
	}
	if warm, err = s.closedLoop(b, reqs, "warm pass"); err != nil {
		return
	}
	b.count("warm.store_disk_hits", pipeline.PersistentStore().Stats().DiskHits)
	b.count("warm.memo_misses", pipeline.Shared().Stats().Misses)
	return
}

// ladderStep runs one open-loop step at rate for dur. It meets the
// limit when every request is answered 200, the p99 from due time (the
// median over 500-request windows, so one short stall does not decide
// it) is within latencyLimit, and the backlog does not grow: the last
// quarter of the requests was sent within latencyLimit of its due time
// (median). It returns the rate achieved: requests completed per second
// from the first due time to the last completion. Each step starts from
// the memo holding only the hot set, so fresh entries from earlier steps
// do not accumulate.
func (s *serveSetup) ladderStep(b *bench, rate float64, dur time.Duration, phase int) (bool, float64, []outcome, error) {
	pipeline.Shared().Reset()
	pipeline.CompiledArtifacts().Reset()
	if _, err := s.closedLoop(b, s.suiteRequests(), "re-prewarm"); err != nil {
		return false, 0, nil, err
	}
	n := int(rate * dur.Seconds())
	out := s.load(n, rate, func(i int) request { return s.mixRequest(b.seed, phase, i) })
	pass := true
	lat := make([]float64, len(out))
	var late []float64
	first := out[0].finished.Add(-out[0].lat)
	last := first
	for i, o := range out {
		lat[i] = o.lat.Seconds()
		if o.status != http.StatusOK {
			pass = false
		}
		if i >= len(out)*3/4 {
			late = append(late, o.late.Seconds())
		}
		if o.finished.After(last) {
			last = o.finished
		}
	}
	if p99, _ := windowQuantile(lat, 500, 0.99); p99 > latencyLimit.Seconds() || median(late) > latencyLimit.Seconds() {
		pass = false
	}
	return pass, float64(len(out)) / last.Sub(first).Seconds(), out, nil
}

// capacity climbs the ladder from the base rate in 20% steps until a
// step fails, then bisects between the last passing and the first
// failing rate while the budget lasts. It returns the achieved rate of
// the highest passing step.
func (s *serveSetup) capacity(b *bench, budget time.Duration) (float64, int, error) {
	phase := 100
	steps := 0
	best := 0.0
	var ladder []map[string]any
	defer func() { b.detail("ladder", ladder) }()
	check := func(rate float64) (bool, error) {
		phase++
		steps++
		pass, achieved, out, err := s.ladderStep(b, rate, stepDur, phase)
		if err != nil {
			return false, err
		}
		s.verify(b, out, fmt.Sprintf("ladder %.0f req/s", rate))
		ladder = append(ladder, map[string]any{"offered": rate, "achieved": achieved, "pass": pass})
		if pass {
			best = achieved
		}
		return pass, nil
	}
	start := time.Now()
	// Climb while steps pass; a host too slow for the base rate walks
	// down instead, so the ladder always brackets its capacity.
	lo, hi := 0.0, 0.0
	for rate := baseRate; lo == 0 || hi == 0; {
		pass, err := check(rate)
		if err != nil {
			return 0, steps, err
		}
		if pass {
			lo, rate = rate, rate*1.2
		} else {
			hi, rate = rate, rate/1.2
		}
		// A descent runs until a step passes: a capacity must be found.
		if (lo > 0 && time.Since(start) > budget) || (lo == 0 && rate < baseRate/100) {
			break
		}
	}
	for i := 0; i < 3 && lo > 0 && hi > 0 && time.Since(start)+stepDur < budget; i++ {
		mid := (lo + hi) / 2
		pass, err := check(mid)
		if err != nil {
			return 0, steps, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, steps, nil
}

// windowQuantile splits lat, in due order, into windows of w requests
// and returns the median of the windows' q-quantiles (one stall moves
// one window, not the result) and the per-window values.
func windowQuantile(lat []float64, w int, q float64) (float64, []float64) {
	if len(lat) < 2*w {
		return quantile(lat, q), nil
	}
	var qs []float64
	for lo := 0; lo+w <= len(lat); lo += w {
		qs = append(qs, quantile(lat[lo:lo+w], q))
	}
	return median(qs), qs
}

func runServe(b *bench) error {
	pipeline.SetDefaultWorkers(b.jobs)
	var prev *serveSetup
	s, err := repeatSetup(b, 5, func() (*serveSetup, error) {
		if prev != nil {
			prev.close()
		}
		s, err := newServeSetup(b)
		prev = s
		return s, err
	})
	if err != nil {
		if prev != nil {
			prev.close()
		}
		return err
	}
	defer s.close()
	if b.traced() {
		return traceServe(b, s)
	}
	budget := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()

	// Cold/warm pairs run before and after the other phases, so a short
	// disturbance of the host cannot touch all of them.
	var colds, warms []float64
	pairs := func(k int) time.Duration {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			cold, warm, err := s.coldWarm(b)
			b.op(err == nil)
			if err != nil {
				b.note("cold/warm pass: %v", err)
				continue
			}
			colds = append(colds, cold.Seconds())
			warms = append(warms, warm.Seconds())
		}
		return time.Since(t0)
	}
	reserve := pairs(5)

	n := int(baseRate * budget.Seconds() * 0.3)
	b.heap.take()
	memo0 := pipeline.Shared().Stats()
	base := s.load(n, baseRate, func(i int) request { return s.mixRequest(b.seed, 1, i) })
	peak := b.heap.take()
	memo1 := pipeline.Shared().Stats()
	b.count("base.memo_hits", memo1.Hits-memo0.Hits)
	b.count("base.memo_misses", memo1.Misses-memo0.Misses)
	s.verify(b, base, "base rate")
	lat := make([]float64, len(base))
	for i, o := range base {
		lat[i] = o.lat.Seconds() * 1e3
	}

	maxRate, steps, err := s.capacity(b, budget-time.Since(start)-reserve)
	if err != nil {
		return err
	}
	pairs(5)
	if len(colds) == 0 {
		return errors.New("no cold/warm pass completed")
	}
	b.setMedian("cold_s", "s", colds)
	b.setMedian("warm_s", "s", warms)
	// Latency at the base rate, timed from due time: p99 is the median
	// of the p99s of 1000-request windows, each with ten samples beyond.
	p99, windows := windowQuantile(lat, 1000, 0.99)
	b.detail("base_requests", len(lat))
	b.detail("base_p50_ms", median(lat))
	b.detail("base_p90_ms", quantile(lat, 0.9))
	b.detail("base_p99_ms", p99)
	b.detail("base_window_p99_ms", windows)
	b.set("rate_per_s", "1/s", maxRate, steps)
	b.set("peak_heap_mb", "MB", peak, 1)
	return nil
}

// traceServe is the per-layer run: a closed-loop pass over the first
// requests of the mix untraced and then traced (spans around serve's
// handler), a traced open-loop phase at the base rate for the
// generator's lateness, and a replay of the same blocks through the
// public parse, graph, analysis, encoding and store calls.
func traceServe(b *bench, s *serveSetup) error {
	tr := b.tr
	if _, _, err := s.coldWarm(b); err != nil {
		return err
	}
	b.mu.Lock()
	coldStore, warmDisk := b.counts["cold.store_misses"], b.counts["warm.store_disk_hits"]
	b.mu.Unlock()
	storeBytes := dirBytes(s.dir)

	// The unit of work is a closed-loop pass over the first requests of
	// the mix, from a fresh store with the hot set prewarmed; it runs
	// untraced and then traced, with new fresh values each time.
	const n = 1500
	mixed := func(phase int, trace bool) (time.Duration, error) {
		os.RemoveAll(s.dir)
		if _, err := resetTiers(s.dir); err != nil {
			return 0, err
		}
		if _, err := s.closedLoop(b, s.suiteRequests(), "prewarm"); err != nil {
			return 0, err
		}
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = s.mixRequest(b.seed, phase, i)
		}
		s.tracing.Store(trace)
		return s.closedLoop(b, reqs, "mixed pass")
	}
	untraced, err := mixed(11, false)
	if err != nil {
		return err
	}
	from := tr.mark()
	traced, err := mixed(12, true)
	if err != nil {
		return err
	}
	spans := tr.window(from, tr.mark())
	memo := pipeline.Shared().Stats()
	arts := pipeline.CompiledArtifacts().Stats()

	base := s.load(2*int(baseRate), baseRate, func(i int) request { return s.mixRequest(b.seed, 13, i) })
	s.tracing.Store(false)
	s.verify(b, base, "traced base rate")
	var late []float64
	for _, o := range base {
		late = append(late, o.late.Seconds()*1e3)
	}
	if err := replayServe(b, s, 12, 300); err != nil {
		return err
	}

	tr.do("kernels.FullSuite", 0, 0, func() { _, err = kernels.FullSuite() })
	if err != nil {
		return err
	}
	m := layerMetrics{}
	b.detail("generator_late_p99_ms", quantile(late, 0.99))
	m["kernels.suite_ms"] = total(byName(tr.window(from, tr.mark()))["kernels.FullSuite"]).Seconds() * 1e3
	m["store.misses"] = float64(coldStore)
	m["store.disk_hits"] = float64(warmDisk)
	m["store.bytes"] = float64(storeBytes)
	m.pipeline(memo, arts)
	m.coverage(b, spans, untraced, untraced, traced)
	m.emit(b, tr.window(from, tr.mark()))
	return nil
}

// replayServe runs the unique hot blocks and the first fresh blocks of
// phase through the layers' public calls, each in its own span, and
// checks them against the oracle.
func replayServe(b *bench, s *serveSetup, phase, fresh int) error {
	dir, err := b.tempDir("replay-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		return err
	}
	var work []request
	seen := map[string]bool{}
	for i, h := range s.hot {
		if k := h.arch + "\x00" + h.asm; !seen[k] {
			seen[k] = true
			work = append(work, request{hot: true, blk: i})
		}
	}
	for i := 0; len(work) < len(seen)+fresh; i++ {
		if r := s.mixRequest(b.seed, phase, i); !r.hot {
			work = append(work, r)
		}
	}
	an := core.New()
	for i, r := range work {
		h := s.hot[r.blk]
		asm := h.asm
		if !r.hot {
			asm = s.freshAsm(r)
		}
		m, err := uarch.Get(h.arch)
		if err != nil {
			return err
		}
		run := int64(i)
		got, err := traceAnalyze(b, b.tr, an, 0, run, h.name, m, asm)
		if err != nil {
			return err
		}
		b.layerCount("isa.instrs", uint64(len(got.b.Instrs)))
		var data []byte
		b.tr.do("core.MarshalStable", 0, run, func() { data, err = got.res.MarshalStable() })
		if err != nil {
			return err
		}
		key := "replay\x00" + strconv.Itoa(i)
		b.tr.do("store.Put", 0, run, func() { st.Put(key, data) })
		var back []byte
		var ok bool
		b.tr.do("store.Get", 0, run, func() { back, ok = st.Get(key) })
		if !ok {
			return fmt.Errorf("replay store: entry %d missing", i)
		}
		var res *core.Result
		b.tr.do("core.UnmarshalStable", 0, run, func() { res, err = core.UnmarshalStable(back, got.b, m) })
		if err != nil {
			return err
		}
		want, err := s.oracle.analyze(h.arch, h.name, asm, r.hot)
		if err != nil || res.Prediction != want.Prediction || res.Bound != want.Bound {
			b.fail("replay block %d: %v/%s, direct %v (%v)", r.blk, res.Prediction, res.Bound, want, err)
		}
	}
	return nil
}
