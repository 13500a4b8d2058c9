package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/experiments"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/mca"
	"incore/internal/memsim"
	"incore/internal/nodes"
	"incore/internal/pipeline"
	"incore/internal/serve"
	"incore/internal/sim"
	"incore/internal/store"
	"incore/internal/uarch"
)

// repro-paper: all eight experiments plus Render at -j nproc, as
// `repro -exp all -j nproc` runs them. A cold pass starts from an empty
// memo, an empty compiled-artifact tier and a fresh store directory; a
// warm pass empties memo and artifacts again and reads the store the
// cold pass wrote. The inputs are the paper's fixed experiment set, so
// the seed selects nothing here but the name of the run.

type renderer interface{ Render() string }

type experiment struct {
	name string
	run  func() (renderer, error)
}

// reproOrder is cmd/repro's canonical experiment order.
var reproOrder = []experiment{
	{"table1", func() (renderer, error) { r, err := experiments.RunTable1(); return nilIfErr(r, err) }},
	{"table2", func() (renderer, error) { r, err := experiments.RunTable2(); return nilIfErr(r, err) }},
	{"table3", func() (renderer, error) { r, err := experiments.RunTable3(); return nilIfErr(r, err) }},
	{"fig2", func() (renderer, error) { r, err := experiments.RunFig2(); return nilIfErr(r, err) }},
	{"fig3", func() (renderer, error) { r, err := experiments.RunFig3(); return nilIfErr(r, err) }},
	{"fig4", func() (renderer, error) { r, err := experiments.RunFig4(); return nilIfErr(r, err) }},
	{"ecm", func() (renderer, error) { r, err := experiments.RunECM(); return nilIfErr(r, err) }},
	{"nodeperf", func() (renderer, error) { r, err := experiments.RunNodePerf(); return nilIfErr(r, err) }},
}

// nilIfErr keeps a typed nil pointer out of the renderer interface.
func nilIfErr[T renderer](r T, err error) (renderer, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// reproPass is one pass's outcome.
type reproPass struct {
	wall    time.Duration
	text    string // cmd/repro -exp all text-mode stdout
	results []renderer
}

// resetTiers empties the memo and compiled-artifact tiers and attaches
// the store at dir (a fresh directory makes the pass cold).
func resetTiers(dir string) (*store.Store, error) {
	pipeline.Shared().Reset()
	pipeline.CompiledArtifacts().Reset()
	return pipeline.AttachStore(dir)
}

// runReproPass runs the experiment graph once and renders cmd/repro's
// text output.
func runReproPass() (reproPass, error) {
	p := reproPass{results: make([]renderer, len(reproOrder))}
	texts := make([]string, len(reproOrder))
	runtime.GC() // every pass starts from the same heap state
	start := time.Now()
	g := pipeline.NewGraph(pipeline.Default())
	for i, e := range reproOrder {
		i, e := i, e
		if err := g.Add(e.name, func() (any, error) {
			r, err := e.run()
			if err != nil {
				return nil, err
			}
			texts[i] = r.Render()
			p.results[i] = r
			return nil, nil
		}); err != nil {
			return p, err
		}
	}
	if err := g.Run(); err != nil {
		return p, err
	}
	var sb strings.Builder
	for i, e := range reproOrder {
		fmt.Fprintf(&sb, "================ %s ================\n", e.name)
		sb.WriteString(texts[i])
		sb.WriteByte('\n')
	}
	p.wall = time.Since(start)
	p.text = sb.String()
	return p, nil
}

// checkReproPass verifies one pass against the golden and records its
// exact counts under the pass kind.
func (b *bench) checkReproPass(kind string, p reproPass, err error) bool {
	if err != nil {
		b.op(false)
		b.note("repro %s pass: %v", kind, err)
		return false
	}
	ok := checkGolden(b, "repro "+kind+" pass", sha(p.text), goldenRepro)
	b.op(ok)
	st := pipeline.Shared().Stats()
	cs := pipeline.CompiledArtifacts().Stats()
	b.count(kind+".memo_hits", st.Hits)
	b.count(kind+".memo_misses", st.Misses)
	b.count(kind+".memo_entries", uint64(st.Entries))
	b.count(kind+".compiles", cs.Compiles)
	b.count(kind+".compiled_hits", cs.Hits+cs.Attaches)
	if ps := pipeline.PersistentStore(); ps != nil {
		ss := ps.Stats()
		b.count(kind+".store_warm", ss.Warm())
		b.count(kind+".store_misses", ss.Misses)
	}
	return ok
}

// checkGolden compares a digest with its committed golden; the caller
// counts the operation.
func checkGolden(b *bench, what, got, want string) bool {
	if got != want {
		b.note("%s: output sha256 %s, golden %s", what, got, want)
		return false
	}
	return true
}

func runRepro(b *bench) error {
	pipeline.SetDefaultWorkers(b.jobs)
	// Set-up generates the 416-block suite (Fig. 3's inputs, which the
	// experiments regenerate internally) and constructs a fresh store.
	var prev string
	dir, err := repeatSetup(b, 9, func() (string, error) {
		if prev != "" {
			os.RemoveAll(prev)
		}
		if _, err := kernels.FullSuite(); err != nil {
			return "", err
		}
		dir, err := b.tempDir("repro-store-")
		if err != nil {
			return "", err
		}
		prev = dir
		_, err = resetTiers(dir)
		return dir, err
	})
	if err != nil {
		return err
	}
	if b.traced() {
		return traceRepro(b, dir)
	}

	const warmPerCold = 8
	var colds, warms, rates, peaks []float64
	budget := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()
	b.heap.take()
	for {
		pairStart := time.Now()
		if _, err := resetTiers(dir); err != nil {
			return err
		}
		cold, err := runReproPass()
		if b.checkReproPass("cold", cold, err) {
			colds = append(colds, cold.wall.Seconds())
			rates = append(rates, float64(pipeline.Shared().Stats().Misses)/cold.wall.Seconds())
			b.recordAccuracy(cold.results)
		}
		for w := 0; w < warmPerCold; w++ {
			if _, err := resetTiers(dir); err != nil {
				return err
			}
			warm, err := runReproPass()
			if b.checkReproPass("warm", warm, err) {
				warms = append(warms, warm.wall.Seconds())
			}
		}
		peaks = append(peaks, b.heap.take())
		os.RemoveAll(dir)
		elapsed := time.Since(start)
		if elapsed+time.Since(pairStart) > budget {
			break
		}
		if dir, err = b.tempDir("repro-store-"); err != nil {
			return err
		}
	}
	if len(colds) == 0 || len(warms) == 0 {
		return fmt.Errorf("no pass completed")
	}
	b.setMedian("cold_s", "s", colds)
	b.setMedian("warm_s", "s", warms)
	b.setMedian("rate_per_s", "1/s", rates)
	b.setMedian("peak_heap_mb", "MB", peaks)
	return nil
}

// accuracyRow is one deterministic model output next to the paper's
// published value and the value this repository reproduces today
// (EXPERIMENTS.md). A change in any of them flags a modelling change.
type accuracyRow struct {
	Name      string   `json:"name"`
	Paper     *float64 `json:"paper"`
	Simulated float64  `json:"simulated"`
	Expected  float64  `json:"expected"`
	OK        bool     `json:"ok"`
}

func ptr(v float64) *float64 { return &v }

// recordAccuracy derives the accuracy record from one cold pass's typed
// results; rounding follows the precision EXPERIMENTS.md reports.
func (b *bench) recordAccuracy(results []renderer) {
	var rows []accuracyRow
	add := func(name string, paper *float64, sim, expected, unit float64) {
		got := math.Round(sim/unit) * unit
		rows = append(rows, accuracyRow{name, paper, sim, expected, math.Abs(got-expected) < unit/2})
	}
	for _, r := range results {
		switch r := r.(type) {
		case *experiments.Table1:
			for _, row := range r.Rows {
				ref := tableIBandwidth[row.Node.Key]
				add("table1.mem_bw_gbs."+row.Node.Key, ref.paper, row.MeasuredBWGBs, ref.simulated, 1)
			}
		case *experiments.Fig4:
			for _, s := range r.Series {
				ref := fig4FullSocket[s.Label]
				add("fig4.full_socket_ratio."+strings.ReplaceAll(s.Label, " ", "_"), ref.paper, s.AtFullSocket(), ref.simulated, 0.01)
			}
		case *experiments.Fig3:
			all := r.OSACASummary["all"]
			add("fig3.osaca_right_of_zero", nil, all.RightFrac, fig3OSACARight, 0.01)
			add("fig3.osaca_mean_abs_rpe", nil, all.MeanAbs, fig3OSACAMeanAbs, 0.01)
		}
	}
	for _, row := range rows {
		if !row.OK {
			b.fail("accuracy: %s simulated %.4f, expected %.4f", row.Name, row.Simulated, row.Expected)
		}
	}
	b.mu.Lock()
	b.accuracy = rows
	b.mu.Unlock()
}

// traceRepro is the per-layer run: one untraced cold and warm pass for
// the end-to-end reference, then a direct pass that drives the layers
// the experiments hide — memsim, kernels, isa, depgraph, core, sim, mca,
// store, serve's handler and Render — over the experiments' inputs.
func traceRepro(b *bench, dir string) error {
	cold, err := runReproPass()
	if !b.checkReproPass("cold", cold, err) {
		return fmt.Errorf("untraced cold pass failed")
	}
	b.recordAccuracy(cold.results)
	memo := pipeline.Shared().Stats()
	arts := pipeline.CompiledArtifacts().Stats()
	coldStore := pipeline.PersistentStore().Stats()
	storeBytes := dirBytes(dir)
	if _, err := resetTiers(dir); err != nil {
		return err
	}
	warm, err := runReproPass()
	b.checkReproPass("warm", warm, err)
	warmStore := pipeline.PersistentStore().Stats()

	// The direct pass runs twice over the same inputs, untraced and then
	// traced; the difference is the tracing overhead.
	untraced, _, err := directPass(b, nil, cold.results)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.layer = nil
	b.mu.Unlock()
	tr := b.tr
	from := tr.mark()
	traced, ms, err := directPass(b, tr, cold.results)
	if err != nil {
		return err
	}
	spans := tr.window(from, tr.mark())

	names := byName(spans)
	m := layerMetrics{}
	m["memsim.wa_s"] = total(names["memsim.RunStoreStream"]).Seconds()
	m["memsim.triad_s"] = total(names["memsim.RunTriad"]).Seconds()
	ticks := ms.fig4Ticks + ms.triadTicks
	m["memsim.ticks"] = float64(ticks)
	m["memsim.lines_moved"] = float64(ms.fig4Lines)
	m["memsim.ns_per_tick"] = (m["memsim.wa_s"] + m["memsim.triad_s"]) * 1e9 / float64(ticks)
	m["memsim.alloc_mb"] = ms.allocMB
	m["memsim.slowest_job_s"] = ms.slowest.Seconds()
	m["kernels.suite_ms"] = total(names["kernels.FullSuite"]).Seconds() * 1e3
	m["experiments.render_ms"] = total(names["experiments.Render"]).Seconds() * 1e3
	m["store.disk_hits"] = float64(warmStore.DiskHits)
	m["store.misses"] = float64(coldStore.Misses)
	m["store.bytes"] = float64(storeBytes)
	m.pipeline(memo, arts)
	b.count("memsim.fig4_ticks", uint64(ms.fig4Ticks))
	b.count("memsim.triad_ticks", uint64(ms.triadTicks))
	b.count("memsim.fig4_lines", uint64(ms.fig4Lines))
	m.coverage(b, spans, cold.wall, untraced, traced)
	m.emit(b, spans)
	return nil
}

// directPass drives the layers directly over the experiments' inputs —
// suite generation, the memsim jobs, the Fig. 3 path per unique block
// (with serve's handler) and Render — with spans when tr is non-nil, and
// returns its wall time.
func directPass(b *bench, tr *tracer, results []renderer) (time.Duration, memsimTrace, error) {
	start := time.Now()
	var suite []kernels.TestBlock
	var err error
	tr.do("kernels.FullSuite", 0, 0, func() { suite, err = kernels.FullSuite() })
	if err != nil {
		return 0, memsimTrace{}, err
	}
	ms, err := traceMemsim(b, tr, results)
	if err != nil {
		return 0, ms, err
	}
	if err := traceFig3(b, tr, suite, results); err != nil {
		return 0, ms, err
	}
	for i, r := range results {
		tr.do("experiments.Render", 0, int64(i), func() { _ = r.Render() })
	}
	return time.Since(start), ms, nil
}

// memsimTrace is what the memsim phase of a direct pass counted.
type memsimTrace struct {
	fig4Ticks, triadTicks, fig4Lines int64
	allocMB                          float64
	slowest                          time.Duration
}

// memsimJob is one unit the experiments submit: a whole Fig. 4 series
// (one WACurve) or one Table I bandwidth point (one Triad sample).
type memsimJob struct {
	arch   string
	label  string // Fig. 4 series label; empty for a triad point
	nt     bool
	counts []int
}

// tableILinesPerCore is the working set internal/bw uses per triad point.
const tableILinesPerCore = 8192

func traceMemsim(b *bench, tr *tracer, results []renderer) (memsimTrace, error) {
	var jobs []memsimJob
	for _, s := range []struct {
		arch, label string
		nt          bool
	}{
		{"neoversev2", "GCS", false}, {"goldencove", "SPR", false}, {"goldencove", "SPR NT stores", true},
		{"zen4", "Genoa", false}, {"zen4", "Genoa NT stores", true},
	} {
		n, err := nodes.Get(s.arch)
		if err != nil {
			return memsimTrace{}, err
		}
		jobs = append(jobs, memsimJob{s.arch, s.label, s.nt, memsim.DefaultCounts(n.Cores)})
	}
	for _, n := range nodes.Nodes {
		for _, c := range memsim.DefaultCounts(n.Cores) {
			jobs = append(jobs, memsimJob{n.Key, "", n.Key != "neoversev2", []int{c}})
		}
	}
	var fig4 *experiments.Fig4
	var table1 *experiments.Table1
	for _, r := range results {
		switch r := r.(type) {
		case *experiments.Fig4:
			fig4 = r
		case *experiments.Table1:
			table1 = r
		}
	}
	want := map[string]map[int]float64{}
	for _, s := range fig4.Series {
		want[s.Label] = s.Ratio
	}
	peak := map[string]float64{}
	for _, r := range table1.Rows {
		peak[r.Node.Key] = r.MeasuredBWGBs
	}

	var out memsimTrace
	var mu sync.Mutex
	gotPeak := map[string]float64{}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(alloc)
	before := alloc[0].Value.Uint64()
	err := forEach(b.jobs, len(jobs), func(i int) error {
		j := jobs[i]
		name := "job.table1_point"
		if j.label != "" {
			name = "job.fig4_series"
		}
		jid, end := tr.begin(name, 0, int64(i))
		defer func() {
			end()
		}()
		t0 := time.Now()
		cfg, err := memsim.ConfigFor(j.arch)
		if err != nil {
			return err
		}
		var sys *memsim.System
		tr.do("memsim.NewSystem", jid, int64(i), func() { sys, err = memsim.NewSystem(cfg) })
		if err != nil {
			return err
		}
		var ticks, lines int64
		best := 0.0
		for _, c := range j.counts {
			var r memsim.TrafficResult
			if j.label != "" {
				tr.do("memsim.RunStoreStream", jid, int64(i), func() { r, err = sys.RunStoreStream(c, memsim.DefaultStoreLinesPerCore, j.nt) })
				if err == nil && r.WARatio() != want[j.label][c] {
					b.fail("memsim: %s at %d cores: ratio %v, experiments %v", j.label, c, r.WARatio(), want[j.label][c])
				}
				lines += (r.MemReadBytes + r.MemWriteBytes) / int64(cfg.LineBytes)
			} else {
				tr.do("memsim.RunTriad", jid, int64(i), func() { r, err = sys.RunTriad(c, tableILinesPerCore, j.nt) })
				best = max(best, r.UsefulGBs())
			}
			if err != nil {
				return err
			}
			ticks += r.Ticks
		}
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if j.label != "" {
			out.fig4Ticks += ticks
			out.fig4Lines += lines
		} else {
			out.triadTicks += ticks
			gotPeak[j.arch] = max(gotPeak[j.arch], best)
		}
		out.slowest = max(out.slowest, d)
		return nil
	})
	if err != nil {
		return out, err
	}
	metrics.Read(alloc)
	out.allocMB = float64(alloc[0].Value.Uint64()-before) / (1 << 20)
	for k, v := range peak {
		if gotPeak[k] != v {
			b.fail("memsim: %s triad peak %v GB/s, experiments %v", k, gotPeak[k], v)
		}
	}
	return out, nil
}

// traceFig3 drives the Fig. 3 path over each unique (architecture,
// block) of the suite — the work the memo leaves the experiments — and
// checks every prediction against the experiments' records.
func traceFig3(b *bench, tr *tracer, suite []kernels.TestBlock, results []renderer) error {
	var fig3 *experiments.Fig3
	for _, r := range results {
		if f, ok := r.(*experiments.Fig3); ok {
			fig3 = f
		}
	}
	want := map[string]experiments.Fig3Record{}
	for _, r := range fig3.Records {
		want[r.Arch+"/"+r.Block] = r
	}
	seen := map[string]bool{}
	var uniq []kernels.TestBlock
	for _, tb := range suite {
		k := tb.Config.Arch + "\x00" + tb.Block.Text()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, tb)
		}
	}
	dir, err := b.tempDir("trace-store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		return err
	}
	an := core.New()
	type stored struct {
		b   *isa.Block
		m   *uarch.Model
		key string
		res *core.Result
	}
	keep := make([]stored, len(uniq))
	err = forEach(b.jobs, len(uniq), func(i int) error {
		tb := uniq[i]
		run := int64(i)
		jid, end := tr.begin("job.fig3_block", 0, run)
		defer end()
		m, err := uarch.Get(tb.Config.Arch)
		if err != nil {
			return err
		}
		blk, err := traceAnalyze(b, tr, an, jid, run, tb.Block.Name, m, tb.Block.Text())
		if err != nil {
			return err
		}
		res := blk.res
		var data []byte
		tr.do("core.MarshalStable", jid, run, func() { data, err = res.MarshalStable() })
		if err != nil {
			return err
		}
		key := fmt.Sprintf("trace\x00%s\x00%d", m.CacheKey(), i)
		tr.do("store.Put", jid, run, func() { st.Put(key, data) })
		var p *sim.Program
		tr.do("sim.Compile", jid, run, func() { p, err = sim.Compile(blk.b, m) })
		if err != nil {
			return err
		}
		var sr *sim.Result
		tr.do("sim.Run", jid, run, func() { sr, err = p.Run(sim.DefaultConfig(m)) })
		if err != nil {
			return err
		}
		var mr *mca.Result
		tr.do("mca.PredictDefault", jid, run, func() { mr, err = mca.PredictDefault(blk.b, m) })
		if err != nil {
			return err
		}
		rec := want[tb.Config.Arch+"/"+tb.Block.Name]
		if rec.OSACACy != res.Prediction || rec.MeasuredCy != sr.CyclesPerIter || rec.MCACy != mr.CyclesPerIter {
			b.fail("fig3 %s: traced (%v, %v, %v) != experiments (%v, %v, %v)", tb.Block.Name,
				res.Prediction, sr.CyclesPerIter, mr.CyclesPerIter, rec.OSACACy, rec.MeasuredCy, rec.MCACy)
		}
		b.layerCount("sim.cycles", uint64(sr.TotalCycles))
		b.layerCount("sim.runs", 1)
		if sr.SteadyStateIter > 0 {
			b.layerCount("sim.steady_runs", 1)
		}
		b.layerCount("isa.instrs", uint64(len(blk.b.Instrs)))
		keep[i] = stored{blk.b, m, key, res}
		return nil
	})
	if err != nil {
		return err
	}
	// Read every entry back through a second store over the same
	// directory: an empty memory tier, so each Get is a disk read, as in
	// a warm pass.
	rd, err := store.Open(dir, store.Options{Schema: pipeline.StoreSchema()})
	if err != nil {
		return err
	}
	if err := forEach(b.jobs, len(keep), func(i int) error {
		k := keep[i]
		run := int64(i)
		var data []byte
		var ok bool
		tr.do("store.Get", 0, run, func() { data, ok = rd.Get(k.key) })
		if !ok {
			return fmt.Errorf("store: entry %d missing on read-back", i)
		}
		var res *core.Result
		var err error
		tr.do("core.UnmarshalStable", 0, run, func() { res, err = core.UnmarshalStable(data, k.b, k.m) })
		if err != nil {
			return err
		}
		if res.Prediction != k.res.Prediction || res.Bound != k.res.Bound {
			b.fail("store round trip %d: %v/%s != %v/%s", i, res.Prediction, res.Bound, k.res.Prediction, k.res.Bound)
		}
		return nil
	}); err != nil {
		return err
	}
	direct := make([]*core.Result, len(keep))
	for i, k := range keep {
		direct[i] = k.res
	}
	return traceHandler(b, tr, uniq, direct)
}

// traceHandler posts each block to serve's /v1/analyze handler twice, in
// process, from empty tiers over a fresh store: the first answer is
// fresh (parse, analysis, store write), the second a memo hit. Each
// answer must match the direct analysis in want.
func traceHandler(b *bench, tr *tracer, blocks []kernels.TestBlock, want []*core.Result) error {
	dir, err := b.tempDir("handler-store-")
	if err != nil {
		return err
	}
	if _, err := resetTiers(dir); err != nil {
		return err
	}
	app, err := serve.NewWithOptions(serve.Options{JobWorkers: -1})
	if err != nil {
		return err
	}
	defer app.Close()
	h := app.Handler()
	for _, kind := range []string{"fresh", "hot"} {
		err := forEach(b.jobs, len(blocks), func(i int) error {
			tb := blocks[i]
			body := mustJSON(serve.AnalyzeRequest{Arch: tb.Config.Arch, Name: tb.Block.Name, Asm: tb.Block.Text()})
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			tr.do("serve.Handler/"+kind, 0, int64(i), func() { h.ServeHTTP(rec, req) })
			var got serve.AnalyzeResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil ||
				got.Prediction != want[i].Prediction || got.Bound != want[i].Bound {
				b.fail("serve handler (%s) %s: status %d, %v/%s, direct %v/%s", kind, tb.Block.Name,
					rec.Code, got.Prediction, got.Bound, want[i].Prediction, want[i].Bound)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// analyzed is one block carried through parse, graph and analysis.
type analyzed struct {
	b   *isa.Block
	res *core.Result
}

// traceAnalyze parses asm and runs the analyzer's stages as separate
// public calls, each in its own span: parse, skeleton, graph, analysis
// and report.
func traceAnalyze(b *bench, tr *tracer, an *core.Analyzer, parent, run int64, name string, m *uarch.Model, asm string) (analyzed, error) {
	var out analyzed
	var err error
	tr.do("isa.ParseBlock", parent, run, func() { out.b, err = isa.ParseBlock(name, m.Key, m.Dialect, asm) })
	if err != nil {
		return out, err
	}
	tr.do("depgraph.NewSkeleton", parent, run, func() { _, err = depgraph.NewSkeleton(out.b, an.Opt) })
	if err != nil {
		return out, err
	}
	tr.do("depgraph.New", parent, run, func() { _, err = depgraph.New(out.b, m, an.Opt) })
	if err != nil {
		return out, err
	}
	tr.do("core.Analyze", parent, run, func() { out.res, err = an.Analyze(out.b, m) })
	if err != nil {
		return out, err
	}
	tr.do("core.Report", parent, run, func() { _ = out.res.Report() })
	return out, nil
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func forEach(workers, n int, fn func(i int) error) error {
	var next int
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	}) // unreadable entries only shrink the reported size
	return n
}
