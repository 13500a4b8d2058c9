package main

import (
	"fmt"
	"sort"
	"time"

	"incore/internal/pipeline"
)

// metricDef is one metric of BENCHMARK.json: its name and unit.
type metricDef struct{ name, unit string }

// e2eCatalog lists the end-to-end metrics every untraced run emits.
var e2eCatalog = []metricDef{
	{"cold_s", "s"}, {"warm_s", "s"}, {"rate_per_s", "1/s"}, {"peak_heap_mb", "MB"}, {"setup_s", "s"},
}

// layerCatalog lists every per-layer metric, in BENCHMARK.json order.
// Every traced run emits all of them; a layer the workload does not
// reach reads 0 there.
var layerCatalog = []metricDef{
	{"memsim.wa_s", "s"}, {"memsim.triad_s", "s"}, {"memsim.ticks", "count"},
	{"memsim.lines_moved", "count"}, {"memsim.ns_per_tick", "ns"}, {"memsim.alloc_mb", "MB"},
	{"memsim.slowest_job_s", "s"}, {"memsim.self_ms", "ms"},
	{"kernels.suite_ms", "ms"}, {"kernels.self_ms", "ms"},
	{"isa.parse_us", "us"}, {"isa.instrs", "count"}, {"isa.self_ms", "ms"},
	{"depgraph.skeleton_us", "us"}, {"depgraph.graph_us", "us"}, {"depgraph.self_ms", "ms"},
	{"core.analyze_us", "us"}, {"core.report_us", "us"}, {"core.marshal_us", "us"},
	{"core.unmarshal_us", "us"}, {"core.self_ms", "ms"},
	{"sim.compile_us", "us"}, {"sim.run_us", "us"}, {"sim.cycles", "count"},
	{"sim.ns_per_cycle", "ns"}, {"sim.steady_share", "ratio"}, {"sim.self_ms", "ms"},
	{"mca.predict_us", "us"}, {"mca.self_ms", "ms"},
	{"store.put_us", "us"}, {"store.get_us", "us"}, {"store.disk_hits", "count"},
	{"store.misses", "count"}, {"store.bytes", "bytes"}, {"store.self_ms", "ms"},
	{"pipeline.memo_hits", "count"}, {"pipeline.memo_misses", "count"}, {"pipeline.memo_entries", "count"},
	{"pipeline.compiles", "count"}, {"pipeline.compiled_hits", "count"}, {"pipeline.compiled_kib", "KiB"},
	{"serve.handler_hot_us", "us"}, {"serve.handler_fresh_us", "us"}, {"serve.self_ms", "ms"},
	{"sweep.cells_cold", "count"}, {"sweep.cells_warm", "count"}, {"sweep.signatures", "count"},
	{"sweep.self_ms", "ms"},
	{"experiments.render_ms", "ms"}, {"experiments.self_ms", "ms"},
	{"trace.span_share", "ratio"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

// perCallSpans maps per-call median metrics to the span they time.
var perCallSpans = map[string]string{
	"isa.parse_us":           "isa.ParseBlock",
	"depgraph.skeleton_us":   "depgraph.NewSkeleton",
	"depgraph.graph_us":      "depgraph.New",
	"core.analyze_us":        "core.Analyze",
	"core.report_us":         "core.Report",
	"core.marshal_us":        "core.MarshalStable",
	"core.unmarshal_us":      "core.UnmarshalStable",
	"sim.compile_us":         "sim.Compile",
	"sim.run_us":             "sim.Run",
	"mca.predict_us":         "mca.PredictDefault",
	"store.put_us":           "store.Put",
	"store.get_us":           "store.Get",
	"serve.handler_hot_us":   "serve.Handler/hot",
	"serve.handler_fresh_us": "serve.Handler/fresh",
}

// layerMetrics collects one traced run's per-layer values.
type layerMetrics map[string]float64

// selfTimes records each layer's self time in ms. Spans of the "job"
// pseudo-layer only group a job's calls and are left out.
func (m layerMetrics) selfTimes(spans []span) {
	for layer, d := range selfTimes(spans) {
		if layer != "job" {
			m[layer+".self_ms"] = d.Seconds() * 1e3
		}
	}
}

// perCall records the median duration of each per-call metric's span.
func (m layerMetrics) perCall(names map[string][]time.Duration) {
	for metric, name := range perCallSpans {
		if ds := names[name]; len(ds) > 0 {
			m[metric] = medianUS(ds)
		}
	}
}

// pipeline records the memo and compiled-artifact tier counts.
func (m layerMetrics) pipeline(st pipeline.Stats, cs pipeline.ArtifactStats) {
	m["pipeline.memo_hits"] = float64(st.Hits)
	m["pipeline.memo_misses"] = float64(st.Misses)
	m["pipeline.memo_entries"] = float64(st.Entries)
	m["pipeline.compiles"] = float64(cs.Compiles)
	m["pipeline.compiled_hits"] = float64(cs.Hits + cs.Attaches)
	m["pipeline.compiled_kib"] = float64(cs.BytesEstimated) / 1024
}

// coverage records what share of the untraced end-to-end time e2e the
// layer spans cover, and the tracing overhead: the traced minus the
// untraced wall time of the same unit of work.
func (m layerMetrics) coverage(b *bench, spans []span, e2e, untraced, traced time.Duration) {
	var layer []span
	for _, s := range spans {
		if s.layer() != "job" {
			layer = append(layer, s)
		}
	}
	cov := coverage(layer)
	m["trace.span_share"] = cov.Seconds() / e2e.Seconds()
	m["trace.overhead_s"] = (traced - untraced).Seconds()
	m["trace.spans"] = float64(len(spans))
	b.mu.Lock()
	b.traceRep = map[string]any{
		"end_to_end_s": e2e.Seconds(), "untraced_s": untraced.Seconds(), "traced_s": traced.Seconds(),
		"covered_s": cov.Seconds(), "span_share": m["trace.span_share"],
		"overhead_s": m["trace.overhead_s"], "spans": len(spans),
	}
	b.mu.Unlock()
}

// emit derives the span-based metrics (self times, per-call medians,
// simulated ns per cycle), folds the run's accumulated layer counts in,
// and records every catalog metric (0 for a layer the run did not reach).
func (m layerMetrics) emit(b *bench, spans []span) {
	m.selfTimes(spans)
	names := byName(spans)
	m.perCall(names)
	b.mu.Lock()
	lc := b.layer
	b.mu.Unlock()
	for _, k := range []string{"sim.cycles", "isa.instrs"} {
		if v, ok := lc[k]; ok {
			m[k] = float64(v)
		}
	}
	if runs := lc["sim.runs"]; runs > 0 {
		m["sim.steady_share"] = float64(lc["sim.steady_runs"]) / float64(runs)
	}
	if c := lc["sim.cycles"]; c > 0 {
		m["sim.ns_per_cycle"] = total(names["sim.Run"]).Seconds() * 1e9 / float64(c)
	}
	keys := make([]string, 0, len(lc))
	for k := range lc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.count(k, lc[k])
	}
	known := map[string]bool{}
	for _, lm := range layerCatalog {
		known[lm.name] = true
		b.set(lm.name, lm.unit, m[lm.name], 1)
	}
	for k := range m {
		if !known[k] {
			b.fail("internal: per-layer metric %q is not in the catalog", k)
		}
	}
}

// layerCount adds to one of the run's per-layer counts.
func (b *bench) layerCount(name string, v uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.layer == nil {
		b.layer = map[string]uint64{}
	}
	b.layer[name] += v
}

// init rejects a duplicate catalog name, which only a bug can produce.
func init() {
	seen := map[string]bool{}
	for _, lm := range layerCatalog {
		if seen[lm.name] {
			panic(fmt.Sprintf("duplicate per-layer metric %s", lm.name))
		}
		seen[lm.name] = true
	}
}
