package pipeline

import (
	"fmt"
	"strconv"
	"strings"

	"incore/internal/core"
	"incore/internal/ibench"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/memsim"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// This file defines the memoized entry points the experiment runners
// share. Keys are built from *content*, not identity: a block is keyed by
// its architecture, dialect, and rendered assembly text — not its name —
// so the suite's duplicate code bodies (416 test blocks, 290 unique)
// collapse onto single computations, and so do identical analyses issued
// by different experiments (fig3, ECM, node-perf all analyze the same
// Ofast variants).
//
// Cached values are shared: callers must treat returned pointers, slices,
// and maps as immutable.
//
// With a persistent store attached (AttachStore), every wrapper here
// reads through and writes back to it on memo misses, so results also
// survive across processes; see persist.go for the tiering contract.

// BlockKey returns the content key of a block: everything that determines
// an analysis or simulation outcome, excluding the display name.
// It is the block's cached isa.Block.Key.
func BlockKey(b *isa.Block) string {
	return b.Key()
}

// simConfigKey folds every outcome-affecting Config field into the key.
// Trace is deliberately excluded — traced runs bypass the cache entirely —
// and so is DisableSteadyState: extrapolated and full-length runs are
// bit-identical by contract (sim/steady.go), so both may share entries.
func simConfigKey(cfg sim.Config) string {
	return fmt.Sprintf("%d|%d|%d|%d|%g|%t|%d",
		cfg.WarmupIters, cfg.MeasureIters, cfg.FMAAccForwardLat,
		cfg.CrossOpForwardSave, cfg.DivEarlyExitFactor,
		cfg.DisableRenaming, cfg.IssueWidthOverride)
}

// Analyze memoizes core.Analyzer.Analyze by (analyzer options, machine
// model, block content). With a store attached, results persist across
// processes in core.Result's stable wire form; a warm decode reattaches
// the requesting block and model, whose content the key already pins.
//
// Models are identified by CacheKey, not bare key: an unmodified
// built-in keeps its bare key (so stores written by earlier builds stay
// warm), while a runtime-loaded or what-if-mutated model carries its
// content fingerprint in the key and can never collide with a different
// scenario that happens to share its name. The same rule applies to
// Simulate, MCAPredict, and MeasureInstr below.
//
// Cold computations run on core's pooled result arenas, so concurrent
// pipeline jobs (and the serve tier routing through this function) share
// arenas safely; the memoized Result is a copy that never aliases pooled
// memory.
func Analyze(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, error) {
	res, _, err := AnalyzeWarm(an, b, m)
	return res, err
}

// AnalyzeWarm is Analyze reporting provenance: warm is true when this
// call was served without a fresh computation — a memo hit, a
// singleflight attach to another requester's in-flight computation, or
// a store read. It is the per-item resume-accounting hook the job queue
// uses: after a kill-and-restart, a resumed job's already-stored items
// come back warm, and the cold count exposes exactly what was truly
// recomputed.
//
// The flag is race-free by construction: the computed variable is
// written only inside the compute closure, which the memo tier runs
// under sync.Once — callers that did not execute it never observe a
// write.
func AnalyzeWarm(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, bool, error) {
	key := "analyze\x00" + an.Fingerprint() + "\x00" + m.CacheKey() + "\x00" + BlockKey(b)
	computed := false
	res, err := doStored(shared, key,
		(*core.Result).MarshalStable,
		func(data []byte) (*core.Result, error) { return core.UnmarshalStable(data, b, m) },
		func() (*core.Result, error) { computed = true; return analyzeCold(an, b, m) })
	return res, err == nil && !computed, err
}

// Cell is the compact, persistable projection of one analysis that a
// design-space sweep stores per (model variant, block): the scalar
// outcomes downstream projections (ECM, Roofline, frequency) and Pareto
// fronts consume, without the per-instruction reports a full core.Result
// carries. Small cells keep a hundreds-of-variants sweep's store
// footprint proportional to its information content.
type Cell struct {
	// Prediction is the lower-bound cycles per iteration; Bound names
	// the binding constraint ("port", "issue", "lcd").
	Prediction float64 `json:"prediction"`
	Bound      string  `json:"bound"`
	// TPBound / IssueBound / CriticalPath / LCDCycles are the individual
	// bounds behind the prediction.
	TPBound      float64 `json:"tp_bound"`
	IssueBound   float64 `json:"issue_bound"`
	CriticalPath float64 `json:"critical_path"`
	LCDCycles    float64 `json:"lcd_cycles"`
	// TotalUops counts µ-ops per iteration; Unknown counts instructions
	// resolved through the degraded unknown-descriptor path.
	TotalUops int `json:"total_uops"`
	Unknown   int `json:"unknown,omitempty"`
	// TOLIt / TnOLIt are the per-iteration ECM in-core inputs: the
	// maximum port pressure off (with the LCD folded in) and on the
	// model's memory ports, in cycles per iteration. Scaling by
	// 8/elemsPerIter yields ecm.InCoreInputs' cache-line units. They are
	// stored because the split depends on the analyzing model's port
	// masks, which the cell (unlike a full result) no longer carries.
	TOLIt  float64 `json:"t_ol_it"`
	TnOLIt float64 `json:"t_nol_it"`
}

// CellOf projects an analysis result to its sweep cell.
func CellOf(res *core.Result) Cell {
	c := Cell{
		Prediction:   res.Prediction,
		Bound:        res.Bound,
		TPBound:      res.TPBound,
		IssueBound:   res.IssueBound,
		CriticalPath: res.CriticalPath,
		LCDCycles:    res.LCD.Cycles,
		TotalUops:    res.TotalUops,
		Unknown:      res.Coverage.Unknown,
	}
	m := res.Model
	memMask := m.LoadPorts | m.StoreAGUPorts | m.StoreDataPorts | m.WideLoadPorts
	for p, load := range res.PortPressure {
		if memMask.Has(p) {
			c.TnOLIt = max(c.TnOLIt, load)
		} else {
			c.TOLIt = max(c.TOLIt, load)
		}
	}
	c.TOLIt = max(c.TOLIt, res.LCD.Cycles)
	return c
}

// CellAnalyzer is the design-space sweep's analysis entry point for one
// (analyzer options, model variant) pair: it memoizes (and, with a store
// attached, persists) the Cell projection of each block's analysis,
// keyed like AnalyzeWarm by (analyzer options, model cache key, block
// content) — the full Model.CacheKey, never the port signature, so a
// sweep is warm-resumable per variant and a variant's cells can never
// collide with the built-in scenario sharing its key. The key prefix
// naming the pair is built once, when the CellAnalyzer is made, and
// every cell's key appends only the block's cached content key.
//
// Cold cells compute through the zero-allocation AnalyzeInternal arena
// path: the arena-owned Result is projected to a value Cell before the
// compute closure returns, so no arena memory escapes into the memo
// tier. A CellAnalyzer owns its arena and is therefore bound to one
// goroutine at a time.
type CellAnalyzer struct {
	an     *core.Analyzer
	m      *uarch.Model
	prefix string
	ar     InternalArena
}

// NewCellAnalyzer returns the cell analyzer for an and m; neither may
// change while it is in use.
func NewCellAnalyzer(an *core.Analyzer, m *uarch.Model) *CellAnalyzer {
	return &CellAnalyzer{
		an:     an,
		m:      m,
		prefix: "sweepcell\x00" + an.Fingerprint() + "\x00" + m.CacheKey() + "\x00",
	}
}

// AnalyzeWarm returns b's cell; warm reports provenance exactly as
// AnalyzeWarm does.
func (c *CellAnalyzer) AnalyzeWarm(b *isa.Block) (Cell, bool, error) {
	computed := false
	cell, err := doStoredJSON(shared, c.prefix+BlockKey(b), func() (Cell, error) {
		computed = true
		res, err := AnalyzeInternal(c.an, b, c.m, &c.ar)
		if err != nil {
			return Cell{}, err
		}
		return CellOf(res), nil
	})
	return cell, err == nil && !computed, err
}

// Simulate memoizes sim.Run by (machine model, simulator config, block
// content). Runs carrying a trace callback execute directly — a trace is a
// side effect the result cache must not swallow — but still draw their
// compiled Program from the artifact tier: tracing changes what Run
// reports, never what Compile produces, so traced and untraced runs of
// one (block, model) share a single compile.
func Simulate(b *isa.Block, m *uarch.Model, cfg sim.Config) (*sim.Result, error) {
	if cfg.Trace != nil {
		p, err := CompileProgram(b, m)
		if err != nil {
			return nil, err
		}
		return p.Run(cfg)
	}
	key := "sim\x00" + m.CacheKey() + "\x00" + simConfigKey(cfg) + "\x00" + BlockKey(b)
	return doStoredJSON(shared, key, func() (*sim.Result, error) {
		p, err := CompileProgram(b, m)
		if err != nil {
			return nil, err
		}
		return p.Run(cfg)
	})
}

// MCAPredict memoizes mca.PredictDefault by (machine model, block content).
// The memo miss replays a cached static schedule (compiledMCA), so
// distinct sim-config sweeps and post-restart recomputations share the
// lowering work.
func MCAPredict(b *isa.Block, m *uarch.Model) (*mca.Result, error) {
	key := "mca\x00" + m.CacheKey() + "\x00" + BlockKey(b)
	return doStoredJSON(shared, key, func() (*mca.Result, error) {
		c, err := compiledMCA(b, m)
		if err != nil {
			return nil, err
		}
		return c.Predict()
	})
}

// MeasureInstr memoizes ibench.Measure by (machine model, instruction
// kind, simulator config).
func MeasureInstr(m *uarch.Model, kind ibench.Kind, cfg sim.Config) (*ibench.Result, error) {
	if cfg.Trace != nil {
		return ibench.Measure(m, kind, cfg)
	}
	key := "ibench\x00" + m.CacheKey() + "\x00" + strconv.Itoa(int(kind)) + "\x00" + simConfigKey(cfg)
	return doStoredJSON(shared, key, func() (*ibench.Result, error) { return ibench.Measure(m, kind, cfg) })
}

// WACurve memoizes one Fig. 4 series — the store benchmark's WA ratio
// per active core count — by (node key, store flavour, sweep). On a miss
// every core count runs on its own fresh memsim system through the
// default pool; each run starts from a reset system, so the map does not
// depend on the schedule.
func WACurve(key string, nt bool, counts []int) (map[int]float64, error) {
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = strconv.Itoa(c)
	}
	ck := fmt.Sprintf("wacurve\x00%s\x00%t\x00%s", key, nt, strings.Join(parts, ","))
	return doStoredJSON(shared, ck, func() (map[int]float64, error) {
		cfg, err := memsim.ConfigFor(key)
		if err != nil {
			return nil, err
		}
		ratios, err := Map(Default(), counts, func(n int) (float64, error) {
			sys, err := memsim.NewSystem(cfg)
			if err != nil {
				return 0, err
			}
			r, err := sys.RunStoreStream(n, memsim.DefaultStoreLinesPerCore, nt)
			return r.WARatio(), err
		})
		if err != nil {
			return nil, err
		}
		out := make(map[int]float64, len(counts))
		for i, n := range counts {
			out[n] = ratios[i]
		}
		return out, nil
	})
}

// Triad memoizes one triad sample — (node, active cores, lines per core,
// store flavour) — on a fresh memsim system. memsim.System.run resets all
// state per run, so a fresh system per sample is equivalent to a shared
// system swept serially.
func Triad(key string, cores, linesPerCore int, nt bool) (memsim.TrafficResult, error) {
	ck := fmt.Sprintf("triad\x00%s\x00%d\x00%d\x00%t", key, cores, linesPerCore, nt)
	return doStoredJSON(shared, ck, func() (memsim.TrafficResult, error) {
		cfg, err := memsim.ConfigFor(key)
		if err != nil {
			return memsim.TrafficResult{}, err
		}
		sys, err := memsim.NewSystem(cfg)
		if err != nil {
			return memsim.TrafficResult{}, err
		}
		return sys.RunTriad(cores, linesPerCore, nt)
	})
}
