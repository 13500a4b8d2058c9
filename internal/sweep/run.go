package sweep

import (
	"fmt"
	"sort"
	"sync/atomic"

	"incore/internal/core"
	"incore/internal/ecm"
	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/roofline"
	"incore/internal/uarch"
)

// Block is one unit of swept work: a parsed block plus the optional
// kernel provenance that enables the memory-level (ECM) projection.
type Block struct {
	Name string
	B    *isa.Block
	// ElemsPerIter is the number of scalar elements one loop iteration
	// processes (0 disables the ECM projection for this block).
	ElemsPerIter int
	// Kernel, when known, supplies the data-traffic pattern for the ECM
	// projection; nil disables it for this block.
	Kernel *kernels.Kernel
}

// SuiteBlocks generates the kernel validation suite for one architecture
// as sweep work. Blocks are routed through the compiled-artifact parse
// cache (pipeline.ParseRequestBlock), so the suite's duplicate bodies
// collapse to one parsed block each and the tier's counters account the
// parse work exactly once per unique body.
func SuiteBlocks(arch string) ([]Block, error) {
	suite, err := kernels.Suite(arch)
	if err != nil {
		return nil, err
	}
	out := make([]Block, 0, len(suite))
	for _, tb := range suite {
		b, err := pipeline.ParseRequestBlock(tb.Block.Name, tb.Block.Arch, tb.Block.Dialect, tb.Block.Text())
		if err != nil {
			return nil, err
		}
		out = append(out, Block{Name: b.Name, B: b, ElemsPerIter: tb.ElemsPerIter, Kernel: tb.Kernel})
	}
	return out, nil
}

// Options configures a sweep run.
type Options struct {
	// Analyzer defaults to core.New().
	Analyzer *core.Analyzer
	// MaxVariants rejects cross-products above the cap before any model
	// is cloned (0 = no cap here; servers enforce their own).
	MaxVariants int
}

// ErrTooLarge is returned when a requested cross-product exceeds the
// caller's variant cap.
type ErrTooLarge struct {
	Variants, Max int
}

// Error implements error.
func (e *ErrTooLarge) Error() string {
	return fmt.Sprintf("sweep: cross-product of %d variants exceeds the cap of %d", e.Variants, e.Max)
}

// VariantResult is one variant's row of the sweep grid.
type VariantResult struct {
	Index int `json:"index"`
	// Params is the variant's full assignment in canonical axis order.
	Params []ParamValue `json:"params"`
	// CacheKey is the store identity of the variant's results
	// (key@fingerprint); PortSignature is the artifact-sharing identity,
	// truncated to 12 hex digits for display.
	CacheKey      string `json:"cache_key"`
	PortSignature string `json:"port_signature"`
	// Predictions lists the in-core lower-bound cycles per iteration,
	// aligned with Result.Blocks; TotalCycles is their sum — the
	// scalar in-core performance figure the per-axis fronts minimize.
	Predictions []float64 `json:"predictions"`
	TotalCycles float64   `json:"total_cycles"`
	// ECMMemCycles sums the memory-resident ECM prediction (cycles per
	// iteration) over the blocks with kernel provenance; 0 when the
	// model carries no ECM calibration.
	ECMMemCycles float64 `json:"ecm_mem_cycles,omitempty"`
	// SustainedGHz / SustainedGFlops are the frequency-governor and
	// Roofline projections (0 when the model carries no freq section).
	SustainedGHz    float64 `json:"sustained_ghz,omitempty"`
	SustainedGFlops float64 `json:"sustained_gflops,omitempty"`
	// Warm / Cold count this variant's result cells by provenance:
	// warm cells were served from the memo/store tiers.
	Warm int `json:"warm"`
	Cold int `json:"cold"`
}

// Result is one sweep's full outcome.
type Result struct {
	// Base and BaseCacheKey identify the unmodified starting model.
	Base         string `json:"base"`
	BaseCacheKey string `json:"base_cache_key"`
	// Axes is the canonical (sorted, deduplicated) axis set.
	Axes []Axis `json:"axes"`
	// Blocks lists the swept block names in input order.
	Blocks   []string        `json:"blocks"`
	Variants []VariantResult `json:"variants"`
	// Fronts are the Pareto fronts (see pareto.go).
	Fronts []Front `json:"pareto"`
	// DistinctSignatures counts distinct port signatures across the
	// variants — the number of times the port-dependent compile stages
	// ran per block; Variants-DistinctSignatures variants shared them.
	DistinctSignatures int `json:"distinct_port_signatures"`
	// Warm / Cold aggregate the per-variant cell provenance.
	Warm int `json:"warm"`
	Cold int `json:"cold"`
}

// Stats is the process-wide sweep accounting exposed on /metrics.
type Stats struct {
	// Sweeps counts completed sweep runs; Variants the models they
	// generated; SharedSignature the variants that reused another
	// variant's port signature (and therefore its compiled artifacts).
	Sweeps          uint64 `json:"sweeps"`
	Variants        uint64 `json:"variants"`
	SharedSignature uint64 `json:"shared_signature"`
	// CellsWarm / CellsCold count result cells by provenance.
	CellsWarm uint64 `json:"cells_warm"`
	CellsCold uint64 `json:"cells_cold"`
	// RejectedTooLarge counts sweeps refused by a variant cap.
	RejectedTooLarge uint64 `json:"rejected_too_large"`
}

var stats struct {
	sweeps, variants, shared atomic.Uint64
	cellsWarm, cellsCold     atomic.Uint64
	rejected                 atomic.Uint64
}

// GlobalStats snapshots the process-wide sweep accounting.
func GlobalStats() Stats {
	return Stats{
		Sweeps:           stats.sweeps.Load(),
		Variants:         stats.variants.Load(),
		SharedSignature:  stats.shared.Load(),
		CellsWarm:        stats.cellsWarm.Load(),
		CellsCold:        stats.cellsCold.Load(),
		RejectedTooLarge: stats.rejected.Load(),
	}
}

// CountRejected records a sweep refused by a variant cap (callers that
// enforce caps before reaching Run, e.g. the serve tier).
func CountRejected() { stats.rejected.Add(1) }

// Run executes the sweep: expand the cross-product, analyze every
// (variant, block) cell through the memoized arena path, project
// node-level metrics, and reduce to Pareto fronts. Variants fan out over
// the default pipeline pool; output is deterministic at any worker count
// (Map preserves order, and cell values are content-addressed).
func Run(base *uarch.Model, axes []Axis, blocks []Block, opt Options) (*Result, error) {
	canon, err := Canonicalize(axes)
	if err != nil {
		return nil, err
	}
	if n := Count(canon); opt.MaxVariants > 0 && n > opt.MaxVariants {
		stats.rejected.Add(1)
		return nil, &ErrTooLarge{Variants: n, Max: opt.MaxVariants}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("sweep: no blocks to sweep")
	}
	variants, err := Variants(base, canon)
	if err != nil {
		return nil, err
	}
	an := opt.Analyzer
	if an == nil {
		an = core.New()
	}

	res := &Result{
		Base:         base.Key,
		BaseCacheKey: base.CacheKey(),
		Axes:         canon,
		Blocks:       make([]string, len(blocks)),
	}
	for i, b := range blocks {
		res.Blocks[i] = b.Name
	}

	rows, err := pipeline.MapN(pipeline.Default(), len(variants), func(i int) (VariantResult, error) {
		return runVariant(an, &variants[i], blocks)
	})
	if err != nil {
		return nil, err
	}
	res.Variants = rows

	sigs := map[string]bool{}
	for i := range rows {
		res.Warm += rows[i].Warm
		res.Cold += rows[i].Cold
		sigs[variants[i].Model.PortSignature()] = true
	}
	res.DistinctSignatures = len(sigs)
	res.Fronts = fronts(res)

	stats.sweeps.Add(1)
	stats.variants.Add(uint64(len(rows)))
	stats.shared.Add(uint64(len(rows) - len(sigs)))
	stats.cellsWarm.Add(uint64(res.Warm))
	stats.cellsCold.Add(uint64(res.Cold))
	return res, nil
}

// runVariant analyzes every block for one variant and projects its
// node-level metrics. Each call owns its CellAnalyzer, which carries the
// variant's memo-key prefix and a single-goroutine arena: one variant's
// blocks run serially within the pool worker.
func runVariant(an *core.Analyzer, v *Variant, blocks []Block) (VariantResult, error) {
	m := v.Model
	row := VariantResult{
		Index:         v.Index,
		Params:        v.Params,
		CacheKey:      m.CacheKey(),
		PortSignature: m.PortSignature()[:12],
		Predictions:   make([]float64, len(blocks)),
	}
	cells := pipeline.NewCellAnalyzer(an, m)
	var em *ecm.Model
	if m.Node != nil && m.Node.ECM != nil {
		if e, err := ecm.ForModel(m); err == nil {
			em = e
		}
	}
	for i, blk := range blocks {
		cell, warm, err := cells.AnalyzeWarm(blk.B)
		if err != nil {
			return VariantResult{}, fmt.Errorf("sweep: variant %d (%s), block %s: %w",
				v.Index, FormatParams(v.Params), blk.Name, err)
		}
		if warm {
			row.Warm++
		} else {
			row.Cold++
		}
		row.Predictions[i] = cell.Prediction
		row.TotalCycles += cell.Prediction
		if em != nil && blk.Kernel != nil && blk.ElemsPerIter > 0 {
			scale := 8.0 / float64(blk.ElemsPerIter)
			tr := ecm.TrafficForKernel(blk.Kernel, ecm.WAFactorFor(m.Key, true))
			er := em.Predict(cell.TOLIt*scale, cell.TnOLIt*scale, tr, ecm.MEM)
			row.ECMMemCycles += er.CyclesPerIt(blk.ElemsPerIter)
		}
	}
	if rf, err := roofline.ForModel(m); err == nil {
		for _, c := range rf.Ceilings {
			if c.Sustained {
				row.SustainedGFlops = c.GFlops
				if m.CoresPerChip > 0 && m.Node.FlopsPerCycle > 0 {
					row.SustainedGHz = c.GFlops / float64(m.CoresPerChip) / float64(m.Node.FlopsPerCycle)
				}
			}
		}
	}
	return row, nil
}

// axisValue returns a variant's value on the named axis.
func axisValue(ps []ParamValue, param string) (float64, bool) {
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Param >= param })
	if i < len(ps) && ps[i].Param == param {
		return ps[i].Value, true
	}
	return 0, false
}
