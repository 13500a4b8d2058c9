// Package core implements the paper's primary contribution: an OSACA-style
// in-core performance model. Given an assembly block and a machine model
// it computes
//
//   - the optimal port-pressure throughput bound (perfectly balanced
//     µ-op-to-port assignment),
//   - the frontend issue bound,
//   - the critical path through one iteration, and
//   - the longest loop-carried dependency (LCD) chain,
//
// and combines them into an optimistic lower-bound runtime prediction in
// cycles per block iteration: max(port bound, issue bound, LCD).
//
// The prediction is a *lower bound* by construction: a real out-of-order
// core cannot beat perfect port balancing, cannot exceed its issue width,
// and cannot overtake true dataflow. (Two deliberate exceptions where real
// hardware can beat the tables are reproduced and discussed in the paper:
// FMA accumulator forwarding on Neoverse V2 and the Zen 4 divider early
// exit; see internal/sim.)
package core

import (
	"fmt"
	"math"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/uarch"
)

// InstrReport is the per-instruction line of an analysis report.
type InstrReport struct {
	Index    int
	Text     string
	Uops     int
	Lat      int
	TotalLat int
	// Throughput is the instruction's isolated reciprocal throughput.
	Throughput float64
	// PortLoads is the heuristic per-port share of this instruction
	// (cycles), aligned with Model.Ports.
	PortLoads []float64
	// Match records how the instruction resolved against the model's
	// tables: "" (exact entry; omitted on the wire), "fallback" (folded
	// signature/width chain), or "unknown" (synthesized conservative
	// descriptor — see Result.Coverage).
	Match string `json:"match,omitempty"`
}

// Result is a complete in-core analysis of one block.
type Result struct {
	Block *isa.Block
	Model *uarch.Model

	// PortPressure is the heuristic per-port load (cycles/iteration).
	PortPressure []float64
	// TPBound is the exact optimal max-port-load bound.
	TPBound float64
	// GreedyTPBound is the bound a greedy (non-balancing) scheduler
	// achieves; exposed for the ablation study.
	GreedyTPBound float64
	// IssueBound is total µ-ops / issue width.
	IssueBound float64
	// CriticalPath is the longest dataflow path through one iteration;
	// CPPath lists the instruction indices on it in program order.
	CriticalPath float64
	CPPath       []int
	// LCD is the dominant loop-carried dependency chain.
	LCD depgraph.LCDResult
	// Prediction is the lower-bound cycles per iteration.
	Prediction float64
	// Bound names the binding constraint ("port", "issue", "lcd").
	Bound string

	Instrs []InstrReport
	// TotalUops counts µ-ops per iteration.
	TotalUops int
	// Coverage accounts how instructions resolved against the model
	// (exact / fallback / unknown); Unknown > 0 marks a degraded
	// analysis over synthesized descriptors.
	Coverage Coverage
}

// Analyzer holds analysis options.
type Analyzer struct {
	// Opt controls dependency-graph construction.
	Opt depgraph.Options
}

// New returns an analyzer with OSACA-like defaults (ideal renaming,
// memory-carried dependencies within one cache line) plus graceful
// degradation: instructions outside the model's table resolve to its
// synthesized conservative descriptor and are accounted in
// Result.Coverage instead of rejecting the whole block. Set
// Opt.DegradeUnknown = false for the strict error-on-unknown behavior.
func New() *Analyzer {
	opt := depgraph.DefaultOptions()
	opt.DegradeUnknown = true
	return &Analyzer{Opt: opt}
}

// Fingerprint returns a stable content key for the analyzer's options.
// Two analyzers with equal fingerprints produce identical Results for the
// same (block, model) input; memoization layers (internal/pipeline) key
// cached analyses on it.
func (a *Analyzer) Fingerprint() string {
	return fmt.Sprintf("falsedeps=%t|memwin=%d|stfwd=%d|degrade=%t",
		a.Opt.IncludeFalseDeps, a.Opt.MemCarriedWindow, a.Opt.StoreForwardLat, a.Opt.DegradeUnknown)
}

// Analyze runs the in-core model for block b on machine model m. The
// analysis runs on a pooled ResultArena, so concurrent callers (pipeline
// jobs, served requests) are safe, and the returned Result is a copy that
// shares no memory with the arena: safe to retain, memoize and persist.
func (a *Analyzer) Analyze(b *isa.Block, m *uarch.Model) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ar := arenaPool.Get().(*ResultArena)
	defer arenaPool.Put(ar)
	g, err := depgraph.NewScratch(b, m, a.Opt, &ar.s.dg)
	if err != nil {
		return nil, err
	}
	return finishResult(b, m, g, ar).copyOut(), nil
}

// finishResult builds the Result from an instantiated dependency graph —
// the back half of every analysis entry point. The Result and every
// slice it references are ar's, valid only until ar's next use.
func finishResult(b *isa.Block, m *uarch.Model, g *depgraph.Graph, ar *ResultArena) *Result {
	s := &ar.s
	res := &ar.res
	*res = Result{Block: b, Model: m}
	nPorts := len(m.Ports)
	s.jobs = s.jobs[:0]
	s.jobSpan = append(s.jobSpan[:0], 0)
	res.Instrs = ar.instrs[:0]
	for i := range b.Instrs {
		d := g.Nodes[i].Desc
		ir := InstrReport{
			Index:      i,
			Text:       ar.text(b, i),
			Uops:       d.UopCount(),
			Lat:        d.Lat,
			TotalLat:   d.TotalLat,
			Throughput: d.ThroughputCycles(),
		}
		if d.Match != uarch.MatchExact {
			ir.Match = d.Match.String()
		}
		res.Coverage.add(b.Instrs[i].Mnemonic, d.Match)
		for _, u := range d.Uops {
			s.jobs = append(s.jobs, balanceJob{Mask: u.Ports, Cycles: u.Cycles})
		}
		s.jobSpan = append(s.jobSpan, int32(len(s.jobs)))
		res.TotalUops += d.UopCount()
		res.Instrs = append(res.Instrs, ir)
	}
	ar.instrs = res.Instrs
	// Per-instruction pressure over the instruction's span of the shared
	// job array, written into the arena's flat port-load matrix.
	ar.portLoads = grow(ar.portLoads, len(res.Instrs)*nPorts)
	for i := range res.Instrs {
		dst := ar.portLoads[i*nPorts : (i+1)*nPorts : (i+1)*nPorts]
		copy(dst, s.heuristicInto(s.jobs[s.jobSpan[i]:s.jobSpan[i+1]], nPorts))
		res.Instrs[i].PortLoads = dst
	}

	ar.portPressure = grow(ar.portPressure, nPorts)
	copy(ar.portPressure, s.heuristicInto(s.jobs, nPorts))
	res.PortPressure = ar.portPressure
	res.TPBound = s.optimalBound(s.jobs, nPorts)
	res.GreedyTPBound = s.greedyBound(s.jobs, nPorts)
	res.IssueBound = float64(res.TotalUops) / float64(m.IssueWidth)
	res.CriticalPath, res.CPPath = g.CriticalPathDetailAppend(ar.cpPath)
	ar.cpPath = res.CPPath
	res.LCD = g.LoopCarriedAppend(-1, ar.lcdPath)
	if res.LCD.Path != nil {
		ar.lcdPath = res.LCD.Path
	}

	res.Prediction = math.Max(res.TPBound, res.IssueBound)
	res.Bound = "port"
	if res.IssueBound > res.TPBound {
		res.Bound = "issue"
	}
	if res.LCD.Cycles > res.Prediction {
		res.Prediction = res.LCD.Cycles
		res.Bound = "lcd"
	}
	return res
}

// copyOut returns a deep copy of an arena-owned Result that shares no
// backing array with the arena. Per-instruction port loads share one flat
// matrix, and empty paths stay nil. Instruction texts are immutable
// strings, and Coverage.UnknownMnemonics is allocated afresh by every
// analysis, so both are shared.
func (r *Result) copyOut() *Result {
	c := *r
	c.PortPressure = append([]float64(nil), r.PortPressure...)
	c.CPPath = append([]int(nil), r.CPPath...)
	c.LCD.Path = append([]int(nil), r.LCD.Path...)
	c.Instrs = append([]InstrReport(nil), r.Instrs...)
	nPorts := len(r.PortPressure)
	loads := make([]float64, len(r.Instrs)*nPorts)
	for i := range c.Instrs {
		dst := loads[i*nPorts : (i+1)*nPorts : (i+1)*nPorts]
		copy(dst, r.Instrs[i].PortLoads)
		c.Instrs[i].PortLoads = dst
	}
	return &c
}

// CyclesPerElement converts a per-iteration prediction into cycles per
// scalar element given how many elements one block iteration processes.
func CyclesPerElement(cyclesPerIter float64, elemsPerIter int) (float64, error) {
	if elemsPerIter <= 0 {
		return 0, fmt.Errorf("core: elemsPerIter must be positive, got %d", elemsPerIter)
	}
	return cyclesPerIter / float64(elemsPerIter), nil
}
