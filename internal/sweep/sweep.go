// Package sweep is the design-space exploration engine: it expands a base
// machine model and a set of parameter axes into the full cross-product of
// model variants, runs a block set through the analysis pipeline for every
// variant, and reduces the grid to per-variant predictions and Pareto
// fronts (predicted cycles vs. port count, sustained GF/s vs. TDP, ...).
//
// The engine's performance contract is variant-aware incremental
// recompute, built on two identities a model carries:
//
//   - Model.CacheKey names the full modeled scenario. Result cells are
//     memoized and persisted under it, so a sweep is warm-resumable per
//     variant and can never poison the built-in scenario sharing its key.
//   - Model.PortSignature names only the in-core subset. The compiled
//     artifact tier (internal/pipeline) keys descriptor tables, mca
//     schedules, and sim programs on it, so node-only variants (bandwidth,
//     TDP, frequency) reuse every parsed block, depgraph skeleton,
//     descriptor table, and port analysis, and only the cheap
//     ECM/Roofline/frequency projections are recomputed; port-count
//     variants still share skeletons and parsed blocks and recompile only
//     the port-dependent stages.
//
// Everything is deterministic: axes are canonicalized (sorted by
// parameter name, values sorted and deduplicated), the cross-product is
// enumerated in mixed-radix order, and rendering is byte-identical at any
// worker count — the same contract as cmd/repro.
package sweep

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"incore/internal/uarch"
)

// Axis is one swept parameter: the canonical machine-file field name and
// the values to try. Values are float64 on the wire for uniformity;
// integer parameters reject non-integral values.
type Axis struct {
	Param  string    `json:"param"`
	Values []float64 `json:"values"`
}

// ParamValue is one variant's assignment of one axis.
type ParamValue struct {
	Param string  `json:"param"`
	Value float64 `json:"value"`
}

// paramKind classifies how a parameter applies to a model.
type paramKind int

const (
	// kindInt sets an integer Model field.
	kindInt paramKind = iota
	// kindFloat sets a float Model field.
	kindFloat
	// kindPortCount resizes a port mask (see setPortCount).
	kindPortCount
	// kindNode sets a node-section float; requires the base model to
	// carry the corresponding node parameters.
	kindNode
)

// paramDef describes one sweepable parameter.
type paramDef struct {
	kind paramKind
	// node reports whether varying the parameter leaves the port
	// signature unchanged (node/clocking-only parameters).
	node  bool
	apply func(m *uarch.Model, v float64) error
}

// paramDefs is the sweepable-parameter registry, keyed by the canonical
// machine-file field name. Entries and the dialect are deliberately not
// sweepable: a sweep varies the machine around a fixed instruction table.
var paramDefs = map[string]paramDef{
	"issue_width":     {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.IssueWidth = int(v); return nil }},
	"decode_width":    {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.DecodeWidth = int(v); return nil }},
	"retire_width":    {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.RetireWidth = int(v); return nil }},
	"rob_size":        {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.ROBSize = int(v); return nil }},
	"scheduler_size":  {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.SchedSize = int(v); return nil }},
	"phys_vec_regs":   {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.PhysVecRegs = int(v); return nil }},
	"phys_gp_regs":    {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.PhysGPRegs = int(v); return nil }},
	"load_latency":    {kind: kindInt, apply: func(m *uarch.Model, v float64) error { m.LoadLat = int(v); return nil }},
	"load_ports":      {kind: kindPortCount, apply: func(m *uarch.Model, v float64) error { return setPortCount(m, &m.LoadPorts, int(v), "ld") }},
	"store_agu_ports": {kind: kindPortCount, apply: func(m *uarch.Model, v float64) error { return setPortCount(m, &m.StoreAGUPorts, int(v), "sta") }},
	"store_data_ports": {kind: kindPortCount, apply: func(m *uarch.Model, v float64) error {
		return setPortCount(m, &m.StoreDataPorts, int(v), "std")
	}},
	"cores_per_chip": {kind: kindInt, node: true, apply: func(m *uarch.Model, v float64) error { m.CoresPerChip = int(v); return nil }},
	"base_freq_ghz":  {kind: kindFloat, node: true, apply: func(m *uarch.Model, v float64) error { m.BaseFreqGHz = v; return nil }},
	"max_freq_ghz":   {kind: kindFloat, node: true, apply: func(m *uarch.Model, v float64) error { m.MaxFreqGHz = v; return nil }},
	"mem_bandwidth_gbs": {kind: kindNode, node: true, apply: func(m *uarch.Model, v float64) error {
		if m.Node == nil {
			return fmt.Errorf("sweep: model %s carries no node section for mem_bandwidth_gbs", m.Key)
		}
		m.Node.MemBWGBs = v
		return nil
	}},
	"tdp_watts": {kind: kindNode, node: true, apply: func(m *uarch.Model, v float64) error {
		if m.Node == nil || m.Node.Freq == nil {
			return fmt.Errorf("sweep: model %s carries no freq section for tdp_watts", m.Key)
		}
		m.Node.Freq.TDPWatts = v
		return nil
	}},
}

// Params lists the sweepable parameter names, sorted.
func Params() []string {
	out := make([]string, 0, len(paramDefs))
	for p := range paramDefs {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NodeOnly reports whether every axis varies only node/clocking-level
// parameters — the case where all variants share the base model's port
// signature and therefore every compiled artifact.
func NodeOnly(axes []Axis) bool {
	for _, ax := range axes {
		if d, ok := paramDefs[ax.Param]; !ok || !d.node {
			return false
		}
	}
	return true
}

// Canonicalize validates axes and returns the canonical form the engine
// enumerates: axes sorted by parameter name, values sorted ascending and
// deduplicated. Two requests describing the same ranges in any order
// therefore generate identical variants, fingerprints, and cache keys.
func Canonicalize(axes []Axis) ([]Axis, error) {
	out := make([]Axis, 0, len(axes))
	seen := map[string]bool{}
	for _, ax := range axes {
		d, ok := paramDefs[ax.Param]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown parameter %q (known: %v)", ax.Param, Params())
		}
		if seen[ax.Param] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", ax.Param)
		}
		seen[ax.Param] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Param)
		}
		vals := append([]float64(nil), ax.Values...)
		sort.Float64s(vals)
		dedup := vals[:1]
		for _, v := range vals[1:] {
			if v != dedup[len(dedup)-1] {
				dedup = append(dedup, v)
			}
		}
		for _, v := range dedup {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("sweep: axis %q: value %v out of range (must be finite and positive)", ax.Param, v)
			}
			if d.kind != kindFloat && d.kind != kindNode && v != math.Trunc(v) {
				return nil, fmt.Errorf("sweep: axis %q: value %v must be an integer", ax.Param, v)
			}
			if d.kind == kindPortCount && v > 32 {
				return nil, fmt.Errorf("sweep: axis %q: value %v exceeds the 32-port model limit", ax.Param, v)
			}
		}
		out = append(out, Axis{Param: ax.Param, Values: dedup})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Param < out[j].Param })
	return out, nil
}

// Count returns the cross-product size of the (not necessarily
// canonicalized) axes, saturating at math.MaxInt on overflow. Callers
// enforce their variant caps against it before any model is cloned.
func Count(axes []Axis) int {
	n := 1
	for _, ax := range axes {
		v := len(ax.Values)
		if v == 0 {
			continue
		}
		if n > math.MaxInt/v {
			return math.MaxInt
		}
		n *= v
	}
	return n
}

// Variant is one generated model of the design space.
type Variant struct {
	// Index is the variant's position in the canonical mixed-radix
	// enumeration (last canonical axis fastest).
	Index int
	// Params is the full assignment, sorted by parameter name.
	Params []ParamValue
	// Model is the generated, reindexed model. It keeps the base model's
	// key — its cache identity is key@fingerprint — and is deliberately
	// not registered: all analysis entry points take the model directly,
	// and registering same-key-different-content models would conflict.
	Model *uarch.Model
}

// Variants expands the cross-product of the axes over the base model.
// The enumeration is deterministic: axes are canonicalized first, and
// variant i takes the mixed-radix digits of i over the canonical axis
// order. A parameter combination the model rejects (e.g. a ROB smaller
// than the issue width) fails the whole expansion — sweeps are grids, not
// best-effort samples, so a hole would silently skew every front.
func Variants(base *uarch.Model, axes []Axis) ([]Variant, error) {
	canon, err := Canonicalize(axes)
	if err != nil {
		return nil, err
	}
	n := Count(canon)
	out := make([]Variant, 0, n)
	for i := 0; i < n; i++ {
		v := Variant{Index: i, Params: make([]ParamValue, len(canon))}
		rem := i
		for a := len(canon) - 1; a >= 0; a-- {
			ax := canon[a]
			v.Params[a] = ParamValue{Param: ax.Param, Value: ax.Values[rem%len(ax.Values)]}
			rem /= len(ax.Values)
		}
		m, err := applyParams(base, v.Params)
		if err != nil {
			return nil, fmt.Errorf("sweep: variant %d (%s): %w", i, FormatParams(v.Params), err)
		}
		v.Model = m
		out = append(out, v)
	}
	return out, nil
}

// FormatParams renders an assignment as "a=1,b=2.5" (params are already
// in canonical order).
func FormatParams(ps []ParamValue) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += ","
		}
		s += p.Param + "=" + strconv.FormatFloat(p.Value, 'g', -1, 64)
	}
	return s
}

// applyParams clones the base model, applies the assignment, and
// reindexes the clone from the base (uarch.Model.ReindexFrom): a
// node-only assignment shares the base's lookup tables and port
// signature and hashes only its own header ahead of the base's encoded
// instruction table; any other rebuilds them. The clone is deep where
// mutation reaches — the port list and the node section — and shares
// the immutable rest (entries, maps rebuilt or shared by ReindexFrom).
func applyParams(base *uarch.Model, ps []ParamValue) (*uarch.Model, error) {
	m := cloneForMutation(base)
	for _, p := range ps {
		if err := paramDefs[p.Param].apply(m, p.Value); err != nil {
			return nil, err
		}
	}
	if err := m.ReindexFrom(base); err != nil {
		return nil, err
	}
	return m, nil
}

// cloneForMutation copies a model deeply enough that applying any
// parameter never writes through to the base: the port list (port-count
// growth appends) and the node section (bandwidth/TDP set scalars) get
// fresh copies; the entry table is shared read-only.
func cloneForMutation(base *uarch.Model) *uarch.Model {
	m := *base
	m.Ports = append([]string(nil), base.Ports...)
	if np := base.Node; np != nil {
		nc := *np
		if np.ECM != nil {
			ec := *np.ECM
			nc.ECM = &ec
		}
		if np.Freq != nil {
			fc := *np.Freq
			nc.Freq = &fc
		}
		m.Node = &nc
	}
	if base.Unknown != nil {
		uc := *base.Unknown
		m.Unknown = &uc
	}
	return &m
}

// setPortCount resizes a port mask to count ports. Shrinking drops the
// highest-indexed ports from the mask; growing appends fresh dedicated
// ports to the model's port list (named "<class>#<index>") and adds them
// to the mask — modeling "add a load port" rather than overloading an
// existing ALU port with a second duty.
func setPortCount(m *uarch.Model, mask *uarch.PortMask, count int, class string) error {
	if count < 1 {
		return fmt.Errorf("sweep: port count %d must be at least 1", count)
	}
	for mask.Count() > count {
		// Clear the highest set bit.
		hi := -1
		for _, i := range mask.Indices() {
			hi = i
		}
		*mask &^= 1 << uint(hi)
	}
	for mask.Count() < count {
		if len(m.Ports) >= 32 {
			return fmt.Errorf("sweep: growing %s ports past the 32-port model limit", class)
		}
		m.Ports = append(m.Ports, fmt.Sprintf("%s#%d", class, len(m.Ports)))
		*mask |= 1 << uint(len(m.Ports)-1)
	}
	return nil
}
