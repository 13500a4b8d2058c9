package depgraph

import (
	"fmt"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// Skeleton is the model-independent compiled form of a block's dependency
// structure: per-instruction architectural effects plus the deduped edge
// list with everything but latencies resolved, and the precomputed
// outgoing-edge adjacency. Building a graph for a model then reduces to
// resolving descriptors (ResolveDescs, itself cacheable per model) and
// filling edge latencies (Instantiate) — no effect extraction, no register
// interning, no two-iteration walk, no dedupe map.
//
// A Skeleton from NewSkeleton is immutable, holds exact-size copies of
// its slices (it pins no Scratch), and is safe to share across goroutines
// and models. It retains its source block (pinning the MemOp pointers the
// effects reference), so cached skeletons keep their blocks alive —
// intended for the process-lifetime artifact cache in internal/pipeline.
type Skeleton struct {
	block *isa.Block
	// Structural options the edge list was built under; Instantiate
	// callers must pass options agreeing on these fields.
	falseDeps bool
	memWindow int64

	effs  []isa.Effects
	edges []skelEdge
	// out[i] lists indices into edges with from == i; shared read-only by
	// every instantiated graph.
	out [][]int
}

// NewSkeleton builds the durable structure of b under opt's structural
// fields (IncludeFalseDeps, MemCarriedWindow; latency-side options are
// applied at Instantiate). The block's own dialect drives effect
// extraction, so the skeleton serves any model of that dialect.
func NewSkeleton(b *isa.Block, opt Options) (*Skeleton, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	var s Scratch
	sk := buildSkeleton(b, opt, &s)
	return sk.clone(), nil
}

// clone copies sk out of its scratch arenas into exact-size slices.
func (sk *Skeleton) clone() *Skeleton {
	c := *sk
	var nRegs, nMems int
	for i := range sk.effs {
		e := &sk.effs[i]
		nRegs += len(e.Reads) + len(e.Writes)
		nMems += len(e.LoadOps) + len(e.StoreOps)
	}
	regs := make([]isa.RegKey, 0, nRegs)
	mems := make([]*isa.MemOp, 0, nMems)
	c.effs = make([]isa.Effects, len(sk.effs))
	for i := range sk.effs {
		e := &sk.effs[i]
		c.effs[i] = isa.Effects{
			Reads:    carve(&regs, e.Reads),
			Writes:   carve(&regs, e.Writes),
			LoadOps:  carve(&mems, e.LoadOps),
			StoreOps: carve(&mems, e.StoreOps),
		}
	}
	c.edges = append([]skelEdge(nil), sk.edges...)
	flat := make([]int, 0, len(sk.edges))
	c.out = make([][]int, len(sk.out))
	for i, o := range sk.out {
		c.out[i] = carve(&flat, o)
	}
	return &c
}

// carve appends src to *buf, whose capacity the caller sized for every
// carve, and returns the appended span (nil when src is empty).
func carve[T any](buf *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	n := len(*buf)
	*buf = append(*buf, src...)
	return (*buf)[n:len(*buf):len(*buf)]
}

// Block returns the block the skeleton was built from.
func (sk *Skeleton) Block() *isa.Block { return sk.block }

// Matches reports whether opt agrees with the skeleton on the structural
// options its edge list was built under.
func (sk *Skeleton) Matches(opt Options) bool {
	return sk.falseDeps == opt.IncludeFalseDeps && sk.memWindow == opt.MemCarriedWindow
}

// ResolveDescs resolves every instruction's descriptor against one model —
// the per-(block, model) half of graph construction that Instantiate
// consumes, and the one place a block meets a model: a model of another
// dialect than the block's is an error. The returned slice is freshly
// allocated, treated as immutable, and safe to cache and share across
// goroutines.
func (sk *Skeleton) ResolveDescs(m *uarch.Model, degrade bool) ([]uarch.Desc, error) {
	return sk.appendDescs(make([]uarch.Desc, 0, len(sk.effs)), m, degrade)
}

// appendDescs is ResolveDescs appending to dst.
func (sk *Skeleton) appendDescs(dst []uarch.Desc, m *uarch.Model, degrade bool) ([]uarch.Desc, error) {
	b := sk.block
	if b.Dialect != m.Dialect {
		return nil, fmt.Errorf("depgraph: block %s is %s, model %s is %s", b.Name, b.Dialect, m.Key, m.Dialect)
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		eff := sk.effs[i]
		if degrade {
			dst = append(dst, m.LookupEffDegraded(in, &eff))
			continue
		}
		d, err := m.LookupEff(in, &eff)
		if err != nil {
			return nil, fmt.Errorf("depgraph: block %s: instr %d (%s): %w", b.Name, i, in.Mnemonic, err)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// Instantiate materializes the skeleton against one model into s's arenas
// — same nodes, same edge order, same latencies whether sk is a cached
// NewSkeleton or the one NewScratch just built. b must be content-identical
// to the skeleton's source block, descs must come from ResolveDescs
// against m (or a cache of it) with opt.DegradeUnknown, and opt must
// satisfy Matches; the artifact keys in internal/pipeline enforce all
// three. The graph is valid until s's next use, like NewScratch.
func (sk *Skeleton) Instantiate(b *isa.Block, m *uarch.Model, descs []uarch.Desc, opt Options, s *Scratch) *Graph {
	g := &s.graph
	*g = Graph{Block: b, Model: m, scr: s}
	n := len(sk.effs)
	s.nodes = growOuter(s.nodes, n)
	g.Nodes = s.nodes[:n]
	for i := range g.Nodes {
		g.Nodes[i] = Node{Index: i, Desc: descs[i], Eff: sk.effs[i]}
	}
	g.Edges = fillEdges(s.edges[:0], sk.edges, g.Nodes, m.LoadLat, opt)
	s.edges = g.Edges
	g.out = sk.out
	return g
}

// SizeEstimate approximates the skeleton's retained heap bytes for cache
// accounting. It is an estimate by design: fixed per-element costs stand
// in for exact allocator sizes, and the retained source block is counted
// by the parsed-block tier, not here.
func (sk *Skeleton) SizeEstimate() int {
	const (
		edgeBytes = 40 // skelEdge
		effBytes  = 96 // isa.Effects header
	)
	size := 128 + len(sk.edges)*edgeBytes + len(sk.effs)*effBytes
	for i := range sk.effs {
		e := &sk.effs[i]
		size += 24*(len(e.Reads)+len(e.Writes)) + 8*(len(e.LoadOps)+len(e.StoreOps))
	}
	for _, o := range sk.out {
		size += 24 + 8*len(o)
	}
	return size
}
