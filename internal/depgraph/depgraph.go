// Package depgraph builds register/memory dependency graphs over an
// instruction block and extracts the two dataflow quantities the in-core
// model needs: the critical path through one loop iteration and the
// longest loop-carried dependency (LCD) cycle.
//
// The graph is built for the steady state of an infinitely repeated block:
// edges are classified as intra-iteration or loop-carried (producer in
// iteration i, consumer in iteration i+1).
package depgraph

import (
	"fmt"
	"strings"

	"incore/internal/isa"
	"incore/internal/uarch"
)

// EdgeKind classifies dependency edges.
type EdgeKind int

const (
	// EdgeRAW is a true register read-after-write dependency.
	EdgeRAW EdgeKind = iota
	// EdgeWAW is a register write-after-write (false) dependency.
	EdgeWAW
	// EdgeWAR is a register write-after-read (false) dependency.
	EdgeWAR
	// EdgeMem is a store-to-load memory dependency.
	EdgeMem
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeRAW:
		return "RAW"
	case EdgeWAW:
		return "WAW"
	case EdgeWAR:
		return "WAR"
	case EdgeMem:
		return "MEM"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is one dependency from instruction From to instruction To.
type Edge struct {
	From, To int
	Kind     EdgeKind
	// Carried marks a loop-carried edge (From in iteration i, To in
	// iteration i+1).
	Carried bool
	// Lat is the latency in cycles charged along this edge.
	Lat float64
	// Reg is the register carrying the dependency (RAW/WAW/WAR).
	Reg isa.RegKey
	// ViaAccumulator marks RAW edges consumed as the accumulator operand
	// of a fused multiply-add; some cores forward these with reduced
	// latency (see sim).
	ViaAccumulator bool
}

// Node is the per-instruction dependency-relevant summary.
type Node struct {
	Index int
	Desc  uarch.Desc
	Eff   isa.Effects
}

// Options tune graph construction.
type Options struct {
	// IncludeFalseDeps adds WAW/WAR edges (a machine without register
	// renaming); the default models ideal renaming, matching OSACA.
	IncludeFalseDeps bool
	// MemCarriedWindow is the maximum |displacement delta| in bytes for
	// which a store and a load off the same base/index registers are
	// considered overlapping across iterations. Zero disables memory
	// carried dependencies.
	MemCarriedWindow int64
	// StoreForwardLat is the total store-to-load-result latency charged
	// across a forwarding edge plus the load itself; when zero,
	// LoadLat + 2 is used (matching the simulator's forwarding model).
	StoreForwardLat int
	// DegradeUnknown resolves instructions through the model's degraded
	// lookup path: mnemonics outside the instruction table receive a
	// synthesized conservative descriptor (uarch.MatchUnknown) instead
	// of failing graph construction. Node.Desc.Match records how each
	// instruction resolved, so callers can report coverage.
	DegradeUnknown bool
}

// DefaultOptions matches the analyzer's assumptions (ideal renaming,
// memory-carried detection within one cache line).
func DefaultOptions() Options {
	return Options{MemCarriedWindow: 64}
}

// regAccess locates one register read or write: instruction idx in
// simulated iteration iter.
type regAccess struct {
	idx  int
	iter int
}

// edgeIdent is the dedupe identity of an edge.
type edgeIdent struct {
	from, to int
	kind     EdgeKind
	carried  bool
	reg      isa.RegKey
}

// skelEdge is the model-independent structural form of an Edge: everything
// except the latency, which is a pure function of the edge kind and the
// endpoint descriptors and is filled in per model (fillEdges). Keeping the
// structure separate is what makes it cacheable across models (Skeleton).
type skelEdge struct {
	from, to int32
	kind     EdgeKind
	carried  bool
	viaAcc   bool
	reg      isa.RegKey
}

// Scratch holds every reusable arena graph construction and path
// extraction need, so a steady stream of graphs does O(1) heap work
// after warmup. The zero value is ready. A Scratch serves one
// goroutine at a time, and a Graph built against it (NewScratch) — its
// nodes, edges, and effect slices — is only valid until the scratch's
// next use; results that outlive the graph (paths, LCD reports) are
// freshly allocated and safe to retain.
type Scratch struct {
	graph    Graph
	interner isa.RegInterner
	effects  isa.EffectsArena
	effs     []isa.Effects
	descs    []uarch.Desc
	nodes    []Node
	edges    []Edge
	skel     []skelEdge
	out      [][]int
	readIDs  [][]int32
	writeIDs [][]int32

	lastWriter  []regAccess
	lastReaders [][]regAccess
	dedupe      map[edgeIdent]struct{}

	dist []float64
	prev []int
}

// growOuter returns s resized to n entries, keeping existing entries (and
// therefore the capacity of any inner slices) wherever possible.
func growOuter[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// Graph is the dependency graph of one block against one machine model.
type Graph struct {
	Block *isa.Block
	Model *uarch.Model
	Nodes []Node
	Edges []Edge
	// out[i] lists indices into Edges with From == i.
	out [][]int
	// scr backs all construction and query arenas.
	scr *Scratch
}

// New builds the dependency graph. Every instruction must resolve against
// the model, and the model's dialect must match the block's.
func New(b *isa.Block, m *uarch.Model, opt Options) (*Graph, error) {
	return NewScratch(b, m, opt, nil)
}

// NewScratch is New with the graph's internal storage carved out of s's
// reusable arenas (a nil s uses fresh ones). It is the skeleton, the
// descriptor resolution and the instantiation of the artifact path, all
// written into s. The returned graph and its nodes/edges are only valid
// until s is next passed to NewScratch.
func NewScratch(b *isa.Block, m *uarch.Model, opt Options, s *Scratch) (*Graph, error) {
	if s == nil {
		s = &Scratch{}
	}
	sk := buildSkeleton(b, opt, s)
	descs, err := sk.appendDescs(s.descs[:0], m, opt.DegradeUnknown)
	if err != nil {
		return nil, err
	}
	s.descs = descs
	return sk.Instantiate(b, m, descs, opt, s), nil
}

// buildSkeleton writes b's skeleton into s — effects under the block's
// own dialect, the deduped edge structure, and the outgoing-edge
// adjacency — and returns it. The skeleton's slices are s's arenas, valid
// until s's next use; NewSkeleton copies them out.
func buildSkeleton(b *isa.Block, opt Options, s *Scratch) Skeleton {
	s.interner.Reset()
	s.effects.Reset()
	n := len(b.Instrs)
	s.effs = growOuter(s.effs, n)
	for i := range b.Instrs {
		s.effs[i] = isa.InstrEffectsArena(&b.Instrs[i], b.Dialect, &s.effects)
	}
	edges := buildStructure(b, s.effs, opt, s)
	s.out = growOuter(s.out, n)
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
	for ei := range edges {
		f := edges[ei].from
		s.out[f] = append(s.out[f], ei)
	}
	return Skeleton{
		block:     b,
		falseDeps: opt.IncludeFalseDeps,
		memWindow: opt.MemCarriedWindow,
		effs:      s.effs,
		edges:     edges,
		out:       s.out,
	}
}

// accumulatorKey returns the register a fused multiply-add reads as its
// accumulator, if the instruction is an FMA.
func accumulatorKey(in *isa.Instruction, d isa.Dialect) (isa.RegKey, bool) {
	m := in.Mnemonic
	isFMA := strings.HasPrefix(m, "vfma") || strings.HasPrefix(m, "vfnma") ||
		strings.HasPrefix(m, "vfms") || m == "fmla" || m == "fmls" ||
		m == "fmadd" || m == "fmsub" || m == "fnmadd" || m == "fnmsub"
	if !isFMA || len(in.Operands) == 0 {
		return isa.RegKey{}, false
	}
	if d == isa.DialectX86 {
		// AT&T: destination (and accumulator for the 231 form) is last.
		op := in.Operands[len(in.Operands)-1]
		if op.Kind == isa.OpReg {
			return op.Reg.Key(), true
		}
		return isa.RegKey{}, false
	}
	// AArch64: fmla vd, vn, vm accumulates into vd (operand 0);
	// fmadd rd, rn, rm, ra accumulates ra (operand 3).
	if m == "fmadd" || m == "fmsub" || m == "fnmadd" || m == "fnmsub" {
		if len(in.Operands) >= 4 && in.Operands[3].Kind == isa.OpReg {
			return in.Operands[3].Reg.Key(), true
		}
		return isa.RegKey{}, false
	}
	if in.Operands[0].Kind == isa.OpReg {
		return in.Operands[0].Reg.Key(), true
	}
	return isa.RegKey{}, false
}

// buildStructure appends the model-independent edge structure of one block
// to s.skel and returns it: register RAW edges (plus WAW/WAR under
// IncludeFalseDeps) in the order the two-iteration walk discovers them,
// deduped keeping first occurrences, followed by memory edges. Nothing here
// reads a uarch.Desc — structure depends only on block content, dialect,
// and the structural options — which is what lets a Skeleton cache it
// across models; latencies are filled per model by fillEdges.
func buildStructure(b *isa.Block, effs []isa.Effects, opt Options, s *Scratch) []skelEdge {
	n := len(effs)
	s.skel = s.skel[:0]
	// lastWriter[id] = index of the most recent writer of the register
	// with that interned ID in program order; simulate two consecutive
	// iterations to find carried edges. The interner is shared with the
	// simulator's compile step (isa.RegInterner): both lower RegKey maps
	// to dense-ID slices, so per-register tracking is slice indexing.
	s.readIDs = growOuter(s.readIDs, n)
	s.writeIDs = growOuter(s.writeIDs, n)
	for i := range effs {
		s.readIDs[i] = s.interner.InternAll(s.readIDs[i][:0], effs[i].Reads)
		s.writeIDs[i] = s.interner.InternAll(s.writeIDs[i][:0], effs[i].Writes)
	}
	nRegs := s.interner.Len()
	s.lastWriter = growOuter(s.lastWriter, nRegs)
	for i := range s.lastWriter {
		s.lastWriter[i] = regAccess{idx: -1}
	}
	s.lastReaders = growOuter(s.lastReaders, nRegs)
	for i := range s.lastReaders {
		s.lastReaders[i] = s.lastReaders[i][:0]
	}
	lastWriter, lastReaders := s.lastWriter, s.lastReaders

	addRAW := func(from regAccess, to regAccess, key isa.RegKey) {
		if from.iter == 1 && to.iter == 1 {
			return // duplicate of the 0->0 intra edge
		}
		carried := from.iter != to.iter
		if from.iter == 0 && to.iter == 0 {
			carried = false
		}
		// Only keep iteration-0 sourced edges and 0->1 carried edges.
		if from.iter > to.iter {
			return
		}
		consumer := &b.Instrs[to.idx]
		acc, isAcc := accumulatorKey(consumer, b.Dialect)
		s.skel = append(s.skel, skelEdge{
			from: int32(from.idx), to: int32(to.idx), kind: EdgeRAW, carried: carried,
			reg: key, viaAcc: isAcc && acc == key,
		})
	}

	for iter := 0; iter < 2; iter++ {
		for i := 0; i < n; i++ {
			eff := &effs[i]
			cur := regAccess{idx: i, iter: iter}
			for ri, r := range eff.Reads {
				id := s.readIDs[i][ri]
				if w := lastWriter[id]; w.idx >= 0 {
					if !(w.iter == iter && w.idx == i) {
						addRAW(w, cur, r)
					}
				}
				lastReaders[id] = append(lastReaders[id], cur)
			}
			for wi, w := range eff.Writes {
				id := s.writeIDs[i][wi]
				if opt.IncludeFalseDeps {
					if pw := lastWriter[id]; pw.idx >= 0 && !(pw.iter == 1 && iter == 1) && pw.iter <= iter {
						s.skel = append(s.skel, skelEdge{
							from: int32(pw.idx), to: int32(i), kind: EdgeWAW,
							carried: pw.iter != iter, reg: w,
						})
					}
					for _, rd := range lastReaders[id] {
						if rd.idx == i && rd.iter == iter {
							continue
						}
						if rd.iter == 1 && iter == 1 {
							continue
						}
						if rd.iter <= iter {
							s.skel = append(s.skel, skelEdge{
								from: int32(rd.idx), to: int32(i), kind: EdgeWAR,
								carried: rd.iter != iter, reg: w,
							})
						}
					}
				}
				lastWriter[id] = regAccess{idx: i, iter: iter}
				lastReaders[id] = lastReaders[id][:0]
			}
		}
	}
	s.skel = dedupeStructure(s.skel, s)
	buildMemStructure(effs, opt, s)
	return s.skel
}

// dedupeStructure removes repeated edges in place, keeping first
// occurrences in order. Memory edges are appended after this runs,
// preserving the historical behavior of deduping register edges only.
func dedupeStructure(edges []skelEdge, s *Scratch) []skelEdge {
	if s.dedupe == nil {
		s.dedupe = make(map[edgeIdent]struct{}, len(edges))
	} else {
		clear(s.dedupe)
	}
	w := 0
	for _, e := range edges {
		k := edgeIdent{int(e.from), int(e.to), e.kind, e.carried, e.reg}
		if _, dup := s.dedupe[k]; dup {
			continue
		}
		s.dedupe[k] = struct{}{}
		edges[w] = e
		w++
	}
	return edges[:w]
}

// chainLat is the latency a producer contributes along a register
// dependency chain. For instructions with folded memory sources the load
// part is pipelined off the address stream and does not serialize register
// chains, so only the compute latency counts; pure loads contribute their
// full load-to-use latency.
func chainLat(d *uarch.Desc) float64 {
	if d.Lat > 0 {
		return float64(d.Lat)
	}
	return float64(d.TotalLat)
}

// buildMemStructure appends store→load RAW dependencies over the same
// address stream (same base and index registers) to s.skel. Direction
// matters for a loop whose index advances monotonically: with store
// displacement S and load displacement L, a later iteration's load
// re-reads a stored location only if S - L > 0 (the store runs ahead of
// the load in address space); equal displacements alias within one
// iteration when the store precedes the load in program order.
func buildMemStructure(effs []isa.Effects, opt Options, s *Scratch) {
	if opt.MemCarriedWindow == 0 {
		return
	}
	sameStream := func(a, b *isa.MemOp) bool {
		if !a.Base.Valid() || !b.Base.Valid() {
			return false
		}
		if a.Base.Key() != b.Base.Key() {
			return false
		}
		ai, bi := a.Index.Valid(), b.Index.Valid()
		if ai != bi {
			return false
		}
		if ai && a.Index.Key() != b.Index.Key() {
			return false
		}
		return true
	}
	for si := range effs {
		for _, st := range effs[si].StoreOps {
			for li := range effs {
				for _, ld := range effs[li].LoadOps {
					if !sameStream(st, ld) {
						continue
					}
					delta := st.Disp - ld.Disp
					switch {
					case delta == 0 && si < li:
						s.skel = append(s.skel, skelEdge{
							from: int32(si), to: int32(li), kind: EdgeMem,
						})
					case delta > 0 && delta <= opt.MemCarriedWindow:
						s.skel = append(s.skel, skelEdge{
							from: int32(si), to: int32(li), kind: EdgeMem, carried: true,
						})
					}
				}
			}
		}
	}
}

// fillEdges materializes structural edges into dst with each kind's
// model-dependent latency: RAW edges charge the producer's chain latency,
// false dependencies one rename cycle, and memory edges the store-forward
// latency minus the consuming load's own chain contribution (charged by
// the load's outgoing edges, so the total store→load-result cost equals
// the forward latency), floored at one cycle.
func fillEdges(dst []Edge, skel []skelEdge, nodes []Node, loadLat int, opt Options) []Edge {
	fwd := opt.StoreForwardLat
	if fwd == 0 {
		fwd = loadLat + 2
	}
	for i := range skel {
		se := &skel[i]
		e := Edge{
			From: int(se.from), To: int(se.to), Kind: se.kind, Carried: se.carried,
			Reg: se.reg, ViaAccumulator: se.viaAcc,
		}
		switch se.kind {
		case EdgeRAW:
			e.Lat = chainLat(&nodes[se.from].Desc)
		case EdgeWAW, EdgeWAR:
			e.Lat = 1
		case EdgeMem:
			e.Lat = float64(fwd) - chainLat(&nodes[se.to].Desc)
			if e.Lat < 1 {
				e.Lat = 1
			}
		}
		dst = append(dst, e)
	}
	return dst
}

// CriticalPath returns the longest latency path through one iteration,
// considering only intra-iteration edges (cycles are impossible within one
// iteration of straight-line code).
func (g *Graph) CriticalPath() float64 {
	cp, _ := g.CriticalPathDetail()
	return cp
}

// CriticalPathDetail additionally returns the instruction indices on the
// critical path in program order (the OSACA report's CP column). The
// returned path is freshly allocated and safe to retain.
func (g *Graph) CriticalPathDetail() (float64, []int) {
	return g.CriticalPathDetailAppend(nil)
}

// CriticalPathDetailAppend is CriticalPathDetail writing the path into
// buf's backing array (buf[:0]); the path is only valid until the buffer
// is reused. A nil buf allocates, matching CriticalPathDetail.
func (g *Graph) CriticalPathDetailAppend(buf []int) (float64, []int) {
	n := len(g.Nodes)
	s := g.scr
	// dist[i] = longest path ending at i, including i's own latency.
	s.dist = growOuter(s.dist, n)
	s.prev = growOuter(s.prev, n)
	dist, prev := s.dist[:n], s.prev[:n]
	for i := range dist {
		dist[i] = 0
		prev[i] = -1
	}
	best, bestEnd := 0.0, -1
	for i := 0; i < n; i++ {
		self := float64(g.Nodes[i].Desc.TotalLat)
		if dist[i] < self {
			dist[i] = self
		}
		if dist[i] > best {
			best, bestEnd = dist[i], i
		}
		for _, ei := range g.out[i] {
			e := &g.Edges[ei]
			if e.Carried || e.To <= i {
				continue
			}
			if d := dist[i] + float64(g.Nodes[e.To].Desc.TotalLat); d > dist[e.To] {
				dist[e.To] = d
				prev[e.To] = i
			}
		}
	}
	path := buf[:0]
	for v := bestEnd; v >= 0; v = prev[v] {
		path = append(path, v)
	}
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return best, path
}

// LCDResult describes the dominant loop-carried dependency.
type LCDResult struct {
	// Cycles is the latency of the longest carried cycle per iteration.
	Cycles float64
	// Path lists the instruction indices on the dominant cycle, starting
	// at the carried edge's target.
	Path []int
	// ViaAccumulator is true when every latency-bearing edge on the
	// cycle is an FMA accumulator edge (candidates for accumulator
	// forwarding on Neoverse V2).
	ViaAccumulator bool
}

// LoopCarried computes the longest loop-carried dependency cycle,
// i.e. the steady-state minimum initiation interval due to dataflow.
//
// AccLatOverride, when non-negative, replaces the latency of RAW
// accumulator edges (used to model accumulator forwarding); pass -1 for
// table latencies.
func (g *Graph) LoopCarried(accLatOverride float64) LCDResult {
	return g.LoopCarriedAppend(accLatOverride, nil)
}

// LoopCarriedAppend is LoopCarried writing the winning cycle's path into
// buf's backing array (buf[:0]); the result's Path is only valid until
// the buffer is reused. A nil buf allocates, matching LoopCarried.
func (g *Graph) LoopCarriedAppend(accLatOverride float64, buf []int) LCDResult {
	// First pass finds the dominant carried edge by cycle latency alone;
	// the (allocating) path is materialized only for the winner.
	best := LCDResult{}
	bestEdge := -1
	for ei := range g.Edges {
		e := &g.Edges[ei]
		if !e.Carried {
			continue
		}
		// Longest path from e.To to e.From using intra-iteration edges,
		// then close the cycle with e.
		lat := g.longestPathBetween(e.To, e.From, accLatOverride)
		if lat < 0 {
			continue // e.From not reachable from e.To
		}
		closeLat := e.Lat
		if accLatOverride >= 0 && e.Kind == EdgeRAW && e.ViaAccumulator {
			closeLat = accLatOverride
		}
		total := lat + closeLat
		if total > best.Cycles {
			best = LCDResult{Cycles: total, ViaAccumulator: e.Kind == EdgeRAW && e.ViaAccumulator}
			bestEdge = ei
		}
	}
	if bestEdge >= 0 {
		e := &g.Edges[bestEdge]
		g.longestPathBetween(e.To, e.From, accLatOverride)
		best.Path = g.materializePath(e.To, e.From, buf)
	}
	return best
}

// longestPathBetween returns the longest latency path from src to dst using
// only intra-iteration edges, where path latency is the sum of edge
// latencies (edge latency = producer latency). Returns -1 when dst is
// unreachable; a zero-length path (src == dst) has latency 0. The
// predecessor chain is left in the scratch for materializePath.
func (g *Graph) longestPathBetween(src, dst int, accLatOverride float64) float64 {
	n := len(g.Nodes)
	s := g.scr
	const unreach = -1.0
	s.dist = growOuter(s.dist, n)
	s.prev = growOuter(s.prev, n)
	dist, prev := s.dist[:n], s.prev[:n]
	for i := range dist {
		dist[i] = unreach
		prev[i] = -1
	}
	dist[src] = 0
	for i := 0; i < n; i++ {
		if dist[i] == unreach {
			continue
		}
		for _, ei := range g.out[i] {
			e := &g.Edges[ei]
			if e.Carried || e.To <= i {
				continue
			}
			lat := e.Lat
			if accLatOverride >= 0 && e.Kind == EdgeRAW && e.ViaAccumulator {
				lat = accLatOverride
			}
			if d := dist[i] + lat; d > dist[e.To] {
				dist[e.To] = d
				prev[e.To] = i
			}
		}
	}
	return dist[dst]
}

// materializePath rebuilds the src→dst path from the predecessor chain the
// last longestPathBetween left behind, appended to buf[:0] (a nil buf
// yields a fresh slice safe to retain).
func (g *Graph) materializePath(src, dst int, buf []int) []int {
	prev := g.scr.prev
	path := buf[:0]
	for v := dst; v != -1; v = prev[v] {
		path = append(path, v)
		if v == src {
			break
		}
	}
	// Reverse.
	for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
		path[l], path[r] = path[r], path[l]
	}
	return path
}

// CarriedEdges returns the loop-carried edges (for reporting and tests).
func (g *Graph) CarriedEdges() []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.Carried {
			out = append(out, e)
		}
	}
	return out
}
