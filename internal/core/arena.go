package core

import (
	"sync"

	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/uarch"
)

// ResultArena owns every backing array an analysis writes: the Result
// struct itself, the per-instruction reports, a flat port-load matrix,
// the path buffers, and a per-block cache of rendered instruction text.
// Every analysis runs on one; Analyze and AnalyzeCompiled draw it from a
// pool and return a copy. With a warm arena and prebuilt artifacts
// (skeleton + descriptors), AnalyzeArena performs zero heap allocations
// per call.
//
// The arena's Result is INVALID after the arena's next use: callers must
// consume it (or copy what they keep) before analyzing again, must not
// share it across goroutines, and must never hand it to a cache or the
// persistent store. Use Analyzer.Analyze for results that escape.
//
// The text cache is keyed by block pointer, so a block must not be
// modified in place once analyzed; pipeline.InternalArena, which binds
// artifacts by block pointer, makes the same assumption.
type ResultArena struct {
	s   Scratch
	res Result

	instrs       []InstrReport
	portLoads    []float64 // flat len(Instrs)×nPorts backing
	portPressure []float64
	cpPath       []int
	lcdPath      []int

	// texts caches Instruction.String() per block pointer: generated
	// blocks render text on every String call, so re-rendering only when
	// the block changes is what amortizes Text to zero on repeat analyses.
	texts      []string
	textsBlock *isa.Block
}

// text returns the cached rendering of b's instruction i, rebuilding the
// cache when the arena last served a different block.
func (ar *ResultArena) text(b *isa.Block, i int) string {
	if ar.textsBlock != b {
		ar.texts = ar.texts[:0]
		for j := range b.Instrs {
			ar.texts = append(ar.texts, b.Instrs[j].String())
		}
		ar.textsBlock = b
	}
	return ar.texts[i]
}

// arenaPool serves Analyze and AnalyzeCompiled.
var arenaPool = sync.Pool{New: func() any { return new(ResultArena) }}

// AnalyzeCompiled is Analyze against prebuilt compiled artifacts: sk holds
// the block's model-independent dependency structure and descs the
// instructions resolved against m (nil descs resolve here). The Result is
// a copy out of a pooled arena and byte-identical to Analyze's for the
// same inputs — callers (internal/pipeline) may memoize and persist it
// interchangeably.
func (a *Analyzer) AnalyzeCompiled(b *isa.Block, m *uarch.Model, sk *depgraph.Skeleton, descs []uarch.Desc) (*Result, error) {
	ar := arenaPool.Get().(*ResultArena)
	defer arenaPool.Put(ar)
	r, err := a.AnalyzeArena(b, m, sk, descs, ar)
	if err != nil {
		return nil, err
	}
	return r.copyOut(), nil
}

// AnalyzeArena is AnalyzeCompiled returning the arena-owned Result — the
// zero-allocation internal path. See ResultArena for the (strict) validity
// contract. The arena embeds its own scratch, so a ResultArena is also a
// single-goroutine resource.
func (a *Analyzer) AnalyzeArena(b *isa.Block, m *uarch.Model, sk *depgraph.Skeleton, descs []uarch.Desc, ar *ResultArena) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if descs == nil {
		var err error
		descs, err = sk.ResolveDescs(m, a.Opt.DegradeUnknown)
		if err != nil {
			return nil, err
		}
	}
	g := sk.Instantiate(b, m, descs, a.Opt, &ar.s.dg)
	return finishResult(b, m, g, ar), nil
}
