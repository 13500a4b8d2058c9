package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"

	"incore/internal/core"
	"incore/internal/depgraph"
	"incore/internal/isa"
	"incore/internal/mca"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// This file is the compiled-artifact tier: a process-lifetime,
// content-keyed cache of the pipeline's expensive front-ends — compiled
// sim.Programs, parsed request blocks, depgraph skeletons, resolved
// descriptor tables, and mca static schedules. Artifacts differ from memo
// results in two ways that give them their own tier:
//
//   - they are pointer-shared and immutable, not serializable values: a
//     *sim.Program full of interned-ID tables has no stable wire form
//     worth inventing, so artifacts never enter the persistent store (and
//     therefore never force a store schema bump);
//   - they are cheap to rebuild relative to a disk round-trip but
//     expensive relative to a warm execute, so the right lifetime is the
//     process, not the store — a restart recompiles in microseconds per
//     block, while a busy server replaying hot blocks across many models
//     (or a model sweep over one block) skips straight to the engine.
//
// Keys are content keys, exactly like the memo tier: block content via
// BlockKey (or a sha256 of raw request text for the parse cache), models
// via Model.PortSignature — the sub-fingerprint over only the
// port/descriptor-relevant model subset (ports, structural parameters,
// memory pipeline, unknown policy, instruction table). Artifacts depend on
// exactly that subset, so two models differing only in node-level
// parameters (bandwidth, ECM, TDP, frequencies) or labels share every
// compiled artifact — the sharing a design-space sweep's node variants
// ride — while an in-place port mutation plus Reindex (new signature)
// still misses, and a what-if model can never share a mis-parameterized
// Program with the built-in it shadows. Memo and store entries, by
// contrast, stay keyed on the full Model.CacheKey: a *result* names the
// whole modeled scenario, an *artifact* only its in-core inputs. Errors
// are cached like successes (determinism over optimism, matching
// Cache.Do). SwapTiers deliberately does not touch this tier: artifacts
// are content-addressed and model-signed, so they stay valid across store
// swaps.

// artifactKind indexes the per-kind entry counters.
type artifactKind int

const (
	kindProgram artifactKind = iota
	kindBlock
	kindSkeleton
	kindDescs
	kindMCA
	numArtifactKinds
)

// Artifacts is a concurrency-safe compiled-artifact cache with
// singleflight semantics and three-way accounting: the executor of a key
// counts one compile, a requester that found the entry already built
// counts a hit, and a requester that arrived while the build was in
// flight counts a singleflight attach (it blocked on the executor instead
// of duplicating the work).
type Artifacts struct {
	mu sync.Mutex
	m  map[string]*aentry

	kinds    [numArtifactKinds]atomic.Int64
	hits     atomic.Uint64
	attaches atomic.Uint64
	compiles atomic.Uint64
	bytes    atomic.Int64
}

type aentry struct {
	once sync.Once
	done atomic.Bool
	val  any
	err  error
}

// NewArtifacts returns an empty artifact cache.
func NewArtifacts() *Artifacts { return &Artifacts{m: map[string]*aentry{}} }

// do returns the cached artifact for key, building it with fn on first
// use. size, when non-nil, estimates the retained bytes of a successful
// build for the accounting.
func (a *Artifacts) do(kind artifactKind, key string, size func(any) int, fn func() (any, error)) (any, error) {
	a.mu.Lock()
	e, ok := a.m[key]
	if !ok {
		e = &aentry{}
		a.m[key] = e
	}
	a.mu.Unlock()
	settled := ok && e.done.Load()
	executed := false
	e.once.Do(func() {
		executed = true
		e.val, e.err = fn()
		if e.err == nil {
			a.kinds[kind].Add(1)
			if size != nil {
				a.bytes.Add(int64(size(e.val)))
			}
		}
		e.done.Store(true)
	})
	switch {
	case executed:
		a.compiles.Add(1)
	case settled:
		a.hits.Add(1)
	default:
		a.attaches.Add(1)
	}
	return e.val, e.err
}

// ArtifactStats is a point-in-time accounting snapshot of the compiled
// tier. Like the memo tier's Stats, the counts depend only on the
// sequence of requested keys, not on scheduling — except the hit/attach
// split, which by definition records whether a requester raced the
// build; Hits+Attaches together are schedule-independent.
type ArtifactStats struct {
	// Per-kind successful-build counts (cached entries, errors excluded).
	Programs  int64 `json:"programs"`
	Blocks    int64 `json:"blocks"`
	Skeletons int64 `json:"skeletons"`
	Descs     int64 `json:"descs"`
	MCA       int64 `json:"mca"`

	Compiles uint64 `json:"compiles"`
	Hits     uint64 `json:"hits"`
	Attaches uint64 `json:"attaches"`
	// BytesEstimated roughly approximates retained artifact bytes; see
	// the SizeEstimate methods for what "estimate" means here.
	BytesEstimated int64 `json:"bytes_estimated"`
}

// Stats returns the current accounting.
func (a *Artifacts) Stats() ArtifactStats {
	return ArtifactStats{
		Programs:       a.kinds[kindProgram].Load(),
		Blocks:         a.kinds[kindBlock].Load(),
		Skeletons:      a.kinds[kindSkeleton].Load(),
		Descs:          a.kinds[kindDescs].Load(),
		MCA:            a.kinds[kindMCA].Load(),
		Compiles:       a.compiles.Load(),
		Hits:           a.hits.Load(),
		Attaches:       a.attaches.Load(),
		BytesEstimated: a.bytes.Load(),
	}
}

// Reset drops all artifacts and zeroes the counters (tests). In-flight
// builds keyed before the reset complete against the old entries.
func (a *Artifacts) Reset() {
	a.mu.Lock()
	a.m = map[string]*aentry{}
	a.mu.Unlock()
	for i := range a.kinds {
		a.kinds[i].Store(0)
	}
	a.hits.Store(0)
	a.attaches.Store(0)
	a.compiles.Store(0)
	a.bytes.Store(0)
}

// doArtifact is the typed wrapper over Artifacts.do.
func doArtifact[T any](a *Artifacts, kind artifactKind, key string, size func(T) int, fn func() (T, error)) (T, error) {
	v, err := a.do(kind, key,
		func(v any) int { return size(v.(T)) },
		func() (any, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// artifacts is the process-wide compiled-artifact cache.
var artifacts = NewArtifacts()

// CompiledArtifacts returns the process-wide compiled-artifact cache (for
// stats reporting and test resets).
func CompiledArtifacts() *Artifacts { return artifacts }

// CompileProgram returns the process-cached compiled program for (block
// content, model port signature). The program is shared and immutable —
// sim.Program is safe for concurrent Run — and compiles exactly once per
// key under singleflight regardless of how many goroutines request it
// cold. Keying on PortSignature rather than CacheKey is safe because both
// Compile and the engine's Run-time reads of the retained model touch
// only signature-covered fields (lookup tables, ports, structural
// frontend/backend parameters); node-only model variants therefore share
// one Program. Traced and untraced simulations share one entry: a trace
// changes what Run reports, never what Compile produces.
func CompileProgram(b *isa.Block, m *uarch.Model) (*sim.Program, error) {
	key := "prog\x00" + m.PortSignature() + "\x00" + BlockKey(b)
	return doArtifact(artifacts, kindProgram, key, (*sim.Program).SizeEstimate,
		func() (*sim.Program, error) { return sim.Compile(b, m) })
}

// ParseRequestBlock returns the process-cached parse of one request's
// assembly text — the serve tier's analogue of the inline-machine cache,
// applied to block text: repeated requests carrying the same listing for
// the same arch and dialect share one parsed block (and, downstream, one
// skeleton and one set of memoized results). The text is keyed by sha256
// rather than verbatim so the cache does not retain a second copy of
// every listing. Cached blocks are shared and must be treated as
// immutable; when the cached block was first parsed under a different
// name, the returned block is a shallow copy carrying the requested name
// over the shared instruction slice.
func ParseRequestBlock(name, arch string, d isa.Dialect, asm string) (*isa.Block, error) {
	sum := sha256.Sum256([]byte(asm))
	key := "block\x00" + arch + "\x00" + strconv.Itoa(int(d)) + "\x00" + hex.EncodeToString(sum[:])
	b, err := doArtifact(artifacts, kindBlock, key, blockSizeEstimate,
		func() (*isa.Block, error) { return isa.ParseMarkedBlock(name, arch, d, asm) })
	if err != nil {
		return nil, err
	}
	if b.Name != name {
		labeled := *b
		labeled.Name = name
		return &labeled, nil
	}
	return b, nil
}

// blockSizeEstimate roughly approximates a parsed block's retained bytes.
func blockSizeEstimate(b *isa.Block) int {
	size := 96
	for i := range b.Instrs {
		in := &b.Instrs[i]
		size += 160 + len(in.Raw) + len(in.Mnemonic) + len(in.Label) + 56*len(in.Operands)
	}
	return size
}

// analysisArtifacts returns the process-cached compiled inputs of one
// analysis: the dependency-structure skeleton for (block content,
// structural options), which every model of the block's dialect shares,
// and the resolved-descriptor table for (block content, model port
// signature, degrade policy). Descriptors are keyed by
// Model.PortSignature: resolution reads only the signature-covered
// subset, so node-only model variants share one table while a
// mutated-and-reindexed port table still resolves its own.
func analysisArtifacts(b *isa.Block, m *uarch.Model, opt depgraph.Options) (*depgraph.Skeleton, []uarch.Desc, error) {
	bk := BlockKey(b)
	key := "skel\x00falsedeps=" + strconv.FormatBool(opt.IncludeFalseDeps) +
		"|memwin=" + strconv.FormatInt(opt.MemCarriedWindow, 10) + "\x00" + bk
	sk, err := doArtifact(artifacts, kindSkeleton, key, (*depgraph.Skeleton).SizeEstimate,
		func() (*depgraph.Skeleton, error) { return depgraph.NewSkeleton(b, opt) })
	if err != nil {
		return nil, nil, err
	}
	key = "descs\x00" + m.PortSignature() + "\x00degrade=" + strconv.FormatBool(opt.DegradeUnknown) + "\x00" + bk
	descs, err := doArtifact(artifacts, kindDescs, key, descsSizeEstimate,
		func() ([]uarch.Desc, error) { return sk.ResolveDescs(m, opt.DegradeUnknown) })
	if err != nil {
		return nil, nil, err
	}
	return sk, descs, nil
}

// descsSizeEstimate roughly approximates a descriptor table's retained
// bytes (µ-op slices are often shared with the model's tables; counting
// them anyway makes this an upper bound).
func descsSizeEstimate(ds []uarch.Desc) int {
	size := len(ds) * 112
	for i := range ds {
		size += 24 * len(ds[i].Uops)
	}
	return size
}

// compiledMCA returns the process-cached mca static schedule for (block
// content, model key, model port signature). The signature covers the
// tables mca lowering reads; the key must ride alongside because
// scheduler parameters are derived from it (mca.ParamsFor), which the
// signature deliberately excludes.
func compiledMCA(b *isa.Block, m *uarch.Model) (*mca.Compiled, error) {
	key := "mcaprog\x00" + m.Key + "\x00" + m.PortSignature() + "\x00" + BlockKey(b)
	return doArtifact(artifacts, kindMCA, key, (*mca.Compiled).SizeEstimate,
		func() (*mca.Compiled, error) { return mca.Compile(b, m, mca.ParamsFor(m.Key)) })
}

// analyzeCold is the compute path behind AnalyzeWarm's memo entry: it
// assembles the analysis from cached artifacts (skeleton + descriptor
// table) so a memo-cold analysis of a known block skips effect extraction
// and graph structure discovery, then copies the Result out of a pooled
// arena (core.Analyzer.AnalyzeCompiled). A model of another dialect than
// the block's fails at descriptor resolution, and that error is cached
// like any other.
func analyzeCold(an *core.Analyzer, b *isa.Block, m *uarch.Model) (*core.Result, error) {
	sk, descs, err := analysisArtifacts(b, m, an.Opt)
	if err != nil {
		return nil, err
	}
	return an.AnalyzeCompiled(b, m, sk, descs)
}

// InternalArena is the reusable state behind AnalyzeInternal: a
// core.ResultArena plus the artifact bindings of the last (block, model,
// options) triple, revalidated by pointer and model fingerprint so a
// steady stream of analyses of one pair does zero key construction and
// zero heap work. Single-goroutine, like the ResultArena it embeds.
type InternalArena struct {
	res core.ResultArena

	lastBlock *isa.Block
	lastModel *uarch.Model
	lastFP    string
	lastOpt   depgraph.Options
	sk        *depgraph.Skeleton
	descs     []uarch.Desc
}

// AnalyzeInternal is the zero-allocation analysis path for
// pipeline-internal consumers (suite runners, sweeps, benchmarks): it
// bypasses the memo and store tiers entirely and returns ar's arena-owned
// Result. The Result is valid only until ar's next use and must never be
// retained, shared across goroutines, memoized, or persisted — use
// Analyze for results that escape. Numerically and textually identical to
// Analyze for the same inputs.
func AnalyzeInternal(an *core.Analyzer, b *isa.Block, m *uarch.Model, ar *InternalArena) (*core.Result, error) {
	opt := an.Opt
	if ar.sk == nil || ar.lastBlock != b || ar.lastModel != m ||
		ar.lastFP != m.Fingerprint() || ar.lastOpt != opt {
		sk, descs, err := analysisArtifacts(b, m, opt)
		if err != nil {
			return nil, err
		}
		ar.sk, ar.descs = sk, descs
		ar.lastBlock, ar.lastModel, ar.lastFP, ar.lastOpt = b, m, m.Fingerprint(), opt
	}
	return an.AnalyzeArena(b, m, ar.sk, ar.descs, &ar.res)
}
