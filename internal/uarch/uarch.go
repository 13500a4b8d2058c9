// Package uarch defines microarchitectural machine models: execution ports,
// µ-op decomposition, instruction latencies and port assignments for the
// three microarchitectures studied in the paper — Intel Golden Cove
// (Sapphire Rapids), Arm Neoverse V2 (Grace CPU Superchip), and AMD Zen 4
// (Genoa).
//
// A Model is consumed by three clients with different needs:
//
//   - internal/core (the OSACA-style analyzer) uses port masks and µ-op
//     cycle counts to compute an optimal port-pressure lower bound;
//   - internal/mca (the LLVM-MCA-style baseline) uses the same tables with
//     a greedy scheduler;
//   - internal/sim (the "hardware" stand-in) executes blocks cycle by cycle
//     against the port model with renaming and a finite ROB.
package uarch

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"incore/internal/isa"
)

// PortMask is a bit set of execution-port indices (bit i = Model.Ports[i]).
type PortMask uint32

// Has reports whether port index i is in the mask.
func (m PortMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of ports in the mask.
func (m PortMask) Count() int {
	n := 0
	for v := m; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Indices returns the port indices in the mask in ascending order.
// Allocation-sensitive callers should prefer AppendIndices or the
// precompiled Model.PortIndices tables.
func (m PortMask) Indices() []int {
	return m.AppendIndices(nil)
}

// AppendIndices appends the mask's port indices in ascending order to dst
// and returns the extended slice; with sufficient capacity it does not
// allocate.
func (m PortMask) AppendIndices(dst []int) []int {
	for v := m; v != 0; v &= v - 1 {
		dst = append(dst, bits.TrailingZeros32(uint32(v)))
	}
	return dst
}

// Uop is one micro-operation: it occupies one of the candidate Ports for
// Cycles scheduler slots. Cycles is fractional to express shared resources
// (e.g. a gather spreading 3 cycles of work over 2 load ports).
type Uop struct {
	Ports  PortMask
	Cycles float64
	// Kind tags the µ-op for the simulator's structural hazards.
	Kind UopKind
}

// UopKind classifies µ-ops for structural modeling.
type UopKind int

const (
	// UopCompute is a generic ALU/FP µ-op.
	UopCompute UopKind = iota
	// UopLoad is a load (address generation + data return).
	UopLoad
	// UopStoreAddr is the store address-generation µ-op.
	UopStoreAddr
	// UopStoreData is the store data µ-op.
	UopStoreData
	// UopBranch is a branch µ-op.
	UopBranch
)

// String names the kind.
func (k UopKind) String() string {
	switch k {
	case UopCompute:
		return "compute"
	case UopLoad:
		return "load"
	case UopStoreAddr:
		return "staddr"
	case UopStoreData:
		return "stdata"
	case UopBranch:
		return "branch"
	default:
		return fmt.Sprintf("UopKind(%d)", int(k))
	}
}

// Entry describes one instruction form in the machine model.
type Entry struct {
	// Mnemonic in lower case ("vfmadd231pd").
	Mnemonic string
	// Sig is the operand signature ("v,v,v"; empty matches any).
	// Letters: r=gpr, v=vector, p=predicate, i=immediate, m=memory,
	// l=label.
	Sig string
	// Width is the vector access width in bits (0 matches any width).
	Width int
	// Lat is the register-to-register result latency in cycles.
	Lat int
	// Uops is the µ-op decomposition; nil means one single-cycle µ-op on
	// DefaultPorts (model fallback).
	Uops []Uop
	// Notes documents data provenance or modeling decisions.
	Notes string
}

// rtpCycles returns the reciprocal throughput implied by the µ-op list if
// the entry were the only instruction executing (best case, perfect
// balancing).
func (e *Entry) rtpCycles() float64 {
	var load [32]float64
	for _, u := range e.Uops {
		// Distribute each µ-op evenly over its candidate ports.
		n := u.Ports.Count()
		if n == 0 {
			continue
		}
		share := u.Cycles / float64(n)
		for v := u.Ports; v != 0; v &= v - 1 {
			load[bits.TrailingZeros32(uint32(v))] += share
		}
	}
	maxLoad := 0.0
	for _, v := range load {
		maxLoad = math.Max(maxLoad, v)
	}
	return maxLoad
}

// Model is a complete machine model for one microarchitecture.
type Model struct {
	// Key is the registry key ("goldencove", "neoversev2", "zen4").
	Key string
	// Name is the microarchitecture name; CPU the paper's testbed chip.
	Name, CPU string
	// Vendor label used in reports ("Intel", "Nvidia/Arm", "AMD").
	Vendor  string
	Dialect isa.Dialect

	// Ports lists execution-port names; index = bit in PortMask.
	Ports []string

	// Frontend / backend structural parameters used by the simulator.
	IssueWidth  int // µ-ops issued (dispatched to schedulers) per cycle
	DecodeWidth int // instructions decoded per cycle
	RetireWidth int // µ-ops retired per cycle
	ROBSize     int
	SchedSize   int // unified or summed scheduler capacity
	PhysVecRegs int
	PhysGPRegs  int

	// Memory pipeline.
	LoadPorts      PortMask
	StoreAGUPorts  PortMask
	StoreDataPorts PortMask
	LoadLat        int // L1 load-to-use latency
	LoadWidthBits  int // max bits per load µ-op
	StoreWidthBits int // max bits per store-data µ-op
	// WideLoadPorts restricts loads of at least WideLoadBits to a port
	// subset (Golden Cove: 512-bit loads run on ports 2/3 only, while
	// port 11 handles narrower accesses). Zero masks disable the
	// restriction.
	WideLoadPorts PortMask
	WideLoadBits  int

	// VecWidth is the native SIMD register width in bits.
	VecWidth int
	// CoresPerChip and frequencies mirror Table I.
	CoresPerChip  int
	BaseFreqGHz   float64
	MaxFreqGHz    float64
	FPVectorUnits int
	IntUnits      int

	// Node optionally carries node-level calibration (ECM transfer
	// parameters, frequency governor, Roofline ceilings); see node.go.
	Node *NodeParams

	// Unknown optionally overrides the synthesized descriptor used by the
	// degraded lookup path for mnemonics the table cannot describe; nil
	// uses the conservative defaults (one single-cycle µ-op that may run
	// on any port, latency 1). See UnknownPolicy.
	Unknown *UnknownPolicy

	Entries []Entry

	index map[entryKey]*Entry
	// portIdx precompiles mask→ascending-indices for every mask a Lookup
	// can emit (entry µ-ops plus the synthesized memory-µ-op masks), so
	// hot paths resolve candidate ports without allocating.
	portIdx map[PortMask][]int
	// fingerprint is the sha256 hex of the canonical machine-file wire
	// form, computed at buildIndex time; see Fingerprint.
	fingerprint string
	// portsig is the sha256 hex of the port/descriptor-relevant model
	// subset only, computed at buildIndex time; see PortSignature.
	portsig string
	// unknown is the descriptor template degraded lookups hand out for
	// mnemonics outside the table, precomputed at buildIndex time from
	// the Unknown policy so every degraded lookup of this model returns
	// the identical (deterministic, shared, read-only) µ-op list.
	unknown Entry
	// tailCache lazily holds the instruction-table tail of the
	// machine-file encoding for variants derived with ReindexFrom.
	// buildIndex gives every model a fresh one; a derived variant shares
	// its base's.
	tailCache *encodedTail
}

// encodedTail holds a model's encoded instruction-table tail, computed on
// first use.
type encodedTail struct {
	once  sync.Once
	bytes []byte
}

// cachedTail returns the model's encoded instruction-table tail. The
// model is indexed, so its fingerprint already encoded the tail once.
func (m *Model) cachedTail() []byte {
	m.tailCache.once.Do(func() {
		t, err := m.tail()
		if err != nil {
			panic(fmt.Sprintf("uarch: machine file %s: %v", m.Key, err))
		}
		m.tailCache.bytes = t
	})
	return m.tailCache.bytes
}

// UnknownPolicy configures the descriptor synthesized for instructions a
// model's table cannot describe (llvm-mca's "unsupported instruction"
// handling, degraded to a conservative guess instead of an error). Zero
// fields select the defaults: one µ-op that may execute on any model
// port, occupying it for one cycle, with a result latency of one cycle —
// the weakest assumption that keeps every bound finite without inventing
// pressure on a specific port.
type UnknownPolicy struct {
	// Ports is the candidate port mask of the synthesized µ-op; zero
	// means all model ports.
	Ports PortMask
	// Lat is the synthesized result latency in cycles; zero means 1.
	Lat int
	// Cycles is the synthesized per-port occupancy; zero means 1.0.
	Cycles float64
}

type entryKey struct {
	mnemonic string
	sig      string
	width    int
}

// PortIndex resolves a port name to its index, panicking on unknown names;
// intended for model-construction time only.
func (m *Model) PortIndex(name string) int {
	for i, p := range m.Ports {
		if p == name {
			return i
		}
	}
	panic(fmt.Sprintf("uarch: model %s has no port %q", m.Key, name))
}

// PortsByName builds a PortMask from port names; construction-time helper.
func (m *Model) PortsByName(names ...string) PortMask {
	var mask PortMask
	for _, n := range names {
		mask |= 1 << uint(m.PortIndex(n))
	}
	return mask
}

// buildIndex populates the lookup index and the precompiled port tables;
// called by the registry.
func (m *Model) buildIndex() {
	m.index = make(map[entryKey]*Entry, len(m.Entries))
	for i := range m.Entries {
		e := &m.Entries[i]
		k := entryKey{e.Mnemonic, e.Sig, e.Width}
		if _, dup := m.index[k]; dup {
			panic(fmt.Sprintf("uarch: model %s: duplicate entry %s/%s/%d", m.Key, e.Mnemonic, e.Sig, e.Width))
		}
		m.index[k] = e
	}
	m.portIdx = make(map[PortMask][]int)
	addMask := func(mask PortMask) {
		if mask == 0 {
			return
		}
		if _, ok := m.portIdx[mask]; !ok {
			m.portIdx[mask] = mask.Indices()
		}
	}
	for i := range m.Entries {
		for _, u := range m.Entries[i].Uops {
			addMask(u.Ports)
		}
	}
	addMask(m.LoadPorts)
	addMask(m.WideLoadPorts)
	addMask(m.StoreAGUPorts)
	addMask(m.StoreDataPorts)
	ports, lat, cycles := m.unknownPolicy()
	m.unknown = Entry{
		Mnemonic: "?",
		Lat:      lat,
		Uops:     []Uop{{Ports: ports, Cycles: cycles}},
		Notes:    "synthesized unknown-instruction descriptor",
	}
	addMask(ports)
	m.fingerprint = m.computeFingerprint()
	m.portsig = m.computePortSignature()
	m.tailCache = &encodedTail{}
}

// unknownPolicy resolves the unknown-instruction policy with defaults
// applied: all ports, latency 1, occupancy 1.
func (m *Model) unknownPolicy() (PortMask, int, float64) {
	ports := PortMask(1<<uint(len(m.Ports))) - 1
	lat, cycles := 1, 1.0
	if p := m.Unknown; p != nil {
		if p.Ports != 0 {
			ports = p.Ports
		}
		if p.Lat > 0 {
			lat = p.Lat
		}
		if p.Cycles > 0 {
			cycles = p.Cycles
		}
	}
	return ports, lat, cycles
}

// Reindex revalidates the model and rebuilds its lookup index, port
// tables, and content fingerprint. Call it after mutating a model in
// place (what-if studies), so lookups and CacheKey reflect the mutation.
func (m *Model) Reindex() error {
	if err := m.Validate(); err != nil {
		return err
	}
	m.buildIndex()
	return nil
}

// ReindexFrom is Reindex for a model cloned from base and then mutated,
// as a design-space sweep builds its variants. It always revalidates.
// When the mutation left the in-core subset untouched — the fields
// PortSignature covers, with the entry table still base's own slice — the
// lookup index, port tables, unknown descriptor and port signature are
// base's, so they are shared rather than rebuilt, and the fingerprint
// hashes the model's own header followed by base's cached encoding of
// the instruction table: the tail depends only on the entries and the
// port names, both unchanged, so the hashed bytes are exactly WriteJSON's
// and the fingerprint equals what Reindex computes. Any other mutation
// (a port-count change, a ROB resize) takes the full Reindex path.
func (m *Model) ReindexFrom(base *Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if base.tailCache == nil || !m.sameInCore(base) {
		m.buildIndex()
		return nil
	}
	m.index, m.portIdx, m.unknown, m.portsig = base.index, base.portIdx, base.unknown, base.portsig
	m.tailCache = base.tailCache
	m.fingerprint = m.fingerprintWithTail(base.cachedTail())
	return nil
}

// sameInCore reports whether m and base agree on every field the port
// signature and the instruction-table tail encode, with m's entry table
// being base's own slice.
func (m *Model) sameInCore(base *Model) bool {
	if m.Dialect != base.Dialect || len(m.Ports) != len(base.Ports) ||
		len(m.Entries) != len(base.Entries) ||
		(len(m.Entries) > 0 && &m.Entries[0] != &base.Entries[0]) {
		return false
	}
	for i := range m.Ports {
		if m.Ports[i] != base.Ports[i] {
			return false
		}
	}
	if (m.Unknown == nil) != (base.Unknown == nil) || (m.Unknown != nil && *m.Unknown != *base.Unknown) {
		return false
	}
	return m.IssueWidth == base.IssueWidth && m.DecodeWidth == base.DecodeWidth &&
		m.RetireWidth == base.RetireWidth && m.ROBSize == base.ROBSize &&
		m.SchedSize == base.SchedSize && m.PhysVecRegs == base.PhysVecRegs &&
		m.PhysGPRegs == base.PhysGPRegs &&
		m.LoadPorts == base.LoadPorts && m.StoreAGUPorts == base.StoreAGUPorts &&
		m.StoreDataPorts == base.StoreDataPorts && m.LoadLat == base.LoadLat &&
		m.LoadWidthBits == base.LoadWidthBits && m.StoreWidthBits == base.StoreWidthBits &&
		m.WideLoadPorts == base.WideLoadPorts && m.WideLoadBits == base.WideLoadBits
}

// Fingerprint returns the model's content fingerprint: the sha256 hex
// digest of its canonical machine-file wire form (WriteJSON bytes). Two
// models have equal fingerprints exactly when their machine files are
// byte-identical, so a fingerprint names the full modeled scenario —
// port tables, latencies, frontend, and node-level parameters alike.
//
// Models that went through buildIndex (registry construction, Register,
// ReadJSON, Reindex) carry a precomputed fingerprint; for a hand-built
// model the first call computes and caches it, which is not safe to race
// with concurrent use — index such models first.
func (m *Model) Fingerprint() string {
	if m.fingerprint == "" {
		m.fingerprint = m.computeFingerprint()
	}
	return m.fingerprint
}

// PortSignature returns the model's in-core sub-fingerprint: the sha256
// hex digest of a canonical encoding of only the port/descriptor-relevant
// model subset — dialect, port list, structural frontend/backend
// parameters (issue/decode/retire width, ROB, scheduler, physical
// registers), the memory pipeline, the unknown-instruction policy, and
// the instruction table. Node-level parameters (bandwidth, ECM, TDP,
// frequencies), clocking, core counts, and labels (key, name, CPU,
// vendor, entry notes) are excluded: two models that differ only in those
// produce identical descriptor tables, port analyses, mca schedules, and
// sim programs, and equal signatures let the compiled-artifact tier share
// those artifacts across a design-space sweep's variants.
//
// Like Fingerprint, models that went through buildIndex carry a
// precomputed signature; for a hand-built model the first call computes
// and caches it, which is not safe to race with concurrent use.
func (m *Model) PortSignature() string {
	if m.portsig == "" {
		m.portsig = m.computePortSignature()
	}
	return m.portsig
}

// CacheKey returns the identity under which pipeline and store entries
// for this model are filed. For a model whose content is byte-identical
// to the compiled-in model of the same key it is the bare key — so
// warm stores written by earlier builds stay valid — and
// "key@fingerprint" for everything else, so a runtime-loaded or mutated
// model can never poison cached results of a different scenario sharing
// its key.
func (m *Model) CacheKey() string {
	if fp, ok := builtinFingerprint(m.Key); ok && fp == m.Fingerprint() {
		return m.Key
	}
	return m.Key + "@" + m.Fingerprint()
}

// PortIndices returns the ascending port indices of mask from the model's
// precompiled tables, computing (and allocating) only for masks no Lookup
// of this model ever emits. The returned slice is shared and must not be
// mutated.
func (m *Model) PortIndices(mask PortMask) []int {
	if idx, ok := m.portIdx[mask]; ok {
		return idx
	}
	return mask.Indices()
}

// OperandSig derives the signature string of an instruction ("v,v,v").
func OperandSig(in *isa.Instruction) string {
	if len(in.Operands) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, op := range in.Operands {
		if i > 0 {
			sb.WriteByte(',')
		}
		switch op.Kind {
		case isa.OpReg:
			switch op.Reg.Class {
			case isa.ClassGPR:
				sb.WriteByte('r')
			case isa.ClassVec:
				sb.WriteByte('v')
			case isa.ClassPred:
				sb.WriteByte('p')
			default:
				sb.WriteByte('r')
			}
		case isa.OpImm:
			sb.WriteByte('i')
		case isa.OpMem:
			sb.WriteByte('m')
		case isa.OpLabel:
			sb.WriteByte('l')
		}
	}
	return sb.String()
}

// vecWidthOf returns the maximum vector register width used by an
// instruction, or 0 when it uses none.
func vecWidthOf(in *isa.Instruction) int {
	w := 0
	for _, op := range in.Operands {
		if op.Kind == isa.OpReg && op.Reg.Class == isa.ClassVec && op.Reg.Width > w {
			w = op.Reg.Width
		}
	}
	return w
}

// MatchKind classifies how a Desc was resolved against the model's
// tables; coverage accounting (core.Result.Coverage) aggregates it.
type MatchKind int

const (
	// MatchExact means the (mnemonic, signature, width) triple hit a
	// table entry directly.
	MatchExact MatchKind = iota
	// MatchFallback means the instruction resolved through the folded
	// operand-signature/width fallback chain (see find): the mnemonic is
	// in the table, but not under this exact operand shape.
	MatchFallback
	// MatchUnknown means the mnemonic is not in the table at all and the
	// descriptor was synthesized from the model's unknown-instruction
	// policy (degraded lookup only; strict lookup errors instead).
	MatchUnknown
)

// String names the match kind as coverage reports spell it.
func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchFallback:
		return "fallback"
	case MatchUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("MatchKind(%d)", int(k))
	}
}

// Desc is the resolved microarchitectural description of one instruction:
// its µ-op list (including folded memory µ-ops on x86), latencies, and
// classification flags.
type Desc struct {
	// Uops includes folded load/store µ-ops. The slice may alias the
	// model's entry table and must be treated as read-only.
	Uops []Uop
	// Lat is the reg-to-reg latency of the compute part.
	Lat int
	// LoadLat is the additional load-to-use latency when the instruction
	// reads memory (0 otherwise).
	LoadLat int
	// TotalLat = Lat + LoadLat: producer-to-consumer latency through this
	// instruction for register dataflow.
	TotalLat int
	// IsLoad / IsStore / IsBranch classify the instruction.
	IsLoad, IsStore, IsBranch bool
	// Match records how the instruction resolved against the table
	// (exact entry, fallback chain, or synthesized unknown descriptor).
	Match MatchKind
	// Entry points at the matched table entry (nil if the default was
	// synthesised).
	Entry *Entry
}

// UopCount returns the number of µ-ops.
func (d *Desc) UopCount() int { return len(d.Uops) }

// ThroughputCycles returns the idealised reciprocal throughput of the
// instruction in isolation (cycles per instruction, perfect balancing).
func (d *Desc) ThroughputCycles() float64 {
	e := Entry{Uops: d.Uops}
	return e.rtpCycles()
}

// ErrNoEntry is returned when a model cannot describe an instruction.
type ErrNoEntry struct {
	Model    string
	Mnemonic string
	Sig      string
	Width    int
}

// Error implements error.
func (e *ErrNoEntry) Error() string {
	return fmt.Sprintf("uarch: model %s: no entry for %s (%s, width %d)", e.Model, e.Mnemonic, e.Sig, e.Width)
}

// Lookup resolves an instruction against the model, folding x86 memory
// operands into extra load/store µ-ops, and returns its Desc.
func (m *Model) Lookup(in *isa.Instruction) (Desc, error) {
	eff := isa.InstrEffects(in, m.Dialect)
	return m.LookupEff(in, &eff)
}

// LookupEff is Lookup for callers that already computed the instruction's
// architectural effects (depgraph builds them anyway); it avoids deriving
// them a second time. eff must describe in under this model's dialect.
func (m *Model) LookupEff(in *isa.Instruction, eff *isa.Effects) (Desc, error) {
	d, ok := m.lookupEff(in, eff, false)
	if !ok {
		return Desc{}, &ErrNoEntry{Model: m.Key, Mnemonic: in.Mnemonic, Sig: OperandSig(in), Width: vecWidthOf(in)}
	}
	return d, nil
}

// LookupDegraded resolves an instruction like Lookup, but never fails:
// mnemonics outside the table receive the model's synthesized
// unknown-instruction descriptor (Desc.Match == MatchUnknown) instead of
// an error, so one unmodeled instruction degrades the analysis of its
// block rather than rejecting it. The synthesized descriptor is
// deterministic for a given model content.
func (m *Model) LookupDegraded(in *isa.Instruction) Desc {
	eff := isa.InstrEffects(in, m.Dialect)
	return m.LookupEffDegraded(in, &eff)
}

// LookupEffDegraded is LookupDegraded for callers that already computed
// the instruction's architectural effects.
func (m *Model) LookupEffDegraded(in *isa.Instruction, eff *isa.Effects) Desc {
	d, _ := m.lookupEff(in, eff, true)
	return d
}

// lookupEff resolves in against the table. With degrade set it
// synthesizes the unknown-instruction descriptor for table misses and
// always succeeds; otherwise a miss reports ok == false.
func (m *Model) lookupEff(in *isa.Instruction, eff *isa.Effects, degrade bool) (Desc, bool) {
	sig := OperandSig(in)
	width := vecWidthOf(in)
	e, exact := m.find(in.Mnemonic, sig, width)
	match := MatchExact
	switch {
	case e == nil && !degrade:
		return Desc{}, false
	case e == nil:
		e = &m.unknown
		match = MatchUnknown
	case !exact:
		match = MatchFallback
	}

	if isGather(in) {
		if g, _ := m.find(in.Mnemonic+"@gather", sig, width); g != nil {
			e = g
		}
	}
	d := Desc{Lat: e.Lat, Entry: e, IsBranch: in.IsBranch(), Match: match}
	if match == MatchUnknown {
		// The synthesized descriptor has no table entry behind it.
		d.Entry = nil
	}
	// The common case folds no memory µ-ops and shares the entry's list;
	// consumers treat Desc.Uops as read-only.
	d.Uops = e.Uops

	// Fold memory operands. AArch64 entries always model their own
	// memory µ-ops (loads/stores are dedicated instructions); x86 tables
	// describe the register form, so synthesize the memory µ-ops here.
	// A synthesized unknown descriptor models no memory µ-ops on either
	// dialect, so folding applies to it unconditionally: an unknown
	// load/store still charges the memory pipeline conservatively.
	if m.Dialect == isa.DialectX86 || match == MatchUnknown {
		foldLoad := eff.ReadsMem() && !hasKind(e.Uops, UopLoad)
		foldStore := eff.WritesMem() && !hasKind(e.Uops, UopStoreData)
		if foldLoad || foldStore {
			d.Uops = append(make([]Uop, 0, len(e.Uops)+4), e.Uops...)
		}
		if foldLoad {
			for _, mem := range eff.LoadOps {
				w := memWidth(mem, width)
				ports := m.LoadPorts
				if m.WideLoadBits > 0 && w >= m.WideLoadBits && m.WideLoadPorts != 0 {
					ports = m.WideLoadPorts
				}
				for i := 0; i < m.loadUopsFor(w); i++ {
					d.Uops = append(d.Uops, Uop{Ports: ports, Cycles: 1, Kind: UopLoad})
				}
			}
			d.LoadLat = m.LoadLat
		}
		if foldStore {
			for _, mem := range eff.StoreOps {
				n := m.storeUopsFor(memWidth(mem, width))
				for i := 0; i < n; i++ {
					d.Uops = append(d.Uops, Uop{Ports: m.StoreAGUPorts, Cycles: 1, Kind: UopStoreAddr})
					d.Uops = append(d.Uops, Uop{Ports: m.StoreDataPorts, Cycles: 1, Kind: UopStoreData})
				}
			}
		}
	}
	// AArch64 load entries carry load-to-use latency in Entry.Lat, so no
	// extra LoadLat is added for them.
	d.IsLoad = eff.ReadsMem()
	d.IsStore = eff.WritesMem()
	d.TotalLat = d.Lat + d.LoadLat
	if d.TotalLat == 0 && !d.IsStore && !d.IsBranch {
		// Every value-producing instruction takes at least one cycle.
		d.TotalLat = 1
	}
	return d, true
}

func memWidth(mem *isa.MemOp, vecWidth int) int {
	if mem.Width > 0 {
		return mem.Width
	}
	if vecWidth > 0 {
		return vecWidth
	}
	return 64
}

// loadUopsFor returns how many load µ-ops an access of the given width
// needs on this model.
func (m *Model) loadUopsFor(bits int) int {
	if m.LoadWidthBits <= 0 || bits <= m.LoadWidthBits {
		return 1
	}
	return (bits + m.LoadWidthBits - 1) / m.LoadWidthBits
}

// storeUopsFor returns how many store µ-op pairs an access needs.
func (m *Model) storeUopsFor(bits int) int {
	if m.StoreWidthBits <= 0 || bits <= m.StoreWidthBits {
		return 1
	}
	return (bits + m.StoreWidthBits - 1) / m.StoreWidthBits
}

func hasKind(uops []Uop, k UopKind) bool {
	for _, u := range uops {
		if u.Kind == k {
			return true
		}
	}
	return false
}

// find locates the best-matching entry with fallbacks:
// exact (mn,sig,width) → (mn,sig,0) → (mn,"",width) → (mn,"",0).
// exact reports whether the first (full-triple) key hit.
func (m *Model) find(mn, sig string, width int) (e *Entry, exact bool) {
	if e, ok := m.index[entryKey{mn, sig, width}]; ok {
		return e, true
	}
	if e, ok := m.index[entryKey{mn, sig, 0}]; ok {
		return e, false
	}
	if e, ok := m.index[entryKey{mn, "", width}]; ok {
		return e, false
	}
	if e, ok := m.index[entryKey{mn, "", 0}]; ok {
		return e, false
	}
	return nil, false
}

// isGather reports whether an instruction indexes memory through a vector
// register (gather/scatter addressing).
func isGather(in *isa.Instruction) bool {
	for _, op := range in.Operands {
		if op.Kind == isa.OpMem && op.Mem.Index.Valid() && op.Mem.Index.Class == isa.ClassVec {
			return true
		}
	}
	return false
}

// HasEntry reports whether the model can describe the mnemonic at all.
func (m *Model) HasEntry(mn string) bool {
	for k := range m.index {
		if k.mnemonic == mn {
			return true
		}
	}
	return false
}
