// Package isa provides an ISA-neutral intermediate representation for
// assembly instruction streams, together with parsers for AT&T-style x86
// and AArch64 assembly and per-mnemonic read/write semantics.
//
// The IR is deliberately small: an Instruction is a mnemonic plus operands,
// annotated with an ISA extension class and load/store/branch flags. All
// microarchitectural knowledge (latency, port usage, µ-op decomposition)
// lives in package uarch; all dependency reasoning lives in package
// depgraph. This package only answers "what does this instruction read and
// write, architecturally?".
package isa

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Dialect selects the assembly syntax family of a block.
type Dialect int

const (
	// DialectX86 is AT&T-syntax x86-64 (source operands first,
	// destination last).
	DialectX86 Dialect = iota
	// DialectAArch64 is ARM 64-bit syntax (destination first).
	DialectAArch64
)

// String returns the conventional name of the dialect.
func (d Dialect) String() string {
	switch d {
	case DialectX86:
		return "x86"
	case DialectAArch64:
		return "aarch64"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// RegClass classifies architectural registers for dependency tracking.
type RegClass int

const (
	// ClassNone marks an invalid or absent register.
	ClassNone RegClass = iota
	// ClassGPR is a general-purpose integer register.
	ClassGPR
	// ClassVec is a SIMD/FP vector register (xmm/ymm/zmm, v, z).
	ClassVec
	// ClassPred is an SVE/AVX-512 predicate (mask) register.
	ClassPred
	// ClassFlags is the condition-flags register (RFLAGS, NZCV).
	ClassFlags
	// ClassIP is the instruction pointer (used by branches).
	ClassIP
)

// String returns a short class name.
func (c RegClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassGPR:
		return "gpr"
	case ClassVec:
		return "vec"
	case ClassPred:
		return "pred"
	case ClassFlags:
		return "flags"
	case ClassIP:
		return "ip"
	default:
		return fmt.Sprintf("RegClass(%d)", int(c))
	}
}

// Register is an architectural register. Two registers alias (for
// dependency purposes) iff their Class and ID are equal; Width records the
// access width in bits and Name the spelling found in the source.
type Register struct {
	Name  string
	Class RegClass
	ID    int
	Width int
}

// Valid reports whether r denotes an actual register.
func (r Register) Valid() bool { return r.Class != ClassNone }

// Key returns a map key identifying the renamable storage location.
func (r Register) Key() RegKey { return RegKey{Class: r.Class, ID: r.ID} }

// RegKey identifies an architectural storage location independent of the
// spelling or access width used by a particular operand.
type RegKey struct {
	Class RegClass
	ID    int
}

// String formats the key for debugging.
func (k RegKey) String() string { return fmt.Sprintf("%s%d", k.Class, k.ID) }

// OperandKind discriminates Operand variants.
type OperandKind int

const (
	// OpReg is a register operand.
	OpReg OperandKind = iota
	// OpImm is an immediate operand.
	OpImm
	// OpMem is a memory operand.
	OpMem
	// OpLabel is a code label (branch target).
	OpLabel
)

// String returns a short kind name.
func (k OperandKind) String() string {
	switch k {
	case OpReg:
		return "reg"
	case OpImm:
		return "imm"
	case OpMem:
		return "mem"
	case OpLabel:
		return "label"
	default:
		return fmt.Sprintf("OperandKind(%d)", int(k))
	}
}

// MemOp describes a memory reference: base + index*scale + disp.
type MemOp struct {
	Base  Register
	Index Register
	Scale int
	Disp  int64
	// Width is the access width in bits (elements x element size for
	// vector accesses).
	Width int
	// NonTemporal marks streaming (write-combining) accesses.
	NonTemporal bool
	// PreIndex / PostIndex mark AArch64 addressing modes that write the
	// base register back.
	PreIndex  bool
	PostIndex bool
}

// Operand is one instruction operand.
type Operand struct {
	Kind  OperandKind
	Reg   Register
	Imm   int64
	Mem   *MemOp
	Label string
}

// NewRegOperand builds a register operand.
func NewRegOperand(r Register) Operand { return Operand{Kind: OpReg, Reg: r} }

// NewImmOperand builds an immediate operand.
func NewImmOperand(v int64) Operand { return Operand{Kind: OpImm, Imm: v} }

// NewMemOperand builds a memory operand.
func NewMemOperand(m MemOp) Operand { return Operand{Kind: OpMem, Mem: &m} }

// NewLabelOperand builds a label operand.
func NewLabelOperand(l string) Operand { return Operand{Kind: OpLabel, Label: l} }

// Ext is the ISA extension class of an instruction; it matters for the
// frequency governor (license-based throttling) and for model lookup.
type Ext int

const (
	// ExtScalar covers scalar integer and scalar FP instructions.
	ExtScalar Ext = iota
	// ExtSSE is 128-bit x86 SIMD.
	ExtSSE
	// ExtAVX is 256-bit x86 SIMD (AVX/AVX2).
	ExtAVX
	// ExtAVX512 is 512-bit x86 SIMD.
	ExtAVX512
	// ExtNEON is 128-bit AArch64 Advanced SIMD.
	ExtNEON
	// ExtSVE is scalable-vector AArch64 SIMD (128-bit on Neoverse V2).
	ExtSVE
)

// String returns the conventional extension name.
func (e Ext) String() string {
	switch e {
	case ExtScalar:
		return "scalar"
	case ExtSSE:
		return "sse"
	case ExtAVX:
		return "avx"
	case ExtAVX512:
		return "avx512"
	case ExtNEON:
		return "neon"
	case ExtSVE:
		return "sve"
	default:
		return fmt.Sprintf("Ext(%d)", int(e))
	}
}

// ParseExt resolves an extension name as produced by Ext.String — the
// spelling machine files use for frequency-governor tables.
func ParseExt(s string) (Ext, error) {
	switch s {
	case "scalar":
		return ExtScalar, nil
	case "sse":
		return ExtSSE, nil
	case "avx":
		return ExtAVX, nil
	case "avx512":
		return ExtAVX512, nil
	case "neon":
		return ExtNEON, nil
	case "sve":
		return ExtSVE, nil
	default:
		return 0, fmt.Errorf("isa: unknown ISA extension %q", s)
	}
}

// VectorBits returns the register width implied by the extension class,
// or 64 for scalar code.
func (e Ext) VectorBits() int {
	switch e {
	case ExtSSE, ExtNEON, ExtSVE:
		return 128
	case ExtAVX:
		return 256
	case ExtAVX512:
		return 512
	default:
		return 64
	}
}

// Instruction is one assembly instruction in IR form.
type Instruction struct {
	// Mnemonic is the lower-case opcode without width suffixes removed;
	// e.g. "vfmadd231pd", "fmla", "addq".
	Mnemonic string
	Operands []Operand
	Ext      Ext
	// Raw preserves the source text when the instruction was parsed.
	Raw string
	// Label is a non-empty code label attached to this instruction.
	Label string
}

// IsBranch reports whether the instruction redirects control flow.
func (in *Instruction) IsBranch() bool {
	m := in.Mnemonic
	if strings.HasPrefix(m, "j") && m != "jrcxz" {
		return true
	}
	if m == "b" || strings.HasPrefix(m, "b.") || m == "cbz" || m == "cbnz" ||
		m == "tbz" || m == "tbnz" || m == "ret" || m == "jmp" {
		return true
	}
	return false
}

// MemOperands returns all memory operands of the instruction.
func (in *Instruction) MemOperands() []*MemOp {
	var out []*MemOp
	for i := range in.Operands {
		if in.Operands[i].Kind == OpMem {
			out = append(out, in.Operands[i].Mem)
		}
	}
	return out
}

// String formats the instruction roughly as source text.
func (in *Instruction) String() string {
	if in.Raw != "" {
		return in.Raw
	}
	var sb strings.Builder
	sb.WriteString(in.Mnemonic)
	for i, op := range in.Operands {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch op.Kind {
		case OpReg:
			sb.WriteString(op.Reg.Name)
		case OpImm:
			fmt.Fprintf(&sb, "$%d", op.Imm)
		case OpLabel:
			sb.WriteString(op.Label)
		case OpMem:
			m := op.Mem
			if m.Base.Valid() {
				fmt.Fprintf(&sb, "%d(%s)", m.Disp, m.Base.Name)
			} else {
				fmt.Fprintf(&sb, "%d", m.Disp)
			}
		}
	}
	return sb.String()
}

// Block is a straight-line instruction sequence representing one loop body
// (the innermost-loop kernel the in-core model analyses).
//
// A block is immutable once keyed: the first Key call caches the content
// key, so Arch, Dialect and Instrs must not change afterwards (Name may
// differ between copies; see Renamed). Callers that need a mutable block
// take a Clone, which starts unkeyed.
type Block struct {
	// Name identifies the block (kernel/compiler/flags).
	Name string
	// Arch is the target microarchitecture key ("goldencove", ...).
	Arch string
	// Dialect is the assembly syntax the block was written in.
	Dialect Dialect
	Instrs  []Instruction

	// key caches Key; published atomically so concurrent first calls
	// are race-free.
	key atomic.Pointer[string]
}

// Key returns the block's content key: everything that determines an
// analysis or simulation outcome — architecture, dialect and rendered
// text — excluding the display name. It is computed on the first call and
// cached; concurrent first calls may each render, but all return the same
// value.
func (b *Block) Key() string {
	if k := b.key.Load(); k != nil {
		return *k
	}
	// The concatenation allocates exactly the key's length; the key is
	// retained as long as the block, so no builder slack rides along.
	k := b.Arch + "\x00" + strconv.Itoa(int(b.Dialect)) + "\x00" + b.Text()
	b.key.CompareAndSwap(nil, &k)
	return *b.key.Load()
}

// Renamed returns a shallow copy of the block under another name. The
// copy shares the instruction slice and the content key (computed here if
// it was not yet), which the name does not enter, so the two blocks
// retain one key string between them.
func (b *Block) Renamed(name string) *Block {
	b.Key()
	nb := &Block{Name: name, Arch: b.Arch, Dialect: b.Dialect, Instrs: b.Instrs}
	nb.key.Store(b.key.Load())
	return nb
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Instrs) }

// Clone returns a deep copy of the block (operand slices and memory
// operands are duplicated so mutations do not alias). The copy is unkeyed,
// so it may be mutated before its first Key call.
func (b *Block) Clone() *Block {
	nb := &Block{Name: b.Name, Arch: b.Arch, Dialect: b.Dialect}
	nb.Instrs = make([]Instruction, len(b.Instrs))
	for i := range b.Instrs {
		in := b.Instrs[i]
		ops := make([]Operand, len(in.Operands))
		copy(ops, in.Operands)
		for j := range ops {
			if ops[j].Kind == OpMem && ops[j].Mem != nil {
				m := *ops[j].Mem
				ops[j].Mem = &m
			}
		}
		in.Operands = ops
		nb.Instrs[i] = in
	}
	return nb
}

// Text renders the block as assembly source in its dialect.
func (b *Block) Text() string {
	var sb strings.Builder
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Label != "" {
			sb.WriteString(in.Label)
			sb.WriteString(":\n")
		}
		sb.WriteString("\t")
		sb.WriteString(in.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil.
func (b *Block) Validate() error {
	if len(b.Instrs) == 0 {
		return fmt.Errorf("isa: block %q has no instructions", b.Name)
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Mnemonic == "" {
			return fmt.Errorf("isa: block %q instr %d has empty mnemonic", b.Name, i)
		}
		for j, op := range in.Operands {
			switch op.Kind {
			case OpReg:
				if !op.Reg.Valid() {
					return fmt.Errorf("isa: block %q instr %d (%s) operand %d: invalid register", b.Name, i, in.Mnemonic, j)
				}
			case OpMem:
				if op.Mem == nil {
					return fmt.Errorf("isa: block %q instr %d (%s) operand %d: nil memory operand", b.Name, i, in.Mnemonic, j)
				}
			}
		}
	}
	return nil
}
