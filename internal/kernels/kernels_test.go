package kernels

import (
	"strings"
	"testing"

	"incore/internal/core"
	"incore/internal/isa"
	"incore/internal/sim"
	"incore/internal/uarch"
)

func TestKernelCount(t *testing.T) {
	if len(Kernels) != 13 {
		t.Fatalf("the paper uses 13 kernels, got %d", len(Kernels))
	}
	names := map[string]bool{}
	for _, k := range Kernels {
		if names[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		names[k.Name] = true
	}
	for _, want := range []string{"copy", "init", "update", "add", "striad",
		"schtriad", "sum", "pi", "j2d5", "j3d7", "j3d11", "j3d27", "gs2d5"} {
		if !names[want] {
			t.Errorf("missing kernel %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	k, err := ByName("striad")
	if err != nil || k.Name != "striad" {
		t.Errorf("ByName: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestCompilersFor(t *testing.T) {
	if got := CompilersFor("neoversev2"); len(got) != 2 {
		t.Errorf("neoversev2 compilers: %v", got)
	}
	if got := CompilersFor("goldencove"); len(got) != 3 {
		t.Errorf("goldencove compilers: %v", got)
	}
}

func TestOptLevelString(t *testing.T) {
	for o, want := range map[OptLevel]string{O1: "O1", O2: "O2", O3: "O3", Ofast: "Ofast"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

func TestSuiteSizes(t *testing.T) {
	// 13 x 2 x 4 = 104 on Grace, 13 x 3 x 4 = 156 on each x86 system.
	for arch, want := range map[string]int{"neoversev2": 104, "goldencove": 156, "zen4": 156} {
		s, err := Suite(arch)
		if err != nil {
			t.Fatalf("Suite(%s): %v", arch, err)
		}
		if len(s) != want {
			t.Errorf("Suite(%s) = %d blocks, want %d", arch, len(s), want)
		}
	}
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 416 {
		t.Errorf("full suite = %d blocks, want 416 (the paper's count)", len(full))
	}
	uniq := UniqueBlocks(full)
	if uniq < 180 || uniq > 350 {
		t.Errorf("unique blocks = %d, expected a few hundred (paper: 290)", uniq)
	}
	if s := SuiteSummary(full); !strings.Contains(s, "416") {
		t.Errorf("summary missing count: %s", s)
	}
}

// TestEveryBlockResolvesAgainstItsModel is the model-coverage integration
// test: every generated instruction must have a machine-model entry.
func TestEveryBlockResolvesAgainstItsModel(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		m := uarch.MustGet(tb.Config.Arch)
		for i := range tb.Block.Instrs {
			if _, err := m.Lookup(&tb.Block.Instrs[i]); err != nil {
				t.Errorf("%s: instr %d: %v", tb.Block.Name, i, err)
			}
		}
	}
}

// TestLowerBoundProperty is the central correctness property of the whole
// reproduction: the analyzer's prediction must be a lower bound on the
// simulated measurement for every block — except for the two documented
// hardware quirks the paper itself discusses (Gauss-Seidel on V2, π on
// Zen 4).
func TestLowerBoundProperty(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	an := core.New()
	for _, tb := range full {
		quirk := (tb.Kernel.Name == "gs2d5" && tb.Config.Arch == "neoversev2") ||
			(tb.Kernel.Name == "pi" && tb.Config.Arch == "zen4")
		if quirk {
			continue
		}
		m := uarch.MustGet(tb.Config.Arch)
		res, err := an.Analyze(tb.Block, m)
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		pred := res.Prediction
		meas, err := sim.Run(tb.Block, m, sim.DefaultConfig(m))
		if err != nil {
			t.Fatalf("%s: %v", tb.Block.Name, err)
		}
		if pred > meas.CyclesPerIter*1.02+0.05 {
			t.Errorf("%s: prediction %.2f exceeds measurement %.2f",
				tb.Block.Name, pred, meas.CyclesPerIter)
		}
	}
}

func TestElemsPerIter(t *testing.T) {
	k, _ := ByName("add")
	// gcc O1: scalar rolled.
	if n := ElemsPerIter(k, Config{Arch: "goldencove", Compiler: GCC, Opt: O1}); n != 1 {
		t.Errorf("gcc O1 elems = %d, want 1", n)
	}
	// gcc O3 on GLC: 512-bit x unroll 2 = 16.
	if n := ElemsPerIter(k, Config{Arch: "goldencove", Compiler: GCC, Opt: O3}); n != 16 {
		t.Errorf("gcc O3 elems = %d, want 16", n)
	}
	// clang O3 on GLC: 256-bit x unroll 4 = 16.
	if n := ElemsPerIter(k, Config{Arch: "goldencove", Compiler: Clang, Opt: O3}); n != 16 {
		t.Errorf("clang O3 elems = %d, want 16", n)
	}
	// armclang O2 (SVE rolled): 2.
	if n := ElemsPerIter(k, Config{Arch: "neoversev2", Compiler: ArmClang, Opt: O2}); n != 2 {
		t.Errorf("armclang O2 elems = %d, want 2", n)
	}
}

func TestVectorizationPolicy(t *testing.T) {
	sum, _ := ByName("sum")
	// Reductions need -Ofast to vectorize.
	b3, err := Generate(sum, Config{Arch: "goldencove", Compiler: GCC, Opt: O3})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b3.Text(), "zmm") {
		t.Error("sum at O3 must stay scalar (strict FP)")
	}
	bf, err := Generate(sum, Config{Arch: "goldencove", Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bf.Text(), "zmm") {
		t.Error("sum at Ofast must vectorize")
	}
	// Gauss-Seidel never vectorizes.
	gs, _ := ByName("gs2d5")
	bgs, err := Generate(gs, Config{Arch: "goldencove", Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(bgs.Text(), "zmm") || strings.Contains(bgs.Text(), "ymm0,") {
		t.Error("gs2d5 must never vectorize")
	}
}

func TestGSShapes(t *testing.T) {
	gs, _ := ByName("gs2d5")
	// O1: memory round trip (negative-displacement reload).
	o1, err := Generate(gs, Config{Arch: "goldencove", Compiler: GCC, Opt: O1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(o1.Text(), "-8(%rsi") {
		t.Errorf("GS O1 must reload phi[i-1] from memory:\n%s", o1.Text())
	}
	// O2: register-carried chain, no reload.
	o2, err := Generate(gs, Config{Arch: "goldencove", Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(o2.Text(), "-8(%rsi") {
		t.Errorf("GS O2 must carry phi in a register:\n%s", o2.Text())
	}
	// Ofast: FMA-contracted.
	of, err := Generate(gs, Config{Arch: "goldencove", Compiler: GCC, Opt: Ofast})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(of.Text(), "vfmadd") {
		t.Errorf("GS Ofast must contract to FMA:\n%s", of.Text())
	}
}

func TestCompilerIdioms(t *testing.T) {
	add, _ := ByName("add")
	// gcc uses indexed addressing, clang pointer bumps.
	gcc, err := Generate(add, Config{Arch: "zen4", Compiler: GCC, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gcc.Text(), "%rax,8)") {
		t.Errorf("gcc must use indexed addressing:\n%s", gcc.Text())
	}
	clang, err := Generate(add, Config{Arch: "zen4", Compiler: Clang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clang.Text(), "%rax,8)") {
		t.Errorf("clang must use pointer bumps:\n%s", clang.Text())
	}
	// armclang uses SVE with whilelo for streams.
	arm, err := Generate(add, Config{Arch: "neoversev2", Compiler: ArmClang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(arm.Text(), "whilelo") {
		t.Errorf("armclang streams must use whilelo SVE loops:\n%s", arm.Text())
	}
	// armclang stencils fall back to NEON.
	j, _ := ByName("j2d5")
	armj, err := Generate(j, Config{Arch: "neoversev2", Compiler: ArmClang, Opt: O2})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(armj.Text(), "whilelo") {
		t.Errorf("armclang stencils must use NEON:\n%s", armj.Text())
	}
}

func TestStencilLoadCounts(t *testing.T) {
	counts := map[string]int{"j2d5": 4, "j3d7": 6, "j3d11": 11, "j3d27": 27}
	for name, want := range counts {
		k, _ := ByName(name)
		b, err := Generate(k, Config{Arch: "goldencove", Compiler: GCC, Opt: O1})
		if err != nil {
			t.Fatal(err)
		}
		m := uarch.MustGet("goldencove")
		loads := 0
		for i := range b.Instrs {
			eff := isa.InstrEffects(&b.Instrs[i], m.Dialect)
			loads += len(eff.LoadOps)
		}
		if loads != want {
			t.Errorf("%s scalar loads = %d, want %d:\n%s", name, loads, want, b.Text())
		}
	}
}

func TestGenerateUnknownArch(t *testing.T) {
	k, _ := ByName("add")
	if _, err := Generate(k, Config{Arch: "mips", Compiler: GCC, Opt: O2}); err == nil {
		t.Error("unknown arch must error")
	}
	if _, err := Generate(nil, Config{}); err == nil {
		t.Error("nil kernel must error")
	}
}

func TestAllBlocksValidate(t *testing.T) {
	full, err := FullSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range full {
		if err := tb.Block.Validate(); err != nil {
			t.Errorf("%s: %v", tb.Block.Name, err)
		}
		if tb.ElemsPerIter <= 0 {
			t.Errorf("%s: ElemsPerIter = %d", tb.Block.Name, tb.ElemsPerIter)
		}
	}
}

func TestPiHasDivide(t *testing.T) {
	pi, _ := ByName("pi")
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		for _, comp := range CompilersFor(arch) {
			b, err := Generate(pi, Config{Arch: arch, Compiler: comp, Opt: O2})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.Text(), "div") {
				t.Errorf("pi %s/%s has no divide:\n%s", arch, comp, b.Text())
			}
		}
	}
}
