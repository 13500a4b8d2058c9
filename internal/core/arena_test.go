package core

import (
	"testing"

	"incore/internal/depgraph"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

// TestAnalyzeCompiledMatchesAnalyze pins the compiled path's equivalence
// contract suite-wide: analyses assembled from a prebuilt skeleton and
// descriptor table render the same report bytes as Analyze, both
// through the escaping entry (AnalyzeCompiled) and the arena entry
// (AnalyzeArena) — including one arena reused across blocks and models,
// which is exactly how the pipeline's internal path drives it.
func TestAnalyzeCompiledMatchesAnalyze(t *testing.T) {
	an := New()
	ar := &ResultArena{}
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		m := uarch.MustGet(arch)
		for ki := range kernels.Kernels {
			k := &kernels.Kernels[ki]
			b, err := kernels.Generate(k, kernels.Config{
				Arch: arch, Compiler: kernels.CompilersFor(arch)[0], Opt: kernels.Ofast,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := an.Analyze(b, m)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := depgraph.NewSkeleton(b, an.Opt)
			if err != nil {
				t.Fatal(err)
			}
			descs, err := sk.ResolveDescs(m, an.Opt.DegradeUnknown)
			if err != nil {
				t.Fatal(err)
			}

			got, err := an.AnalyzeCompiled(b, m, sk, descs)
			if err != nil {
				t.Fatal(err)
			}
			if got.Report() != want.Report() {
				t.Errorf("%s/%s: AnalyzeCompiled report diverges from Analyze", arch, k.Name)
			}

			// nil descs resolve inside the call.
			gotNil, err := an.AnalyzeCompiled(b, m, sk, nil)
			if err != nil {
				t.Fatal(err)
			}
			if gotNil.Report() != want.Report() {
				t.Errorf("%s/%s: AnalyzeCompiled(nil descs) diverges", arch, k.Name)
			}

			arRes, err := an.AnalyzeArena(b, m, sk, descs, ar)
			if err != nil {
				t.Fatal(err)
			}
			// The arena result must be consumed before the arena's next
			// use; Report() renders it to an independent string here.
			if arRes.Report() != want.Report() {
				t.Errorf("%s/%s: AnalyzeArena report diverges from Analyze", arch, k.Name)
			}
		}
	}
}

// TestArenaResultInvalidatedByReuse documents (positively) the arena
// contract: the next analysis overwrites the previous arena Result in
// place — same pointer, new content.
func TestArenaResultInvalidatedByReuse(t *testing.T) {
	an := New()
	m := uarch.MustGet("zen4")
	mk := func(name string) (*depgraph.Skeleton, []uarch.Desc, *Result) {
		k, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := kernels.Generate(k, kernels.Config{Arch: "zen4", Compiler: kernels.CompilersFor("zen4")[0], Opt: kernels.O3})
		if err != nil {
			t.Fatal(err)
		}
		sk, err := depgraph.NewSkeleton(b, an.Opt)
		if err != nil {
			t.Fatal(err)
		}
		descs, err := sk.ResolveDescs(m, an.Opt.DegradeUnknown)
		if err != nil {
			t.Fatal(err)
		}
		want, err := an.Analyze(b, m)
		if err != nil {
			t.Fatal(err)
		}
		return sk, descs, want
	}
	sk1, d1, want1 := mk("striad")
	sk2, d2, want2 := mk("sum")

	ar := &ResultArena{}
	r1, err := an.AnalyzeArena(sk1.Block(), m, sk1, d1, ar)
	if err != nil {
		t.Fatal(err)
	}
	p1 := r1.Prediction
	r2, err := an.AnalyzeArena(sk2.Block(), m, sk2, d2, ar)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("arena must return its own Result struct every call")
	}
	if r2.Prediction != want2.Prediction {
		t.Errorf("second analysis prediction %f; want %f", r2.Prediction, want2.Prediction)
	}
	if p1 != want1.Prediction {
		t.Errorf("first analysis prediction %f; want %f", p1, want1.Prediction)
	}
}
