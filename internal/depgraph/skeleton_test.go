package depgraph

import (
	"testing"

	"incore/internal/isa"
	"incore/internal/kernels"
	"incore/internal/uarch"
)

// graphsEqual asserts g2 (instantiated from a NewSkeleton copy) is
// structurally and numerically identical to g1 (NewScratch, built on the
// scratch's own skeleton): same nodes in
// order, same edges in order with equal latencies, same derived paths.
func graphsEqual(t *testing.T, label string, g1, g2 *Graph) {
	t.Helper()
	if len(g1.Nodes) != len(g2.Nodes) {
		t.Fatalf("%s: node count %d vs %d", label, len(g1.Nodes), len(g2.Nodes))
	}
	for i := range g1.Nodes {
		n1, n2 := &g1.Nodes[i], &g2.Nodes[i]
		if n1.Index != n2.Index || n1.Desc.Lat != n2.Desc.Lat ||
			n1.Desc.TotalLat != n2.Desc.TotalLat || n1.Desc.Match != n2.Desc.Match {
			t.Fatalf("%s: node %d differs: %+v vs %+v", label, i, n1.Desc, n2.Desc)
		}
	}
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatalf("%s: edge count %d vs %d", label, len(g1.Edges), len(g2.Edges))
	}
	for i := range g1.Edges {
		e1, e2 := g1.Edges[i], g2.Edges[i]
		if e1.From != e2.From || e1.To != e2.To || e1.Kind != e2.Kind ||
			e1.Carried != e2.Carried || e1.Lat != e2.Lat ||
			e1.Reg != e2.Reg || e1.ViaAccumulator != e2.ViaAccumulator {
			t.Fatalf("%s: edge %d differs: %+v vs %+v", label, i, e1, e2)
		}
	}
	cp1, path1 := g1.CriticalPathDetail()
	cp2, path2 := g2.CriticalPathDetail()
	if cp1 != cp2 || len(path1) != len(path2) {
		t.Fatalf("%s: critical path %f (%d nodes) vs %f (%d nodes)",
			label, cp1, len(path1), cp2, len(path2))
	}
	for i := range path1 {
		if path1[i] != path2[i] {
			t.Fatalf("%s: CP path index %d: %d vs %d", label, i, path1[i], path2[i])
		}
	}
	l1, l2 := g1.LoopCarried(-1), g2.LoopCarried(-1)
	if l1.Cycles != l2.Cycles || len(l1.Path) != len(l2.Path) {
		t.Fatalf("%s: LCD %f vs %f", label, l1.Cycles, l2.Cycles)
	}
}

// TestSkeletonInstantiateMatchesNewScratch is the contract the artifact
// tier rests on: for every suite kernel on every built-in model, a graph
// instantiated from a cached (copied-out) skeleton is identical to one
// built on a fresh in-scratch skeleton — same edge order (byte-identity
// of downstream reports depends on it), same latencies, same derived
// path metrics.
func TestSkeletonInstantiateMatchesNewScratch(t *testing.T) {
	opts := []Options{
		DefaultOptions(),
		func() Options { o := DefaultOptions(); o.IncludeFalseDeps = true; return o }(),
		func() Options { o := DefaultOptions(); o.MemCarriedWindow = 8; return o }(),
		func() Options { o := DefaultOptions(); o.StoreForwardLat = 5; return o }(),
	}
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		m := uarch.MustGet(arch)
		for ki := range kernels.Kernels {
			k := &kernels.Kernels[ki]
			b, err := kernels.Generate(k, kernels.Config{
				Arch: arch, Compiler: kernels.CompilersFor(arch)[0], Opt: kernels.O3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for oi, opt := range opts {
				opt.DegradeUnknown = true
				label := arch + "/" + k.Name + "/opt" + string(rune('0'+oi))

				var s1 Scratch
				g1, err := NewScratch(b, m, opt, &s1)
				if err != nil {
					t.Fatalf("%s: NewScratch: %v", label, err)
				}

				sk, err := NewSkeleton(b, opt)
				if err != nil {
					t.Fatalf("%s: NewSkeleton: %v", label, err)
				}
				if !sk.Matches(opt) {
					t.Fatalf("%s: skeleton does not match its own options", label)
				}
				descs, err := sk.ResolveDescs(m, opt.DegradeUnknown)
				if err != nil {
					t.Fatalf("%s: ResolveDescs: %v", label, err)
				}
				var s2 Scratch
				g2 := sk.Instantiate(b, m, descs, opt, &s2)
				graphsEqual(t, label, g1, g2)
			}
		}
	}
}

// TestSkeletonSharedAcrossModels pins the skeleton's model independence:
// one skeleton instantiates correctly against both x86 models (same
// dialect), matching each model's direct build.
func TestSkeletonSharedAcrossModels(t *testing.T) {
	src := ".L0:\n\tvmovapd (%rax,%rcx,8), %ymm0\n\tvfmadd231pd %ymm1, %ymm2, %ymm0\n\tvmovapd %ymm0, (%rbx,%rcx,8)\n\taddq $4, %rcx\n\tcmpq %rdx, %rcx\n\tjb .L0\n"
	opt := DefaultOptions()
	opt.DegradeUnknown = true
	b, err := isa.ParseBlock("shared", "goldencove", isa.DialectX86, src)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSkeleton(b, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []string{"goldencove", "zen4"} {
		m := uarch.MustGet(arch)
		var s1 Scratch
		g1, err := NewScratch(b, m, opt, &s1)
		if err != nil {
			t.Fatal(err)
		}
		descs, err := sk.ResolveDescs(m, true)
		if err != nil {
			t.Fatal(err)
		}
		var s2 Scratch
		g2 := sk.Instantiate(b, m, descs, opt, &s2)
		graphsEqual(t, arch, g1, g2)
	}
}

// TestSkeletonSizeEstimatePositive sanity-checks the cache accounting
// hook: non-trivial skeletons report a plausible non-zero footprint.
func TestSkeletonSizeEstimatePositive(t *testing.T) {
	m := uarch.MustGet("zen4")
	b, err := isa.ParseBlock("t", "zen4", m.Dialect,
		".L0:\n\taddq $8, %rax\n\tcmpq %rbx, %rax\n\tjb .L0\n")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewSkeleton(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.SizeEstimate(); got < 128 {
		t.Errorf("SizeEstimate() = %d; want a plausible positive footprint", got)
	}
	if sk.Block() != b {
		t.Error("Block() must return the source block")
	}
}
