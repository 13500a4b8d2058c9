package pipeline

import (
	"testing"

	"incore/internal/uarch"
)

// These tests pin the compiled tier's port-signature keying — the
// sharing contract a design-space sweep's incremental recompute rides.

// TestNodeVariantSharesArtifacts: a variant differing only in node-level
// parameters must be served the base model's skeleton, descriptor table,
// and Program without compiling anything new, while its analysis results
// stay numerically identical to the base (node parameters are invisible
// to the in-core model).
func TestNodeVariantSharesArtifacts(t *testing.T) {
	m, an, tb := genBlock(t, "goldencove", "striad")
	ar := &InternalArena{}
	res, err := AnalyzeInternal(an, tb.Block, m, ar)
	if err != nil {
		t.Fatal(err)
	}
	basePred := res.Prediction

	v := loadedVariant(t, "goldencove")
	v.Node.MemBWGBs *= 2
	v.Node.Freq.TDPWatts -= 100
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	if v.PortSignature() != m.PortSignature() {
		t.Fatal("node-only variant must keep the base port signature")
	}
	if v.CacheKey() == m.CacheKey() {
		t.Fatal("node-only variant must not keep the base cache key")
	}

	before := CompiledArtifacts().Stats()
	ar2 := &InternalArena{}
	res2, err := AnalyzeInternal(an, tb.Block, v, ar2)
	if err != nil {
		t.Fatal(err)
	}
	after := CompiledArtifacts().Stats()
	if after.Compiles != before.Compiles {
		t.Errorf("node variant compiled %d new artifacts; want 0 (all shared)", after.Compiles-before.Compiles)
	}
	if after.Descs != before.Descs || after.Skeletons != before.Skeletons {
		t.Errorf("node variant grew descs %d→%d / skeletons %d→%d; want no growth",
			before.Descs, after.Descs, before.Skeletons, after.Skeletons)
	}
	if res2.Prediction != basePred {
		t.Errorf("node variant prediction %v != base %v (in-core analysis must not see node params)",
			res2.Prediction, basePred)
	}

	// The simulator Program is shared by pointer.
	p1, err := CompileProgram(tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileProgram(tb.Block, v)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("node-only variant must share the base model's compiled Program")
	}
}

// TestPortVariantRecompilesDescsOnly: a port-count variant changes the
// signature, so descriptor tables recompile — but the model-independent
// skeleton and parsed block stay shared.
func TestPortVariantRecompilesDescsOnly(t *testing.T) {
	m, an, tb := genBlock(t, "goldencove", "striad")
	ar := &InternalArena{}
	if _, err := AnalyzeInternal(an, tb.Block, m, ar); err != nil {
		t.Fatal(err)
	}

	v := loadedVariant(t, "goldencove")
	// Drop the lowest-indexed load port (Golden Cove has several).
	v.LoadPorts &^= 1 << uint(v.LoadPorts.Indices()[0])
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	if v.PortSignature() == m.PortSignature() {
		t.Fatal("port-count variant must change the port signature")
	}

	before := CompiledArtifacts().Stats()
	ar2 := &InternalArena{}
	if _, err := AnalyzeInternal(an, tb.Block, v, ar2); err != nil {
		t.Fatal(err)
	}
	after := CompiledArtifacts().Stats()
	if grew := after.Descs - before.Descs; grew != 1 {
		t.Errorf("port variant grew descs by %d; want exactly 1 (recompiled table)", grew)
	}
	if after.Skeletons != before.Skeletons {
		t.Errorf("port variant grew skeletons %d→%d; want shared", before.Skeletons, after.Skeletons)
	}
	if after.Blocks != before.Blocks {
		t.Errorf("port variant grew parsed blocks %d→%d; want shared", before.Blocks, after.Blocks)
	}
}

// TestMCAKeyedByModelKey: mca scheduler parameters derive from the model
// *key* (mca.ParamsFor), which the port signature deliberately excludes —
// so two models with identical signatures but different keys must not
// share a static schedule.
func TestMCAKeyedByModelKey(t *testing.T) {
	m, _, tb := genBlock(t, "goldencove", "striad")
	w := loadedVariant(t, "goldencove")
	w.Key = "goldencove-mca-key-test"
	if err := w.Reindex(); err != nil {
		t.Fatal(err)
	}
	if w.PortSignature() != m.PortSignature() {
		t.Fatal("key rename must not change the port signature")
	}
	c1, err := compiledMCA(tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compiledMCA(tb.Block, w)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("models with different keys shared an mca schedule despite key-dependent parameters")
	}
	// Whereas a node-only variant of the same key does share it.
	v := loadedVariant(t, "goldencove")
	v.Node.MemBWGBs *= 3
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	c3, err := compiledMCA(tb.Block, v)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != c1 {
		t.Error("node-only variant must share the base model's mca schedule")
	}
}

// TestSweepCellWarmProvenance: the sweep-cell path is keyed on the full
// cache key (warm-resumable per variant, never colliding with the
// built-in) while riding the shared-artifact analysis underneath.
func TestSweepCellWarmProvenance(t *testing.T) {
	withFreshTiers(t, t.TempDir())
	m, an, tb := genBlock(t, "zen4", "striad")

	cells := NewCellAnalyzer(an, m)
	c1, warm, err := cells.AnalyzeWarm(tb.Block)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("first cell must be cold")
	}
	if c1.Prediction <= 0 || c1.Bound == "" {
		t.Fatalf("implausible cell: %+v", c1)
	}
	c2, warm, err := cells.AnalyzeWarm(tb.Block)
	if err != nil {
		t.Fatal(err)
	}
	if !warm {
		t.Fatal("second cell must be warm")
	}
	if c1 != c2 {
		t.Fatalf("warm cell differs from cold: %+v vs %+v", c1, c2)
	}

	// A node variant gets its own (cold) cell even though it shares
	// every compiled artifact: results are keyed by full scenario.
	v := loadedVariant(t, "zen4")
	v.Node.MemBWGBs *= 2
	if err := v.Reindex(); err != nil {
		t.Fatal(err)
	}
	cv, warm, err := NewCellAnalyzer(an, v).AnalyzeWarm(tb.Block)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("variant's first cell must be cold (distinct cache key)")
	}
	if cv.Prediction != c1.Prediction {
		t.Fatalf("variant cell prediction %v != base %v", cv.Prediction, c1.Prediction)
	}

	// The cell agrees with the full analysis path.
	full, err := Analyze(an, tb.Block, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := CellOf(full); got != c1 {
		t.Fatalf("cell %+v disagrees with full analysis projection %+v", c1, got)
	}
}

// TestPortSignatureDistinctAcrossBuiltins guards against an
// over-coarse signature: the three built-ins must not collide.
func TestPortSignatureDistinctAcrossBuiltins(t *testing.T) {
	sigs := map[string]string{}
	for _, key := range []string{"goldencove", "neoversev2", "zen4"} {
		sig := uarch.MustGet(key).PortSignature()
		if prev, ok := sigs[sig]; ok {
			t.Fatalf("%s and %s share a port signature", prev, key)
		}
		sigs[sig] = key
	}
}
