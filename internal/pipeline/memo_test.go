package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/memsim"
	"incore/internal/sim"
	"incore/internal/uarch"
)

// TestMemoKeysByContentNotName verifies that two blocks with identical
// bodies but different names share one cached analysis — the property
// that collapses the suite's 416 test blocks onto its 290 unique bodies.
func TestMemoKeysByContentNotName(t *testing.T) {
	m := uarch.MustGet("goldencove")
	k, err := kernels.ByName("striad")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Arch: "goldencove", Compiler: kernels.CompilersFor("goldencove")[0], Opt: kernels.Ofast}
	b1, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2 := b1.Clone()
	b2.Name = b1.Name + "-alias"

	c := NewCache()
	old := shared
	shared = c
	defer func() { shared = old }()

	an := core.New()
	r1, err := Analyze(an, b1, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(an, b2, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("identical block content must share one cached analysis")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", st)
	}

	// A different analyzer configuration must not share the entry.
	an2 := core.New()
	an2.Opt.IncludeFalseDeps = true
	if _, err := Analyze(an2, b1, m); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("distinct analyzer options must miss: %+v", st)
	}
}

// TestMemoSimulateMatchesDirect verifies the cached simulator result is
// the direct result, and that a traced run bypasses the cache.
func TestMemoSimulateMatchesDirect(t *testing.T) {
	m := uarch.MustGet("zen4")
	k, err := kernels.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernels.Config{Arch: "zen4", Compiler: kernels.CompilersFor("zen4")[0], Opt: kernels.Ofast}
	b, err := kernels.Generate(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := sim.DefaultConfig(m)
	direct, err := sim.Run(b, m, sc)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	old := shared
	shared = c
	defer func() { shared = old }()

	cached, err := Simulate(b, m, sc)
	if err != nil {
		t.Fatal(err)
	}
	if cached.CyclesPerIter != direct.CyclesPerIter {
		t.Errorf("cached %.4f vs direct %.4f cycles/iter", cached.CyclesPerIter, direct.CyclesPerIter)
	}

	traced := sc
	traces := 0
	traced.Trace = func(int, string, float64, float64, float64, float64, float64) { traces++ }
	if _, err := Simulate(b, m, traced); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Error("traced run must execute, not hit the cache")
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("traced run must bypass the cache: %+v", st)
	}
}

// TestWACurveScheduleIndependent computes Fig. 4 curves on fresh memo
// tiers at pool widths 1 and 4, and from inside jobs that already hold
// every slot of a width-2 pool (so the per-count fan-out runs inline):
// each map must equal one fresh memsim run per core count, bit for bit.
func TestWACurveScheduleIndependent(t *testing.T) {
	curves := []struct {
		key    string
		nt     bool
		counts []int
	}{
		{"goldencove", true, []int{1, 8, 5}},
		{"zen4", false, []int{2, 1}},
	}
	want := make([]map[int]float64, len(curves))
	for i, c := range curves {
		want[i] = map[int]float64{}
		for _, n := range c.counts {
			s, err := memsim.NewSystem(memsim.MustConfigFor(c.key))
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.RunStoreStream(n, memsim.DefaultStoreLinesPerCore, c.nt)
			if err != nil {
				t.Fatal(err)
			}
			want[i][n] = r.WARatio()
		}
	}
	check := func(what string, i int, got map[int]float64) {
		t.Helper()
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: %s curve %v, want %v", what, curves[i].key, got, want[i])
		}
	}
	fresh := func(workers int) {
		t.Helper()
		oldShared, oldPersistent := shared, persistent
		shared, persistent = NewCache(), nil
		t.Cleanup(func() { shared, persistent = oldShared, oldPersistent })
		old := Default().Workers()
		SetDefaultWorkers(workers)
		t.Cleanup(func() { SetDefaultWorkers(old) })
	}

	for _, w := range []int{1, 4} {
		fresh(w)
		for i, c := range curves {
			got, err := WACurve(c.key, c.nt, c.counts)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("width %d", w), i, got)
		}
	}

	fresh(2)
	got, err := MapN(Default(), len(curves), func(i int) (map[int]float64, error) {
		return WACurve(curves[i].key, curves[i].nt, curves[i].counts)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range curves {
		check("nested in a slot-holding job", i, got[i])
	}
}
