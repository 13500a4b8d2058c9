package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"incore/internal/core"
	"incore/internal/kernels"
	"incore/internal/pipeline"
	"incore/internal/sweep"
	"incore/internal/uarch"
)

// sweep-design: three 64-variant node sweeps (mem_bandwidth_gbs x
// tdp_watts, 8x8) on goldencove, zen4 and neoversev2 over each one's
// kernel suite, and a 12-variant port sweep (load_ports x rob_size) on
// zen4: 28 496 (variant, block) cells through sweep.Run. A cold pass
// starts from an empty memo and an empty compiled-artifact tier; a warm
// pass repeats the sweeps in the same process, so every cell is a memo
// hit. The seed shuffles the order of axes and axis values, which
// sweep.Run canonicalizes, so every seed has the same goldens.

type sweepSpec struct {
	name   string
	base   *uarch.Model
	axes   []sweep.Axis
	blocks []sweep.Block
}

func nodeAxes() []sweep.Axis {
	return []sweep.Axis{
		{Param: "mem_bandwidth_gbs", Values: []float64{40, 60, 80, 100, 120, 140, 160, 180}},
		{Param: "tdp_watts", Values: []float64{150, 200, 250, 300, 350, 400, 450, 500}},
	}
}

func portAxes() []sweep.Axis {
	return []sweep.Axis{
		{Param: "load_ports", Values: []float64{2, 3, 4}},
		{Param: "rob_size", Values: []float64{128, 256, 320, 512}},
	}
}

// sweepSpecs builds the four sweeps with seeded axis and value order.
func sweepSpecs(rng *rand.Rand) ([]sweepSpec, error) {
	blocks := map[string][]sweep.Block{}
	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		bs, err := sweep.SuiteBlocks(arch)
		if err != nil {
			return nil, err
		}
		blocks[arch] = bs
	}
	var specs []sweepSpec
	for _, s := range []struct {
		name, arch string
		axes       []sweep.Axis
	}{
		{"goldencove-node", "goldencove", nodeAxes()},
		{"zen4-node", "zen4", nodeAxes()},
		{"neoversev2-node", "neoversev2", nodeAxes()},
		{"zen4-ports", "zen4", portAxes()},
	} {
		base, err := uarch.Get(s.arch)
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(s.axes), func(i, j int) { s.axes[i], s.axes[j] = s.axes[j], s.axes[i] })
		for _, ax := range s.axes {
			v := ax.Values
			rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		}
		specs = append(specs, sweepSpec{s.name, base, s.axes, blocks[s.arch]})
	}
	return specs, nil
}

// sweepPass is one pass over the four sweeps.
type sweepPass struct {
	wall    time.Duration
	results []*sweep.Result
	cells   int
}

// runSweepPass runs every sweep once; a non-nil tr wraps each sweep.Run
// in a span.
func runSweepPass(b *bench, tr *tracer, specs []sweepSpec, kind string) sweepPass {
	var p sweepPass
	before := sweep.GlobalStats()
	runtime.GC() // every pass starts from the same heap state
	start := time.Now()
	for i, s := range specs {
		var res *sweep.Result
		var err error
		tr.do("sweep.Run", 0, int64(i), func() { res, err = sweep.Run(s.base, s.axes, s.blocks, sweep.Options{}) })
		ok := err == nil
		if err != nil {
			b.note("sweep %s (%s): %v", s.name, kind, err)
		} else {
			ok = checkGolden(b, "sweep "+s.name+" ("+kind+")", sha(res.Render()), goldenSweeps[s.name])
			p.cells += len(res.Variants) * len(res.Blocks)
		}
		b.op(ok)
		p.results = append(p.results, res)
	}
	p.wall = time.Since(start)
	d := sweep.GlobalStats()
	b.count(kind+".sweep_cells_cold", d.CellsCold-before.CellsCold)
	b.count(kind+".sweep_cells_warm", d.CellsWarm-before.CellsWarm)
	b.count(kind+".sweep_shared_signature", d.SharedSignature-before.SharedSignature)
	st := pipeline.Shared().Stats()
	b.count(kind+".memo_misses", st.Misses)
	b.count(kind+".compiles", pipeline.CompiledArtifacts().Stats().Compiles)
	return p
}

// resetMemo empties the memo and compiled-artifact tiers; sweeps run
// without a persistent store.
func resetMemo() {
	pipeline.Shared().Reset()
	pipeline.CompiledArtifacts().Reset()
}

func runSweep(b *bench) error {
	pipeline.SetDefaultWorkers(b.jobs)
	specs, err := repeatSetup(b, 9, func() ([]sweepSpec, error) {
		resetMemo()
		return sweepSpecs(rand.New(rand.NewSource(b.seed)))
	})
	if err != nil {
		return err
	}
	if b.traced() {
		return traceSweep(b, specs)
	}
	const warmPerCold = 3
	var colds, warms, rates, peaks []float64
	budget := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()
	b.heap.take()
	for {
		iter := time.Now()
		resetMemo()
		cold := runSweepPass(b, b.tr, specs, "cold")
		colds = append(colds, cold.wall.Seconds())
		rates = append(rates, float64(cold.cells)/cold.wall.Seconds())
		for w := 0; w < warmPerCold; w++ {
			warm := runSweepPass(b, b.tr, specs, "warm")
			warms = append(warms, warm.wall.Seconds())
		}
		peaks = append(peaks, b.heap.take())
		if time.Since(start)+time.Since(iter) > budget {
			break
		}
	}
	b.setMedian("cold_s", "s", colds)
	b.setMedian("warm_s", "s", warms)
	b.setMedian("rate_per_s", "1/s", rates)
	b.setMedian("peak_heap_mb", "MB", peaks)
	return nil
}

// traceSweep is the per-layer run: an untraced cold pass for reference,
// the same pass with a span around each sweep.Run, a traced warm pass,
// and a replay of sampled cells through the analyzer's public stages.
func traceSweep(b *bench, specs []sweepSpec) error {
	tr := b.tr
	resetMemo()
	untraced := runSweepPass(b, nil, specs, "cold")

	resetMemo()
	from := tr.mark()
	tstart := time.Now()
	before := sweep.GlobalStats()
	cold := runSweepPass(b, b.tr, specs, "cold")
	traced := time.Since(tstart)
	coldSpans := tr.window(from, tr.mark())
	memo := pipeline.Shared().Stats()
	arts := pipeline.CompiledArtifacts().Stats()
	runSweepPass(b, b.tr, specs, "warm")
	after := sweep.GlobalStats()

	for _, arch := range []string{"goldencove", "zen4", "neoversev2"} {
		var err error
		tr.do("kernels.Suite", 0, 0, func() { _, err = kernels.Suite(arch) })
		if err != nil {
			return err
		}
	}
	if err := replaySweepCells(b, specs, cold.results); err != nil {
		return err
	}

	m := layerMetrics{}
	m["kernels.suite_ms"] = total(byName(tr.all())["kernels.Suite"]).Seconds() * 1e3
	m["sweep.cells_cold"] = float64(after.CellsCold - before.CellsCold)
	m["sweep.cells_warm"] = float64(after.CellsWarm - before.CellsWarm)
	sigs := 0
	for _, r := range cold.results {
		if r != nil {
			sigs += r.DistinctSignatures
		}
	}
	m["sweep.signatures"] = float64(sigs)
	b.count("sweep.signatures", uint64(sigs))
	m.pipeline(memo, arts)
	m.coverage(b, coldSpans, untraced.wall, untraced.wall, traced)
	m.emit(b, tr.all())
	return nil
}

// replaySweepCells analyzes every block of each sweep on its first and
// last variant through the public parse, graph and analysis stages, and
// checks each prediction against the sweep's own cell.
func replaySweepCells(b *bench, specs []sweepSpec, results []*sweep.Result) error {
	an := core.New()
	run := int64(0)
	for si, s := range specs {
		canon, err := sweep.Canonicalize(s.axes)
		if err != nil {
			return err
		}
		vs, err := sweep.Variants(s.base, canon)
		if err != nil {
			return err
		}
		res := results[si]
		for _, vi := range []int{0, len(vs) - 1} {
			v := vs[vi]
			for bi, blk := range s.blocks {
				run++
				got, err := traceAnalyze(b, b.tr, an, 0, run, blk.Name, v.Model, blk.B.Text())
				if err != nil {
					return fmt.Errorf("replay %s variant %d block %s: %w", s.name, vi, blk.Name, err)
				}
				b.layerCount("isa.instrs", uint64(len(got.b.Instrs)))
				if res != nil && got.res.Prediction != res.Variants[vi].Predictions[bi] {
					b.fail("sweep %s variant %d block %s: replay %v, sweep %v", s.name, vi, blk.Name,
						got.res.Prediction, res.Variants[vi].Predictions[bi])
				}
			}
		}
	}
	return nil
}
