package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"
)

// The self-test runs each workload at minimal length, untraced and
// traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and nothing else; and that the correctness checks reject
// a wrong golden. Run with: cd perfbench && go test .

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// want returns the metric name to unit map a run must emit.
func want(t *testing.T, traced bool) map[string]string {
	bj := readBenchmarkJSON(t)
	out := map[string]string{}
	if traced {
		for _, m := range bj.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bj.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

func TestCatalogsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, c := range []struct {
		traced bool
		cat    []metricDef
	}{{false, e2eCatalog}, {true, layerCatalog}} {
		w := want(t, c.traced)
		if len(w) != len(c.cat) {
			t.Errorf("traced=%t: BENCHMARK.json lists %d metrics, catalog %d", c.traced, len(w), len(c.cat))
		}
		for _, m := range c.cat {
			if w[m.name] != m.unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, catalog %q", m.name, w[m.name], m.unit)
			}
		}
	}
	for _, wl := range bj.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("workload %s has no runner", wl.Name)
		}
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", wl.Name)
		}
	}
}

// run drives one workload at minimal length and parses its result line.
func run(t *testing.T, workload string, traced bool) result {
	t.Helper()
	b, err := newBench(workload, 7, 0.5, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.heap.start()
	err = workloads[workload](b)
	b.heap.stop()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	b.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric covers serve-mixed too, which
// BENCHMARK.json leaves out but README.md documents for manual runs.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			if testing.Short() && name == "repro-paper" {
				continue
			}
			res := run(t, name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			w := want(t, traced)
			for metric, unit := range w {
				m, ok := res.Metrics[metric]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%t: metric %s missing or unit %q != %q", name, traced, metric, m.Unit, unit)
				}
			}
			for metric := range res.Metrics {
				if _, ok := w[metric]; !ok {
					t.Errorf("%s traced=%t: unexpected metric %s", name, traced, metric)
				}
			}
			if !traced {
				for metric, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", name, metric, m.Value)
					}
				}
			}
		}
	}
}

func TestWrongGoldenIsRejected(t *testing.T) {
	saved := goldenSweeps["zen4-ports"]
	goldenSweeps["zen4-ports"] = strings.Repeat("0", 64)
	defer func() { goldenSweeps["zen4-ports"] = saved }()
	res := run(t, "sweep-design", false)
	if res.Correct || res.Failed == 0 {
		t.Errorf("a wrong sweep golden passed: correct=%t failed=%d", res.Correct, res.Failed)
	}

	b, err := newBench("repro-paper", 1, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if checkGolden(b, "repro", sha("not the reproduction"), goldenRepro) {
		t.Error("a repro output that differs from the golden passed")
	}
}

func TestWrongServedAnswerIsRejected(t *testing.T) {
	b, err := newBench("serve-mixed", 1, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &serveSetup{oracle: newOracle(), hot: []hotReq{{arch: "zen4", name: "add", asm: "\taddq $8, %rax\n"}}}
	want, err := s.oracle.analyze("zen4", "add", s.hot[0].asm, true)
	if err != nil {
		t.Fatal(err)
	}
	good := outcome{req: request{hot: true}, status: http.StatusOK, pred: want.Prediction, bound: want.Bound}
	bad := good
	bad.pred++
	s.verify(b, []outcome{good, bad}, "self-test")
	if b.attempted.Load() != 2 || b.failed.Load() != 1 {
		t.Errorf("attempted=%d failed=%d, want 2 and 1", b.attempted.Load(), b.failed.Load())
	}
}

func TestFreshRequestsAreDistinctAndParse(t *testing.T) {
	b, err := newBench("serve-mixed", 3, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServeSetup(b)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	seen := map[string]bool{}
	for _, h := range s.hot {
		seen[h.arch+"\x00"+h.asm] = true
	}
	fresh := 0
	for i := 0; i < 2000; i++ {
		r := s.mixRequest(b.seed, 1, i)
		if r.hot {
			continue
		}
		fresh++
		h := s.hot[r.blk]
		asm := s.freshAsm(r)
		if seen[h.arch+"\x00"+asm] {
			t.Fatalf("request %d repeats a block body", i)
		}
		seen[h.arch+"\x00"+asm] = true
		if _, err := s.oracle.analyze(h.arch, h.name, asm, false); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if fresh < 300 || fresh > 500 {
		t.Errorf("%d fresh requests of 2000, want about 20%%", fresh)
	}
}
