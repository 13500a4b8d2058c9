// Command perfbench is the repository's end-to-end benchmark. It drives
// the public Go entry points of the reproduction (experiments), the HTTP
// service (serve) and the design-space sweep engine (sweep) on one of
// three workloads, checks every output for correctness, and prints its
// metrics as one JSON object on the last line of standard output.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	perfbench -workload repro-paper|serve-mixed|sweep-design -seed N -seconds S -trace 0|1 [-work DIR]
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the benchmark records spans around its own
// calls into each layer's public functions and the result carries the
// per-layer metrics instead; the spans are written to DIR/traces when
// the run ends. The line before the result is a report object with the
// host record, sample counts, exact counts, accuracy record and any
// failed checks. README.md lists every metric and what it should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one workload run accumulates: its operation and
// failure counts, metrics, sample counts, exact counts and report.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	work     string // scratch root inside the checkout
	tr       *tracer
	jobs     int

	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	checks   []string // failed checks, one line each
	metrics  map[string]metric
	samples  map[string]int
	counts   map[string]uint64 // exact counts, checked for drift
	layer    map[string]uint64 // per-layer counts of the traced run
	accuracy []accuracyRow
	traceRep map[string]any
	setupS   float64        // traced runs report set-up time here, not as a metric
	details  map[string]any // per-workload detail for the report

	heap *heapSampler
}

func main() {
	workload := flag.String("workload", "", "workload: repro-paper, serve-mixed or sweep-design")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for stores, counts and span dumps")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want repro-paper, serve-mixed or sweep-design)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	b, err := newBench(*workload, *seed, *seconds, *trace == 1, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(b.runDir())
	b.heap.start()
	err = run(b)
	b.heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.RemoveAll(b.runDir())
		os.Exit(1)
	}
	b.checkEmitted()
	b.checkDrift()
	if b.tr != nil {
		if err := b.tr.dump(filepath.Join(b.work, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))); err != nil {
			b.fail("trace dump: %v", err)
		}
	}
	b.print(os.Stdout)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"repro-paper":  runRepro,
	"serve-mixed":  runServe,
	"sweep-design": runSweep,
}

func newBench(workload string, seed int64, seconds float64, trace bool, work string) (*bench, error) {
	abs, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, work: abs,
		jobs:    runtime.NumCPU(),
		metrics: map[string]metric{}, samples: map[string]int{}, counts: map[string]uint64{},
		heap: &heapSampler{},
	}
	if trace {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.runDir(), 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

// runDir holds this process's stores; it is removed when the run ends.
func (b *bench) runDir() string {
	return filepath.Join(b.work, "runs", fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
}

// tempDir returns a fresh, empty directory under runDir.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.runDir(), prefix)
}

// traced reports whether this is the per-layer (traced) run.
func (b *bench) traced() bool { return b.tr != nil }

// fail records one failed check, counted as an attempted and failed
// operation of its own.
func (b *bench) fail(format string, args ...any) {
	b.op(false)
	b.note(format, args...)
}

// note records why an operation failed; the caller counts it with op.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.checks) < 50 {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

// detail adds one named value to the report.
func (b *bench) detail(name string, v any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.details == nil {
		b.details = map[string]any{}
	}
	b.details[name] = v
}

// op counts one attempted operation; ok=false counts it failed.
func (b *bench) op(ok bool) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
	}
}

// set records a metric and how many samples it summarizes.
func (b *bench) set(name, unit string, v float64, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = metric{Value: v, Unit: unit}
	b.samples[name] = n
}

// setMedian records the median of samples as a metric and keeps the
// samples in the report.
func (b *bench) setMedian(name, unit string, samples []float64) {
	b.set(name, unit, median(samples), len(samples))
	b.detail(name, samples)
}

// count records an exact count. A count recorded twice in one run must
// repeat exactly; a different value is a determinism failure.
func (b *bench) count(name string, v uint64) {
	b.mu.Lock()
	old, seen := b.counts[name]
	b.counts[name] = v
	b.mu.Unlock()
	if seen && old != v {
		b.fail("determinism: %s read %d, then %d", name, old, v)
	}
}

// checkEmitted fails the run if a metric of its mode is missing.
func (b *bench) checkEmitted() {
	cat := e2eCatalog
	if b.traced() {
		cat = layerCatalog
	}
	for _, m := range cat {
		b.mu.Lock()
		_, ok := b.metrics[m.name]
		b.mu.Unlock()
		if !ok {
			b.fail("metric %s was not measured", m.name)
		}
	}
}

// checkDrift compares this run's exact counts with the last run of the
// same binary, workload, seed and trace mode in this checkout, and then
// records them for the next run. Any difference is a failure: the counts
// are deterministic, so drift is a bug, not noise.
func (b *bench) checkDrift() {
	exe, err := os.Executable()
	if err != nil {
		return
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return
	}
	sum := sha256.Sum256(data)
	name := fmt.Sprintf("%s-seed%d-trace%t-%s.json", b.workload, b.seed, b.traced(), hex.EncodeToString(sum[:8]))
	path := filepath.Join(b.work, "counts", name)
	if prev, err := os.ReadFile(path); err == nil {
		var old map[string]uint64
		if json.Unmarshal(prev, &old) == nil {
			for k, v := range b.counts {
				if ov, ok := old[k]; ok && ov != v {
					b.fail("determinism: %s drifted from %d to %d since the last run", k, ov, v)
				}
			}
		}
	}
	if enc, err := json.Marshal(b.counts); err == nil {
		if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
			_ = os.WriteFile(path, enc, 0o644) // best effort: a lost record only skips one comparison
		}
	}
}

// print writes the report line and then the result line.
func (b *bench) print(out io.Writer) {
	w := bufio.NewWriter(out)
	defer w.Flush()
	b.mu.Lock()
	defer b.mu.Unlock()
	report := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": b.traced(),
		"host": hostRecord(b.jobs), "samples": b.samples, "counts": b.counts,
		"failed_checks": b.checks,
	}
	if len(b.accuracy) > 0 {
		report["accuracy"] = b.accuracy
	}
	if len(b.details) > 0 {
		report["details"] = b.details
	}
	if b.traceRep != nil {
		report["trace"] = b.traceRep
		report["setup_s"] = b.setupS
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"report": report}) // bufio errors surface at Flush
	attempted, failed := b.attempted.Load(), b.failed.Load()
	if attempted < 1 {
		attempted, failed = 1, 1
	}
	_ = enc.Encode(result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   b.metrics,
	})
}

// hostRecord describes the machine the wall-clock numbers come from.
func hostRecord(jobs int) map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "cpu_model": model, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "jobs": jobs, "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// heapSampler tracks the high-water mark of the live heap — the bytes
// the last garbage collection marked live, from runtime/metrics —
// sampled every few milliseconds between start and stop. The live heap
// is what a workload retains; the in-use heap also holds garbage not yet
// collected, whose peak depends on when collections happen to run.
type heapSampler struct {
	peak atomic.Uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (h *heapSampler) start() {
	h.done = make(chan struct{})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.observe(liveHeap(s))
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
}

func (h *heapSampler) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the peak since the last take (or start) in MB and resets it.
func (h *heapSampler) take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// durations converts to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sha returns the hex SHA-256 of s.
func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// repeatSetup runs setup n times and records the median as setup_s; the
// value returned is the last repetition's, the one the workload uses.
func repeatSetup[T any](b *bench, n int, setup func() (T, error)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	if b.traced() {
		b.mu.Lock()
		b.setupS = median(times)
		b.mu.Unlock()
	} else {
		b.set("setup_s", "s", median(times), len(times))
	}
	return last, nil
}
