package memsim

import (
	"math"
	"testing"
)

func sys(t *testing.T, key string) *System {
	t.Helper()
	cfg, err := ConfigFor(key)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testLines = 4096

func TestConfigForAllNodes(t *testing.T) {
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		cfg, err := ConfigFor(key)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if cfg.Cores <= 0 || cfg.DomainGBs <= 0 || cfg.CoreGBs <= 0 {
			t.Errorf("%s config incomplete: %+v", key, cfg)
		}
	}
	if _, err := ConfigFor("unknown"); err == nil {
		t.Error("unknown node must error")
	}
}

func TestGraceAutoClaimPerfectEvasion(t *testing.T) {
	s := sys(t, "neoversev2")
	for _, cores := range []int{1, 8, 72} {
		r, err := s.RunStoreStream(cores, testLines, false)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.WARatio(); ratio > 1.05 {
			t.Errorf("Grace at %d cores: ratio %.3f, want ~1.0 (paper Fig. 4)", cores, ratio)
		}
	}
}

func TestGenoaFullWATraffic(t *testing.T) {
	s := sys(t, "zen4")
	for _, cores := range []int{1, 48, 96} {
		r, err := s.RunStoreStream(cores, testLines, false)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := r.WARatio(); math.Abs(ratio-2.0) > 0.05 {
			t.Errorf("Genoa at %d cores: ratio %.3f, want 2.0", cores, ratio)
		}
	}
}

func TestGenoaNTStoresPerfect(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunStoreStream(96, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r.WARatio(); math.Abs(ratio-1.0) > 0.02 {
		t.Errorf("Genoa NT ratio = %.3f, want 1.0", ratio)
	}
}

func TestSPRSpecI2MGatedBySaturation(t *testing.T) {
	s := sys(t, "goldencove")
	low, err := s.RunStoreStream(2, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := low.WARatio(); math.Abs(ratio-2.0) > 0.05 {
		t.Errorf("SPR at 2 cores: ratio %.3f, want 2.0 (SpecI2M must not engage)", ratio)
	}
	high, err := s.RunStoreStream(52, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := high.WARatio(); math.Abs(ratio-1.75) > 0.05 {
		t.Errorf("SPR at 52 cores: ratio %.3f, want ~1.75 (25%% reduction cap)", ratio)
	}
}

func TestSPRNTResidual(t *testing.T) {
	s := sys(t, "goldencove")
	small, err := s.RunStoreStream(2, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := small.WARatio(); math.Abs(ratio-1.0) > 0.02 {
		t.Errorf("SPR NT at 2 cores: ratio %.3f, want 1.0", ratio)
	}
	big, err := s.RunStoreStream(52, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := big.WARatio(); math.Abs(ratio-1.10) > 0.03 {
		t.Errorf("SPR NT at 52 cores: ratio %.3f, want ~1.10 (residual RFOs)", ratio)
	}
}

func TestTriadTrafficAccounting(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunTriad(4, testLines, true)
	if err != nil {
		t.Fatal(err)
	}
	// Per line: 2 loads + 1 NT store; loaded = 2x stored.
	if r.LoadedBytes != 2*r.StoredBytes {
		t.Errorf("loaded %d, stored %d: want 2:1", r.LoadedBytes, r.StoredBytes)
	}
	// NT: traffic equals useful bytes.
	traffic := r.MemReadBytes + r.MemWriteBytes
	useful := r.LoadedBytes + r.StoredBytes
	if math.Abs(float64(traffic)/float64(useful)-1.0) > 0.02 {
		t.Errorf("NT triad traffic %d vs useful %d", traffic, useful)
	}
	// With standard stores the WA read adds a third of the loads again.
	r2, err := s.RunTriad(4, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	traffic2 := r2.MemReadBytes + r2.MemWriteBytes
	if !(traffic2 > traffic) {
		t.Error("standard stores must add write-allocate traffic")
	}
}

func TestCopyWorkload(t *testing.T) {
	s := sys(t, "zen4")
	r, err := s.RunCopy(2, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.LoadedBytes != r.StoredBytes {
		t.Errorf("copy: loaded %d != stored %d", r.LoadedBytes, r.StoredBytes)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// At full socket the achieved traffic bandwidth approaches the
	// configured controller capacity.
	cfg := MustConfigFor("zen4")
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunStoreStream(96, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	cap := cfg.DomainGBs * float64(cfg.Domains)
	if got := r.TrafficGBs(); got < 0.9*cap || got > 1.05*cap {
		t.Errorf("saturated traffic %.1f GB/s, capacity %.1f", got, cap)
	}
}

func TestSingleCoreBelowSaturation(t *testing.T) {
	cfg := MustConfigFor("zen4")
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunStoreStream(1, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	// One core generates CoreGBs of stores -> 2x traffic with WA.
	want := 2 * cfg.CoreGBs
	if got := r.TrafficGBs(); math.Abs(got-want) > 0.2*want {
		t.Errorf("single-core traffic %.1f GB/s, want ~%.1f", got, want)
	}
}

func TestRunValidation(t *testing.T) {
	s := sys(t, "zen4")
	if _, err := s.RunStoreStream(0, testLines, false); err == nil {
		t.Error("zero cores must error")
	}
	if _, err := s.RunStoreStream(200, testLines, false); err == nil {
		t.Error("too many cores must error")
	}
	if _, err := s.RunStoreStream(1, 0, false); err == nil {
		t.Error("zero lines must error")
	}
}

func TestDefaultCounts(t *testing.T) {
	counts := DefaultCounts(52)
	if counts[0] != 1 || counts[len(counts)-1] != 52 {
		t.Errorf("DefaultCounts bounds: %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("DefaultCounts not strictly increasing: %v", counts)
		}
	}
}

// TestSystemReuse runs different workloads back to back on
// one System — SPR NT stores at 52 cores (the residual-RFO accumulator),
// a full-socket standard store stream (whose trailing flush grows the
// controller rings), a triad, and standard stores at 45 cores (where a
// leftover SpecI2M accumulator changes the result) — and requires every
// result to equal the same workload on a freshly built System, field
// for field.
func TestSystemReuse(t *testing.T) {
	workloads := []struct {
		name string
		run  func(s *System) (TrafficResult, error)
	}{
		{"spr-nt-52", func(s *System) (TrafficResult, error) { return s.RunStoreStream(52, testLines, true) }},
		{"store-full-socket", func(s *System) (TrafficResult, error) { return s.RunStoreStream(52, testLines, false) }},
		{"triad-26", func(s *System) (TrafficResult, error) { return s.RunTriad(26, testLines/4, true) }},
		{"speci2m-45", func(s *System) (TrafficResult, error) { return s.RunStoreStream(45, testLines/4, false) }},
	}
	fresh := make([]TrafficResult, len(workloads))
	for i, w := range workloads {
		r, err := w.run(sys(t, "goldencove"))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = r
	}
	reused := sys(t, "goldencove")
	for _, i := range []int{0, 1, 0, 2, 3, 3, 1, 2} {
		r, err := workloads[i].run(reused)
		if err != nil {
			t.Fatal(err)
		}
		if r != fresh[i] {
			t.Errorf("%s on a reused system: %+v, fresh %+v", workloads[i].name, r, fresh[i])
		}
	}
}

func TestPlacementCompactVsScatter(t *testing.T) {
	cfg := MustConfigFor("goldencove")
	cfg.Placement = PlacementCompact
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With compact placement, 13 cores land on one domain and saturate
	// it -> SpecI2M engages earlier than with scatter.
	r, err := s.RunStoreStream(13, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	compact13 := r.WARatio()

	cfg2 := MustConfigFor("goldencove")
	s2, err := NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.RunStoreStream(13, testLines, false)
	if err != nil {
		t.Fatal(err)
	}
	scatter13 := r2.WARatio()
	if !(compact13 < scatter13) {
		t.Errorf("compact placement must engage SpecI2M earlier: compact %.3f vs scatter %.3f",
			compact13, scatter13)
	}
}

// TestControllerRingFIFO drives the controller's ring through
// wrap-around and through a grow while head != 0: requests must leave in
// exactly the order they entered.
func TestControllerRingFIFO(t *testing.T) {
	// Each request carries its sequence number as its core id; a tick
	// serves exactly one 64-byte request.
	c := &controller{bytesPerTick: 64}
	const total = 64 + 40 + 10
	completed := make([]int, total)
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			c.enqueue(request{core: next, bytes: 64, isRead: true})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			c.serve(completed)
			if completed[want] != 1 {
				t.Fatalf("tick %d did not serve request %d (FIFO order broken): %v", want, want, completed)
			}
			completed[want] = 0
			want++
		}
	}
	push(64) // fills the initial ring
	pop(40)  // head = 40
	push(40) // wraps: the tail occupies slots 0..39
	if c.head == 0 || c.count != len(c.queue) {
		t.Fatalf("setup: head %d count %d len %d; want a full, wrapped ring", c.head, c.count, len(c.queue))
	}
	push(10) // grows while head != 0
	if len(c.queue) != 128 || c.head != 0 {
		t.Fatalf("after grow: len %d head %d; want 128, 0", len(c.queue), c.head)
	}
	pop(c.count)
	if c.count != 0 || c.queuedBytes != 0 || want != total {
		t.Errorf("drained ring: count %d queuedBytes %d, served %d of %d", c.count, c.queuedBytes, want, total)
	}
}
