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

// TestRunValidation checks that NewSystem rejects configs a run could
// not simulate (they would panic in Cache.locate or spin until the
// tick limit) and that runs reject out-of-range arguments.
func TestRunValidation(t *testing.T) {
	configs := []struct {
		name    string
		edit    func(c *Config)
		wantErr bool
	}{
		{"node config", func(c *Config) {}, false},
		{"no cores", func(c *Config) { c.Cores = 0 }, true},
		{"no domains", func(c *Config) { c.Domains = 0 }, true},
		{"L1 without ways", func(c *Config) { c.L1.Ways = 0 }, true},
		{"L2 without sets", func(c *Config) { c.L2.LineBytes = 0 }, true},
		{"L3 without ways", func(c *Config) { c.L3.Ways = 0 }, true},
		{"L3 with negative ways", func(c *Config) { c.L3.Ways = -16 }, true},
		{"L3 with 255 ways", func(c *Config) { c.L3.Ways = 255 }, false},
		{"L3 ways beyond the fill counter", func(c *Config) { c.L3.Ways = 256 }, true},
		{"zero MLP", func(c *Config) { c.MLP = 0 }, true},
		{"zero CoreGBs", func(c *Config) { c.CoreGBs = 0 }, true},
		{"negative CoreGBs", func(c *Config) { c.CoreGBs = -5 }, true},
		{"zero DomainGBs", func(c *Config) { c.DomainGBs = 0 }, true},
		{"NaN DomainGBs", func(c *Config) { c.DomainGBs = math.NaN() }, true},
		{"DomainGBs below a line per two ticks", func(c *Config) { c.DomainGBs = 3 }, true},
		{"DomainGBs at a line per two ticks", func(c *Config) { c.DomainGBs = 3.2 }, false},
		{"negative queue cap", func(c *Config) { c.QueueCapBytes = -1 }, true},
		{"infinite DomainGBs", func(c *Config) { c.DomainGBs = math.Inf(1) }, true},
		{"DomainGBs beyond 2^52 bytes per tick", func(c *Config) { c.DomainGBs = 1 << 53 / 10 }, true},
		{"NaN residual RFO share", func(c *Config) { c.NTResidualRFO = math.NaN() }, true},
		{"negative residual RFO share", func(c *Config) { c.NTResidualRFO = -0.1 }, true},
		{"residual RFO share above 1", func(c *Config) { c.NTResidualRFO = 1.5 }, true},
		{"residual RFO share 1", func(c *Config) { c.NTResidualRFO = 1 }, false},
		{"NaN SpecI2M threshold", func(c *Config) { c.SpecI2MThreshold = math.NaN() }, true},
		{"negative SpecI2M threshold", func(c *Config) { c.SpecI2MThreshold = -0.5 }, true},
		{"NaN SpecI2M max share", func(c *Config) { c.SpecI2MMaxShare = math.NaN() }, true},
		{"negative SpecI2M max share", func(c *Config) { c.SpecI2MMaxShare = -0.25 }, true},
		{"NaN SpecI2M ramp end", func(c *Config) { c.SpecI2MRampEnd = math.NaN() }, true},
		{"negative SpecI2M ramp end", func(c *Config) { c.SpecI2MRampEnd = -1 }, true},
	}
	for _, tc := range configs {
		cfg := MustConfigFor("zen4")
		tc.edit(&cfg)
		s, err := NewSystem(cfg)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: NewSystem error %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil {
			if _, err := s.RunStoreStream(2, 64, false); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	}

	s := sys(t, "zen4")
	runs := []struct {
		name          string
		active, lines int
	}{
		{"zero cores", 0, testLines},
		{"too many cores", 200, testLines},
		{"zero lines", 1, 0},
		{"lines beyond one stream region", 1, int(regionLines) + 1},
	}
	for _, tc := range runs {
		if _, err := s.RunStoreStream(tc.active, tc.lines, false); err == nil {
			t.Errorf("%s must error", tc.name)
		}
	}
}

// TestSteppedTicks checks SteppedTicks against Ticks: a run whose
// controllers saturate never repeats, so it steps every tick, while a
// core-bound run is fast-forwarded. TestGoldenMemsim bounds the total
// over the golden runs.
func TestSteppedTicks(t *testing.T) {
	for _, tc := range []struct {
		key       string
		cores     int
		nt        bool
		saturated bool
	}{
		{"neoversev2", 72, false, true},
		{"goldencove", 52, false, true},
		{"zen4", 96, false, true},
		{"zen4", 96, true, true},
		{"neoversev2", 32, false, false},
		{"goldencove", 4, false, false},
		{"zen4", 64, true, false},
	} {
		s := sys(t, tc.key)
		r, err := s.RunStoreStream(tc.cores, testLines, tc.nt)
		if err != nil {
			t.Fatal(err)
		}
		stepped := s.SteppedTicks()
		if tc.saturated && stepped != r.Ticks || !tc.saturated && !(stepped > 0 && stepped < r.Ticks) {
			t.Errorf("%s at %d cores (nt %v): stepped %d of %d ticks, saturated %v", tc.key, tc.cores, tc.nt, stepped, r.Ticks, tc.saturated)
		}
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

// TestSystemReuse runs different workloads back to back on one System —
// SPR NT stores at 52 cores (the residual-RFO accumulator), a
// full-socket standard store stream (whose trailing flush grows the
// controller rings), a triad (a different trace shape), standard stores
// at 45 cores (where a leftover SpecI2M accumulator changes the result),
// and 16- and 4-line runs, each twice in a row (their lines are still in
// the private L2 or L1 unless those are emptied) — and requires every
// result to equal the same workload on a freshly built System, field for
// field. It does so for scatter and for compact placement.
func TestSystemReuse(t *testing.T) {
	workloads := []struct {
		name string
		run  func(s *System) (TrafficResult, error)
	}{
		{"spr-nt-52", func(s *System) (TrafficResult, error) { return s.RunStoreStream(52, testLines, true) }},
		{"store-full-socket", func(s *System) (TrafficResult, error) { return s.RunStoreStream(52, testLines, false) }},
		{"triad-26", func(s *System) (TrafficResult, error) { return s.RunTriad(26, testLines/4, true) }},
		{"speci2m-45", func(s *System) (TrafficResult, error) { return s.RunStoreStream(45, testLines/4, false) }},
		{"store-16-lines", func(s *System) (TrafficResult, error) { return s.RunStoreStream(4, 16, false) }},
		{"store-4-lines", func(s *System) (TrafficResult, error) { return s.RunStoreStream(4, 4, false) }},
	}
	for _, placement := range []Placement{PlacementScatter, PlacementCompact} {
		cfg := MustConfigFor("goldencove")
		cfg.Placement = placement
		newSys := func() *System {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		fresh := make([]TrafficResult, len(workloads))
		for i, w := range workloads {
			r, err := w.run(newSys())
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = r
		}
		reused := newSys()
		for _, i := range []int{0, 1, 0, 2, 3, 3, 1, 2, 4, 4, 5, 5} {
			r, err := workloads[i].run(reused)
			if err != nil {
				t.Fatal(err)
			}
			if r != fresh[i] {
				t.Errorf("placement %d: %s on a reused system: %+v, fresh %+v", placement, workloads[i].name, r, fresh[i])
			}
		}
	}
}

// TestTraceReplayPremise checks the premises of the template-core trace
// and of the L3 fill counters directly, for cores 0, 1, 7 and the last:
//
//   - simulating a fresh private hierarchy over core i's absolute
//     addresses yields the template's outcomes with every victim's L3
//     set shifted by core i's setOff;
//   - no cached access touches a line that an earlier access of the same
//     trace evicted from L2 (so no L3 lookup could hit), nor a line that
//     any checked core touched before.
//
// Besides the node configs it uses L1/L2 set counts (3 and 12) that do
// not divide the offsets, so sets shift too.
func TestTraceReplayPremise(t *testing.T) {
	odd := MustConfigFor("neoversev2")
	odd.Key = "odd-sets"
	odd.L1 = CacheConfig{SizeBytes: 3 * 8 * 64, Ways: 8, LineBytes: 64}
	odd.L2 = CacheConfig{SizeBytes: 12 * 8 * 64, Ways: 8, LineBytes: 64}
	cfgs := []Config{odd}
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		cfgs = append(cfgs, MustConfigFor(key))
	}
	const lines = 1024
	for _, cfg := range cfgs {
		workloads := map[string]func(s *System) (TrafficResult, error){
			"store":    func(s *System) (TrafficResult, error) { return s.RunStoreStream(cfg.Cores, lines, false) },
			"nt-store": func(s *System) (TrafficResult, error) { return s.RunStoreStream(cfg.Cores, lines, true) },
			"triad":    func(s *System) (TrafficResult, error) { return s.RunTriad(cfg.Cores, lines, false) },
		}
		for name, run := range workloads {
			tmpl, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(tmpl); err != nil {
				t.Fatal(err)
			}
			if len(tmpl.trace) != lines*len(tmpl.streams) {
				t.Fatalf("%s/%s: trace has %d entries, want %d", cfg.Key, name, len(tmpl.trace), lines*len(tmpl.streams))
			}
			victims := 0
			touched := map[LineAddr]int{}
			for _, core := range []int{0, 1, 7, cfg.Cores - 1} {
				off, setOff := tmpl.cores[core].off, tmpl.cores[core].setOff
				ref, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range tmpl.streams {
					st.base += off
					ref.streams = append(ref.streams, st)
				}
				ref.buildTrace(lines)
				for k, want := range tmpl.trace {
					if want&traceVictim != 0 {
						victims++
						set := (want.victimSet() + setOff) % tmpl.l3Sets
						want = want&(1<<traceFlagBits-1) | traceEntry(set)<<traceFlagBits
					}
					if got := ref.trace[k]; got != want {
						t.Fatalf("%s/%s core %d access %d: outcome %#x, template shifted %#x", cfg.Key, name, core, k, got, want)
					}
				}
				if ref.dirty != tmpl.dirty {
					t.Errorf("%s/%s core %d: %d dirty lines left, template %d", cfg.Key, name, core, ref.dirty, tmpl.dirty)
				}

				// Walk the same accesses again, keeping the L2 victims.
				ref.l1.reset()
				ref.l2.reset()
				ref.detector = streamDetector{TrainLen: cfg.DetectorTrainLen}
				evicted := map[LineAddr]int{}
				for k, e := range ref.trace {
					st := ref.streams[k%len(ref.streams)]
					if st.nt {
						continue
					}
					a := st.base + LineAddr(k/len(ref.streams))
					if prev, ok := evicted[a]; ok {
						t.Fatalf("%s/%s core %d access %d: line %#x was evicted from L2 by access %d; an L3 lookup could hit", cfg.Key, name, core, k, a, prev)
					}
					if prev, ok := touched[a]; ok {
						t.Fatalf("%s/%s core %d access %d: line %#x already touched by core %d", cfg.Key, name, core, k, a, prev)
					}
					touched[a] = core
					flags, v := ref.privateAccess(a, st.write)
					if flags != e&(1<<traceFlagBits-1) {
						t.Fatalf("%s/%s core %d access %d: walk gives flags %#x, trace %#x", cfg.Key, name, core, k, flags, e)
					}
					if flags&traceVictim != 0 {
						evicted[v] = k
					}
				}
			}
			if name != "nt-store" && victims == 0 {
				t.Errorf("%s/%s: no L2 victims reach L3; the check is vacuous", cfg.Key, name)
			}
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

// TestControllerRingFIFO drives the controller's run ring through merges,
// wrap-around and a grow while head != 0: lines must leave in exactly the
// order they entered, and the runs must be the maximal ones.
func TestControllerRingFIFO(t *testing.T) {
	// Merge: reads of one core join while no write follows them, writes
	// always join the tail, and a read behind a write starts a new run.
	c := &controller{bytesPerTick: 64, lineBytes: 64}
	for range 3 {
		c.enqueueRead(3)
	}
	c.enqueueWrites(2)
	c.enqueueWrites(0)
	c.enqueueWrites(1)
	c.enqueueRead(3)
	c.enqueueRead(4)
	c.enqueueRead(4)
	want := []lineRun{{3, 3, 3}, {3, 1, 0}, {4, 2, 0}}
	if c.count != len(want) || c.lines != 9 {
		t.Fatalf("merge: %d runs of %d lines, want %d runs of 9", c.count, c.lines, len(want))
	}
	for i, w := range want {
		if c.queue[i] != w {
			t.Errorf("merge: run %d = %+v, want %+v", i, c.queue[i], w)
		}
	}

	// A partly served run keeps its place; once its reads are served its
	// core is cleared, so equal queues have equal runs.
	cores := make([]*simCore, 5)
	for i := range cores {
		cores[i] = &simCore{outstanding: 10}
	}
	c.bytesPerTick = 2 * 64
	c.serve(cores)
	if c.queue[c.head] != (lineRun{3, 1, 3}) || cores[3].outstanding != 8 || c.ReadBytes != 128 {
		t.Fatalf("partial read: head run %+v, core 3 outstanding %d, read bytes %d", c.queue[c.head], cores[3].outstanding, c.ReadBytes)
	}
	c.serve(cores)
	if c.queue[c.head] != (lineRun{-1, 0, 2}) || cores[3].outstanding != 7 || c.WriteBytes != 64 {
		t.Fatalf("partial write: head run %+v, core 3 outstanding %d, write bytes %d", c.queue[c.head], cores[3].outstanding, c.WriteBytes)
	}
	c.bytesPerTick = 4 * 64
	c.budget = 0
	c.serve(cores) // two writes, the next run, one read of the last
	if c.count != 1 || c.lines != 1 || cores[3].outstanding != 6 || cores[4].outstanding != 9 {
		t.Fatalf("cross-run serve: %d runs of %d lines, outstanding %d, %d", c.count, c.lines, cores[3].outstanding, cores[4].outstanding)
	}

	// Wrap and grow. Each read carries its sequence number as its core,
	// so no two merge, and a tick serves exactly one 64-byte line.
	c = &controller{bytesPerTick: 64, lineBytes: 64}
	const total = 64 + 40 + 10
	cores = make([]*simCore, total)
	for i := range cores {
		cores[i] = &simCore{outstanding: 1}
	}
	next, served := 0, 0
	push := func(n int) {
		for range n {
			c.enqueueRead(int32(next))
			next++
		}
	}
	pop := func(n int) {
		for range n {
			c.serve(cores)
			if cores[served].outstanding != 0 || served+1 < total && cores[served+1].outstanding != 1 {
				t.Fatalf("tick %d did not serve exactly line %d (FIFO order broken)", served, served)
			}
			served++
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
	if c.count != 0 || c.lines != 0 || served != total || c.ReadBytes != total*64 {
		t.Errorf("drained ring: count %d lines %d, served %d of %d, read bytes %d", c.count, c.lines, served, total, c.ReadBytes)
	}
}
