package memsim

import (
	"fmt"
	"math"
)

// TickSeconds is the simulation time step (10 ns).
const TickSeconds = 10e-9

// Config describes one simulated node's memory system.
type Config struct {
	Key     string
	Cores   int
	Domains int
	// Placement selects how active cores map to NUMA domains.
	Placement Placement

	L1, L2 CacheConfig // per core
	L3     CacheConfig // per domain slice
	// LineBytes is the cache-line size.
	LineBytes int

	// DomainGBs is each memory controller's sustained capacity.
	DomainGBs float64
	// CoreGBs is the per-core stored-byte generation rate for a
	// store-only stream (the core-side limit).
	CoreGBs float64
	// MLP is the per-core outstanding-read limit.
	MLP int
	// QueueCapBytes bounds each controller queue (back-pressure).
	QueueCapBytes int64

	Policy WAPolicyKind
	// DetectorTrainLen configures the auto-claim streaming detector.
	DetectorTrainLen int
	// SpecI2M parameters (used when Policy == PolicySpecI2M).
	SpecI2MThreshold float64
	SpecI2MMaxShare  float64
	SpecI2MRampEnd   float64
	// NTResidualRFO is the fraction of non-temporal store lines that
	// still perform an RFO (SPR's imperfect NT stores); it applies only
	// when more than NTResidualMinCores cores are active.
	NTResidualRFO      float64
	NTResidualMinCores int
}

// Placement maps active cores to domains.
type Placement int

// Placement policies.
const (
	// PlacementScatter distributes active cores round-robin across
	// domains (OpenMP "spread", the paper's SNC-mode default).
	PlacementScatter Placement = iota
	// PlacementCompact fills one domain before the next.
	PlacementCompact
)

// lineRun is a run of consecutive lines in a controller queue: reads lines
// read by core, then writes anonymous lines (writebacks and non-temporal
// stores). A run whose reads are all served has core -1, so two queues
// hold the same lines in the same order exactly when their runs are equal.
type lineRun struct {
	core          int32
	reads, writes int
}

type controller struct {
	bytesPerTick float64
	// lineBytes is the size of every queued line.
	lineBytes int
	budget    float64
	// queue is a FIFO ring of runs: count runs starting at queue[head],
	// wrapping at len(queue), holding lines lines in all. A line joins the
	// tail run when it can (a read of the tail's core behind no write, or
	// any write), so the runs are the maximal ones. The ring doubles when
	// full and is never shrunk, so a reused controller stops allocating
	// once it has seen its deepest queue.
	queue       []lineRun
	head, count int
	lines       int
	// util is the EMA of served/capacity. Only SpecI2M conversion reads
	// it, so it is tracked only under that policy (trackUtil).
	util      float64
	trackUtil bool
	i2m       specI2MState

	ReadBytes, WriteBytes int64
}

// reset returns the controller to its freshly built state, keeping the
// ring's backing array.
func (c *controller) reset() {
	i2m := c.i2m
	i2m.acc = 0
	*c = controller{bytesPerTick: c.bytesPerTick, lineBytes: c.lineBytes, queue: c.queue, trackUtil: c.trackUtil, i2m: i2m}
}

// at returns the slot i places behind the oldest run.
func (c *controller) at(i int) *lineRun {
	if i += c.head; i >= len(c.queue) {
		i -= len(c.queue)
	}
	return &c.queue[i]
}

// enqueueRead queues one line read by core.
func (c *controller) enqueueRead(core int32) {
	c.lines++
	if c.count > 0 {
		if t := c.at(c.count - 1); t.core == core && t.writes == 0 {
			t.reads++
			return
		}
	}
	c.push(lineRun{core: core, reads: 1})
}

// enqueueWrites queues n anonymous lines.
func (c *controller) enqueueWrites(n int) {
	if n == 0 {
		return
	}
	c.lines += n
	if c.count > 0 {
		c.at(c.count - 1).writes += n
		return
	}
	c.push(lineRun{core: -1, writes: n})
}

func (c *controller) push(r lineRun) {
	if c.count == len(c.queue) {
		c.grow()
	}
	*c.at(c.count) = r
	c.count++
}

// grow doubles the ring, unwrapping it so the oldest run lands at 0.
func (c *controller) grow() {
	q := make([]lineRun, max(64, 2*len(c.queue)))
	n := copy(q, c.queue[c.head:])
	copy(q[n:], c.queue[:c.head])
	c.queue, c.head = q, 0
}

// serve advances one tick: it serves as many queued lines as the budget
// covers, oldest first, and retires each served read at its core.
//
// One line at a time, a tick serves while a line is queued and the budget
// holds a line, subtracting lineBytes per line. That is n = min(lines,
// ⌊budget/lineBytes⌋) lines, and ⌊budget/lineBytes⌋ = ⌊⌊budget⌋/lineBytes⌋
// for an integer lineBytes, which integer division computes exactly.
// Subtracting n·lineBytes at once gives the same bits as n subtractions:
// validate keeps the budget below 2^53, where its ulp is at most 1, so
// every line-by-line difference is a multiple of that ulp no larger than
// the budget, hence exact, and so is their sum. served is an integer
// below 2^53 either way.
func (c *controller) serve(cores []*simCore) {
	c.budget += c.bytesPerTick
	n := min(c.lines, int(c.budget)/c.lineBytes)
	if n > 0 {
		c.budget -= float64(n * c.lineBytes)
		c.lines -= n
		reads := 0
		for left := n; left > 0; {
			r := &c.queue[c.head]
			if r.reads > 0 {
				m := min(left, r.reads)
				r.reads -= m
				left -= m
				reads += m
				cores[r.core].outstanding -= m
				if r.reads > 0 {
					break
				}
				r.core = -1
			}
			m := min(left, r.writes)
			r.writes -= m
			left -= m
			if r.writes == 0 {
				if c.head++; c.head == len(c.queue) {
					c.head = 0
				}
				c.count--
			}
		}
		c.ReadBytes += int64(reads) * int64(c.lineBytes)
		c.WriteBytes += int64(n-reads) * int64(c.lineBytes)
	}
	if c.budget > c.bytesPerTick {
		// Idle capacity does not bank beyond one tick.
		c.budget = c.bytesPerTick
	}
	if c.trackUtil {
		const alpha = 0.02
		c.util = (1-alpha)*c.util + alpha*math.Min(1, float64(n*c.lineBytes)/c.bytesPerTick)
	}
}

type simCore struct {
	id     int32
	domain int
	// off shifts the template core's addresses into this core's region;
	// setOff is off mod the L3 set count, the same shift in L3 sets.
	off    LineAddr
	setOff uint64

	outstanding int
	issueAcc    float64

	cursor int64
	done   bool

	ntResidAcc  float64
	storedBytes int64
	loadedBytes int64
}

// workStream is one array stream of a workload: core 0's base line
// address and whether it is written.
type workStream struct {
	base  LineAddr
	write bool
	nt    bool
}

// regionLines (1 GiB of 64-byte lines) separates the streams of one
// core; core i's streams start i*8*regionLines lines above core 0's, so
// no two cores or streams share a line.
const regionLines = LineAddr(1 << 24)

// traceEntry is the private-hierarchy outcome of one template-core
// access: bit 0 says L1 and L2 both missed (the line comes from memory),
// bit 1 is the auto-claim detector's streaming bit, bit 2 says L2
// evicted a dirty line into L3, and the bits above hold that victim's L3
// set.
type traceEntry uint64

const (
	traceL2Miss traceEntry = 1 << iota
	traceStreaming
	traceVictim
	traceFlagBits = iota
)

func (e traceEntry) victimSet() uint64 { return uint64(e >> traceFlagBits) }

// l3Slice is one domain's shared L3 slice, reduced to what a run can
// observe of it: how many lines each set holds. See buildTrace for why
// that is exact.
type l3Slice struct {
	fill      []uint8 // valid lines per set
	lines     int     // valid lines in all sets
	evictions int64   // inserts that found their set full
}

// insert allocates a dirty line in set and reports whether that evicts a
// dirty line, which it does exactly when the set is full.
func (l *l3Slice) insert(set uint64, ways uint8) bool {
	if l.fill[set] == ways {
		l.evictions++
		return true
	}
	l.fill[set]++
	l.lines++
	return false
}

// System is a multi-core memory-hierarchy simulator.
//
// The private L1/L2 and stream detector are simulated once per run, on a
// template core, and replayed on every active core; the shared L3 is a
// per-set fill counter. See buildTrace for why both are exact.
type System struct {
	cfg    Config
	cores  []*simCore
	l3     []l3Slice
	l3Sets uint64
	l3Ways uint8
	ctrl   []*controller
	ticks  int64
	// capLines is the most lines a controller may hold and still accept
	// an issue: QueueCapBytes/LineBytes, rounded down.
	capLines int
	ff       fastForward

	// l1, l2 and detector are the template core's private hierarchy.
	l1, l2   *Cache
	detector streamDetector
	// streams are the current run's streams at core 0's bases; trace
	// holds one entry per (iteration, stream) of core 0, and dirty is
	// the number of dirty lines its L1 and L2 hold at the end.
	streams []workStream
	trace   []traceEntry
	dirty   int
}

// NewSystem builds a system from a config.
func NewSystem(cfg Config) (*System, error) {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		capLines: int(cfg.QueueCapBytes / int64(cfg.LineBytes)),
		l1:       NewCache(cfg.L1),
		l2:       NewCache(cfg.L2),
		l3Sets:   uint64(cfg.L3.Sets()),
		l3Ways:   uint8(cfg.L3.Ways),
	}
	for d := 0; d < cfg.Domains; d++ {
		s.l3 = append(s.l3, l3Slice{fill: make([]uint8, s.l3Sets)})
		ctl := &controller{bytesPerTick: cfg.DomainGBs * TickSeconds * 1e9, lineBytes: cfg.LineBytes,
			trackUtil: cfg.Policy == PolicySpecI2M}
		ctl.i2m = specI2MState{Threshold: cfg.SpecI2MThreshold, MaxShare: cfg.SpecI2MMaxShare, RampEnd: cfg.SpecI2MRampEnd}
		s.ctrl = append(s.ctrl, ctl)
	}
	for i := 0; i < cfg.Cores; i++ {
		off := LineAddr(i) * 8 * regionLines
		s.cores = append(s.cores, &simCore{id: int32(i), off: off, setOff: uint64(off) % s.l3Sets})
	}
	return s, nil
}

// validate rejects configs a run could not simulate: they would divide by
// zero, overflow the L3 fill counters or never finish.
func (cfg Config) validate() error {
	if cfg.Cores <= 0 || cfg.Cores > math.MaxInt32 || cfg.Domains <= 0 {
		return fmt.Errorf("memsim: bad config: cores=%d domains=%d", cfg.Cores, cfg.Domains)
	}
	for _, l := range []struct {
		name string
		c    CacheConfig
	}{{"L1", cfg.L1}, {"L2", cfg.L2}, {"L3", cfg.L3}} {
		if l.c.Ways <= 0 || l.c.Sets() == 0 {
			return fmt.Errorf("memsim: bad config: %s has %d ways and %d sets", l.name, l.c.Ways, l.c.Sets())
		}
	}
	if cfg.L3.Ways > math.MaxUint8 {
		return fmt.Errorf("memsim: bad config: L3 has %d ways, at most %d supported", cfg.L3.Ways, math.MaxUint8)
	}
	if cfg.MLP <= 0 || !(cfg.CoreGBs > 0) || !(cfg.DomainGBs > 0) || cfg.QueueCapBytes < 0 {
		return fmt.Errorf("memsim: bad config: MLP=%d CoreGBs=%g DomainGBs=%g QueueCapBytes=%d",
			cfg.MLP, cfg.CoreGBs, cfg.DomainGBs, cfg.QueueCapBytes)
	}
	// A controller banks at most two ticks of budget, so a slower one
	// never serves a line, and a faster one than 2^52 bytes per tick
	// would leave the budget's exact integer range (see serve).
	if bpt := cfg.DomainGBs * TickSeconds * 1e9; 2*bpt < float64(cfg.LineBytes) || bpt >= 1<<52 {
		return fmt.Errorf("memsim: bad config: DomainGBs=%g serves less than one %d-byte line per two ticks or more than 2^52 bytes per tick", cfg.DomainGBs, cfg.LineBytes)
	}
	// A NaN share would silently never convert; a residual share above 1
	// would grow ntResidAcc without bound at one RFO per store.
	if !(cfg.NTResidualRFO >= 0 && cfg.NTResidualRFO <= 1) {
		return fmt.Errorf("memsim: bad config: NTResidualRFO=%g outside [0, 1]", cfg.NTResidualRFO)
	}
	if !(cfg.SpecI2MThreshold >= 0 && cfg.SpecI2MMaxShare >= 0 && cfg.SpecI2MRampEnd >= 0) {
		return fmt.Errorf("memsim: bad config: SpecI2M threshold=%g max share=%g ramp end=%g must be non-negative numbers",
			cfg.SpecI2MThreshold, cfg.SpecI2MMaxShare, cfg.SpecI2MRampEnd)
	}
	return nil
}

// domainOf maps the i-th *active* core to its NUMA domain.
func (s *System) domainOf(activeIdx int) int {
	if s.cfg.Placement == PlacementCompact {
		per := (s.cfg.Cores + s.cfg.Domains - 1) / s.cfg.Domains
		return (activeIdx / per) % s.cfg.Domains
	}
	return activeIdx % s.cfg.Domains
}

// TrafficResult summarises one workload run.
type TrafficResult struct {
	MemReadBytes, MemWriteBytes int64
	StoredBytes, LoadedBytes    int64
	Ticks                       int64
	ActiveCores                 int
}

// WARatio is the paper's Fig. 4 metric: actual memory traffic divided by
// the stored data volume (1.0 = perfect WA evasion, 2.0 = full WA).
func (r TrafficResult) WARatio() float64 {
	if r.StoredBytes == 0 {
		return 0
	}
	return float64(r.MemReadBytes+r.MemWriteBytes) / float64(r.StoredBytes)
}

// TrafficGBs is the achieved memory-interface bandwidth.
func (r TrafficResult) TrafficGBs() float64 {
	t := float64(r.Ticks) * TickSeconds
	if t <= 0 {
		return 0
	}
	return float64(r.MemReadBytes+r.MemWriteBytes) / t / 1e9
}

// UsefulGBs is the application-visible bandwidth (loaded+stored bytes per
// second), the STREAM convention.
func (r TrafficResult) UsefulGBs() float64 {
	t := float64(r.Ticks) * TickSeconds
	if t <= 0 {
		return 0
	}
	return float64(r.LoadedBytes+r.StoredBytes) / t / 1e9
}

// RunStoreStream runs the paper's store-only (array initialization)
// benchmark on `active` cores, each writing linesPerCore sequential cache
// lines, with standard (nt=false) or non-temporal (nt=true) stores.
func (s *System) RunStoreStream(active, linesPerCore int, nt bool) (TrafficResult, error) {
	streams := []workStream{{base: 0, write: true, nt: nt}}
	return s.run(active, linesPerCore, streams)
}

// RunTriad runs a STREAM-triad-shaped workload (two load streams, one
// store stream) of linesPerCore lines per stream per core.
func (s *System) RunTriad(active, linesPerCore int, ntStores bool) (TrafficResult, error) {
	streams := []workStream{
		{base: regionLines, write: false},
		{base: 2 * regionLines, write: false},
		{base: 0, write: true, nt: ntStores},
	}
	return s.run(active, linesPerCore, streams)
}

func (s *System) run(active, linesPerCore int, streams []workStream) (TrafficResult, error) {
	if active <= 0 || active > s.cfg.Cores {
		return TrafficResult{}, fmt.Errorf("memsim: %s: active cores %d out of range 1..%d", s.cfg.Key, active, s.cfg.Cores)
	}
	if linesPerCore <= 0 || linesPerCore > int(regionLines) {
		return TrafficResult{}, fmt.Errorf("memsim: linesPerCore %d out of range 1..%d", linesPerCore, regionLines)
	}
	s.reset()
	s.streams = append(s.streams[:0], streams...)
	s.buildTrace(linesPerCore)
	act := s.cores[:active]
	for i, c := range act {
		c.domain = s.domainOf(i)
		c.done = false
	}

	// Issue rate: CoreGBs of *stored* bytes per second translates into
	// iterations/tick; each iteration touches len(streams) lines.
	linesPerTickStored := s.cfg.CoreGBs * TickSeconds * 1e9 / float64(s.cfg.LineBytes)
	s.ff.start(linesPerTickStored)

	const maxTicks = int64(200_000_000)
	running := active // cores not done
	flushed := false
	for tick := int64(0); ; tick++ {
		if running == active && s.ff.period > 0 && tick%s.ff.period == 0 {
			tick += s.fastForward(act, linesPerCore)
		}
		if tick > maxTicks {
			return TrafficResult{}, fmt.Errorf("memsim: %s: run did not converge within %d ticks", s.cfg.Key, maxTicks)
		}
		allDone := running == 0
		for _, c := range act {
			if c.done {
				continue
			}
			c.issueAcc += linesPerTickStored
			for c.issueAcc >= 1 {
				if c.outstanding >= s.cfg.MLP || s.ctrl[c.domain].lines > s.capLines {
					break
				}
				s.issueIteration(c, active)
				c.issueAcc--
				if c.cursor >= int64(linesPerCore) {
					c.done = true
					running--
					break
				}
			}
		}
		if allDone && !flushed {
			// Trailing writebacks: dirty lines still in the caches
			// drain through the controllers like any other traffic.
			// Flush requests carry no address, so each core enqueues
			// the template's dirty count, and each L3 slice its count
			// of (all dirty) lines.
			for _, c := range act {
				s.ctrl[c.domain].enqueueWrites(s.dirty)
			}
			for d, l3 := range s.l3 {
				s.ctrl[d].enqueueWrites(l3.lines)
			}
			flushed = true
		}
		empty := true
		for _, ctl := range s.ctrl {
			ctl.serve(s.cores)
			empty = empty && ctl.lines == 0
		}
		if flushed && empty {
			s.ticks = tick
			break
		}
	}

	var res TrafficResult
	for _, ctl := range s.ctrl {
		res.MemReadBytes += ctl.ReadBytes
		res.MemWriteBytes += ctl.WriteBytes
	}
	for _, c := range act {
		res.StoredBytes += c.storedBytes
		res.LoadedBytes += c.loadedBytes
	}
	res.ActiveCores = active
	res.Ticks = s.ticks
	return res, nil
}

// SteppedTicks returns how many of the last run's Ticks were simulated
// one by one; the rest were fast-forwarded (see fastForward).
func (s *System) SteppedTicks() int64 { return s.ticks - s.ff.skipped }

// buildTrace runs the template core (core 0) through linesPerCore
// iterations of the run's streams on a fresh private L1/L2 and detector,
// recording each access's outcome in s.trace and the dirty lines left
// over in s.dirty. issueIteration replays the trace on every active
// core, shifted to that core's region. This is exact because:
//
//   - A core's private L1/L2 and detector see only its own accesses, in
//     the order fixed by its cursor. Issue gating delays accesses but
//     never reorders them, and L3 outcomes never change private state:
//     an L2 hit, an L3 hit and a miss all make the same private insert.
//   - All active cores run the same streams, shifted by off. A
//     set-associative LRU cache treats shifted addresses alike: two
//     addresses share a set (and a tag) before the shift exactly when
//     they do after it, so core i's outcome is core 0's plus its off.
//   - Private operations touch no shared state, so running them ahead
//     of time keeps the order of the shared operations.
//
// The shared L3 reduces to a fill count per set, because no L3 lookup
// can hit. run rejects linesPerCore > regionLines and core regions are
// 8·regionLines apart, so every (core, stream, cursor) address is
// touched exactly once per run. L1 allocates only on an access, L2 holds
// only L1 victims and L3 only L2 victims, so every L3 line is a line its
// core touched before; a later access to it would be a second touch.
// Hence:
//
//   - An L3 lookup always misses, and a miss changes only a statistic,
//     so no lookup is made.
//   - Every L3 insert is dirty, and no hit ever refreshes LRU or dirty
//     state, so every valid L3 line is dirty.
//   - An insert therefore evicts a dirty line exactly when its set is
//     full; that eviction is the writeback enqueue.
//   - The trailing flush writes back every valid L3 line.
//   - Writeback requests carry no address, so which line is evicted
//     never matters.
//
// The trace thus records only the victim's L3 set, and a core's victim
// set is the template's plus its setOff, mod the set count.
func (s *System) buildTrace(linesPerCore int) {
	s.l1.reset()
	s.l2.reset()
	s.detector = streamDetector{TrainLen: s.cfg.DetectorTrainLen}
	s.trace = s.trace[:0]
	for cursor := range LineAddr(linesPerCore) {
		for _, st := range s.streams {
			var e traceEntry
			if !st.nt {
				var victim LineAddr
				e, victim = s.privateAccess(st.base+cursor, st.write)
				if e&traceVictim != 0 {
					e |= traceEntry(uint64(victim)%s.l3Sets) << traceFlagBits
				}
			}
			s.trace = append(s.trace, e)
		}
	}
	s.dirty = 0
	count := func(LineAddr) { s.dirty++ }
	s.l1.FlushDirty(count)
	s.l2.FlushDirty(count)
}

// privateAccess performs one cached access on the template core's
// private hierarchy. It returns the access's trace flags and, when they
// include traceVictim, the dirty L2 victim bound for L3.
func (s *System) privateAccess(a LineAddr, write bool) (traceEntry, LineAddr) {
	var e traceEntry
	if write && s.cfg.Policy == PolicyAutoClaim && s.detector.Observe(a) {
		e |= traceStreaming
	}
	if s.l1.Lookup(a, write) {
		return e, 0
	}
	if !s.l2.Lookup(a, write) {
		e |= traceL2Miss
	}
	// L1 allocates the line, cascading dirty victims down the hierarchy.
	victim, evicted, dirty := s.l1.Insert(a, write)
	if !evicted || !dirty {
		return e, 0
	}
	if v2, e2, d2 := s.l2.Insert(victim, true); e2 && d2 {
		return e | traceVictim, v2
	}
	return e, 0
}

// issueIteration performs one iteration (one line per stream) for a
// core: the private outcome comes from the trace, and only the shared
// operations — L3 fills, policy checks and controller requests — run
// here.
func (s *System) issueIteration(c *simCore, active int) {
	lb := int64(s.cfg.LineBytes)
	trace := s.trace[int(c.cursor)*len(s.streams):]
	for j, st := range s.streams {
		if st.nt {
			s.ntStore(c, active)
			c.storedBytes += lb
			continue
		}
		if st.write {
			c.storedBytes += lb
		} else {
			c.loadedBytes += lb
		}
		e := trace[j]
		if e&traceL2Miss != 0 {
			ctl := s.ctrl[c.domain]
			needRead := true
			if st.write {
				switch s.cfg.Policy {
				case PolicyAutoClaim:
					needRead = e&traceStreaming == 0
				case PolicySpecI2M:
					needRead = !ctl.i2m.Convert(ctl.util)
				}
			}
			if needRead {
				ctl.enqueueRead(c.id)
				c.outstanding++
			}
		}
		if e&traceVictim != 0 {
			set := e.victimSet() + c.setOff
			if set >= s.l3Sets {
				set -= s.l3Sets
			}
			if s.l3[c.domain].insert(set, s.l3Ways) {
				s.ctrl[c.domain].enqueueWrites(1)
			}
		}
	}
	c.cursor++
}

// ntStore handles a non-temporal full-line store through write-combining
// buffers: the line bypasses the cache hierarchy entirely.
func (s *System) ntStore(c *simCore, active int) {
	ctl := s.ctrl[c.domain]
	ctl.enqueueWrites(1)
	if s.cfg.NTResidualRFO > 0 && active > s.cfg.NTResidualMinCores {
		c.ntResidAcc += s.cfg.NTResidualRFO
		if c.ntResidAcc >= 1 {
			c.ntResidAcc--
			ctl.enqueueRead(c.id)
			c.outstanding++
		}
	}
}

// reset clears all shared and per-core state for a fresh run in place:
// L3 fill counts are zeroed and controller rings keep their backing
// arrays, so nothing is reallocated. buildTrace resets the template core.
func (s *System) reset() {
	for _, c := range s.cores {
		c.outstanding = 0
		c.issueAcc = 0
		c.cursor = 0
		c.done = true
		c.ntResidAcc = 0
		c.storedBytes = 0
		c.loadedBytes = 0
	}
	for d := range s.l3 {
		clear(s.l3[d].fill)
		s.l3[d].lines = 0
		s.l3[d].evictions = 0
		s.ctrl[d].reset()
	}
	s.ticks = 0
}
