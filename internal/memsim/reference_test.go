package memsim

import (
	"fmt"
	"math"
	"testing"
)

// refRequest is one line queued at a refController: the id of the core
// that reads it, or refWrite for a writeback or a non-temporal store.
type refRequest int32

const refWrite refRequest = -1

// refController is the memory controller as it was before runs of lines:
// a FIFO ring with one entry per line, served one line at a time.
type refController struct {
	bytesPerTick float64
	lineBytes    int
	budget       float64
	queue        []refRequest
	head, count  int
	queuedBytes  int64
	util         float64
	trackUtil    bool
	i2m          specI2MState

	ReadBytes, WriteBytes int64
}

func (c *refController) enqueue(r refRequest) {
	if c.count == len(c.queue) {
		q := make([]refRequest, max(64, 2*len(c.queue)))
		n := copy(q, c.queue[c.head:])
		copy(q[n:], c.queue[:c.head])
		c.queue, c.head = q, 0
	}
	i := c.head + c.count
	if i >= len(c.queue) {
		i -= len(c.queue)
	}
	c.queue[i] = r
	c.count++
	c.queuedBytes += int64(c.lineBytes)
}

// serve advances one tick, counting each core's served reads in completed.
func (c *refController) serve(completed []int) {
	c.budget += c.bytesPerTick
	served := 0.0
	for c.count > 0 && c.budget >= float64(c.lineBytes) {
		r := c.queue[c.head]
		if c.head++; c.head == len(c.queue) {
			c.head = 0
		}
		c.count--
		c.queuedBytes -= int64(c.lineBytes)
		c.budget -= float64(c.lineBytes)
		served += float64(c.lineBytes)
		if r != refWrite {
			c.ReadBytes += int64(c.lineBytes)
			completed[r]++
		} else {
			c.WriteBytes += int64(c.lineBytes)
		}
	}
	if c.budget > c.bytesPerTick {
		c.budget = c.bytesPerTick
	}
	if c.trackUtil {
		const alpha = 0.02
		c.util = (1-alpha)*c.util + alpha*math.Min(1, served/c.bytesPerTick)
	}
}

// referenceRun is System.run as it was before runs of lines and
// fast-forward: every tick is stepped, every line is its own request, and
// served reads reach their cores through a per-tick scan. It takes the
// config, cores, L3 slices and trace from s, and its own controllers.
func referenceRun(s *System, active, linesPerCore int, streams []workStream) (TrafficResult, error) {
	if active <= 0 || active > s.cfg.Cores || linesPerCore <= 0 || linesPerCore > int(regionLines) {
		return TrafficResult{}, fmt.Errorf("reference: bad run %d cores × %d lines", active, linesPerCore)
	}
	s.reset()
	s.streams = append(s.streams[:0], streams...)
	s.buildTrace(linesPerCore)
	ctrl := make([]*refController, s.cfg.Domains)
	for d := range ctrl {
		ctrl[d] = &refController{bytesPerTick: s.cfg.DomainGBs * TickSeconds * 1e9, lineBytes: s.cfg.LineBytes,
			trackUtil: s.cfg.Policy == PolicySpecI2M}
		ctrl[d].i2m = specI2MState{Threshold: s.cfg.SpecI2MThreshold, MaxShare: s.cfg.SpecI2MMaxShare, RampEnd: s.cfg.SpecI2MRampEnd}
	}
	act := s.cores[:active]
	for i, c := range act {
		c.domain = s.domainOf(i)
		c.done = false
	}
	lb := int64(s.cfg.LineBytes)
	issue := func(c *simCore) {
		trace := s.trace[int(c.cursor)*len(s.streams):]
		for j, st := range s.streams {
			ctl := ctrl[c.domain]
			if st.nt {
				ctl.enqueue(refWrite)
				if s.cfg.NTResidualRFO > 0 && active > s.cfg.NTResidualMinCores {
					c.ntResidAcc += s.cfg.NTResidualRFO
					if c.ntResidAcc >= 1 {
						c.ntResidAcc--
						ctl.enqueue(refRequest(c.id))
						c.outstanding++
					}
				}
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
					ctl.enqueue(refRequest(c.id))
					c.outstanding++
				}
			}
			if e&traceVictim != 0 {
				set := (e.victimSet() + c.setOff) % s.l3Sets
				if s.l3[c.domain].insert(set, s.l3Ways) {
					ctl.enqueue(refWrite)
				}
			}
		}
		c.cursor++
	}

	linesPerTickStored := s.cfg.CoreGBs * TickSeconds * 1e9 / float64(s.cfg.LineBytes)
	completed := make([]int, s.cfg.Cores)
	var ticks int64
	flushed := false
	for tick := int64(0); ; tick++ {
		if tick > 200_000_000 {
			return TrafficResult{}, fmt.Errorf("reference: %s did not converge", s.cfg.Key)
		}
		allDone := true
		for _, c := range act {
			if c.done {
				continue
			}
			allDone = false
			c.issueAcc += linesPerTickStored
			for c.issueAcc >= 1 && !c.done {
				if c.outstanding >= s.cfg.MLP || ctrl[c.domain].queuedBytes > s.cfg.QueueCapBytes {
					break
				}
				issue(c)
				c.issueAcc--
				if c.cursor >= int64(linesPerCore) {
					c.done = true
				}
			}
		}
		if allDone && !flushed {
			for _, c := range act {
				for range s.dirty {
					ctrl[c.domain].enqueue(refWrite)
				}
			}
			for d, l3 := range s.l3 {
				for range l3.lines {
					ctrl[d].enqueue(refWrite)
				}
			}
			flushed = true
		}
		for _, ctl := range ctrl {
			ctl.serve(completed)
		}
		for i, c := range act {
			c.outstanding -= completed[i]
			completed[i] = 0
		}
		if allDone && flushed {
			empty := true
			for _, ctl := range ctrl {
				empty = empty && ctl.count == 0
			}
			if empty {
				ticks = tick
				break
			}
		}
	}
	res := TrafficResult{ActiveCores: active, Ticks: ticks}
	for _, ctl := range ctrl {
		res.MemReadBytes += ctl.ReadBytes
		res.MemWriteBytes += ctl.WriteBytes
	}
	for _, c := range act {
		res.StoredBytes += c.storedBytes
		res.LoadedBytes += c.loadedBytes
	}
	return res, nil
}

// refWorkloads are the stream shapes of the store and triad runs, with
// standard and with non-temporal stores.
var refWorkloads = []struct {
	name    string
	streams []workStream
}{
	{"store", []workStream{{base: 0, write: true}}},
	{"nt-store", []workStream{{base: 0, write: true, nt: true}}},
	{"triad", []workStream{{base: regionLines}, {base: 2 * regionLines}, {base: 0, write: true}}},
	{"nt-triad", []workStream{{base: regionLines}, {base: 2 * regionLines}, {base: 0, write: true, nt: true}}},
}

// checkAgainstReference runs every workload at every count on one reused
// System and on the reference, requires bit-identical results, and
// returns the summed Ticks and SteppedTicks.
func checkAgainstReference(t *testing.T, cfg Config, counts []int, lines int) (ticks, stepped int64) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range refWorkloads {
		for _, n := range counts {
			got, err := s.run(n, lines, w.streams)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceRun(ref, n, lines, w.streams)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s/%s at %d cores: %+v, reference %+v", cfg.Key, w.name, n, got, want)
			}
			ticks += got.Ticks
			stepped += s.SteppedTicks()
		}
	}
	return ticks, stepped
}

// TestReferenceNodeConfigs compares System.run with the reference on the
// paper's three configs over their Fig. 4 core counts at a reduced
// working set, and requires the fast-forward to have skipped ticks.
func TestReferenceNodeConfigs(t *testing.T) {
	for _, key := range []string{"neoversev2", "goldencove", "zen4"} {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			cfg := MustConfigFor(key)
			ticks, stepped := checkAgainstReference(t, cfg, DefaultCounts(cfg.Cores), 3072)
			if stepped >= ticks {
				t.Errorf("%s: stepped %d of %d ticks; the fast-forward never engaged", key, stepped, ticks)
			}
			t.Logf("%s: stepped %d of %d ticks", key, stepped, ticks)
		})
	}
}

// TestReferenceOddConfigs compares System.run with the reference on
// configs the goldens do not cover: L1 set counts that do not divide the
// core offsets, compact placement over four domains, a single
// outstanding read, no queue headroom, a core rate whose lines per tick
// have no small power-of-two denominator (so no period exists), a line
// size that is not a power of two, an early SpecI2M threshold and a large
// residual-RFO share.
func TestReferenceOddConfigs(t *testing.T) {
	cases := []struct {
		name, key string
		edit      func(c *Config)
		// periodic says whether a fast-forward period exists.
		periodic bool
	}{
		{"3-set L1", "neoversev2", func(c *Config) { c.L1 = CacheConfig{SizeBytes: 3 * 8 * 64, Ways: 8, LineBytes: 64} }, true},
		{"compact over 4 domains", "goldencove", func(c *Config) { c.Placement = PlacementCompact }, true},
		{"MLP 1", "zen4", func(c *Config) { c.MLP = 1 }, true},
		{"no queue headroom", "goldencove", func(c *Config) { c.QueueCapBytes = 0 }, true},
		{"non-dyadic core rate", "zen4", func(c *Config) { c.CoreGBs = 16.0 / 3 }, false},
		{"48-byte line", "neoversev2", func(c *Config) {
			c.LineBytes = 48
			c.L1.LineBytes, c.L2.LineBytes, c.L3.LineBytes = 48, 48, 48
			c.CoreGBs = 6 // 1.25 lines per tick, as at 64 bytes
		}, true},
		{"SpecI2M threshold 0.4", "goldencove", func(c *Config) { c.SpecI2MThreshold = 0.4 }, true},
		{"residual RFO share 0.3", "goldencove", func(c *Config) { c.NTResidualRFO = 0.3 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := MustConfigFor(tc.key)
			cfg.Key = tc.name
			tc.edit(&cfg)
			counts := []int{1, 3, cfg.Cores / 4, cfg.Cores / 2, cfg.Cores}
			ticks, stepped := checkAgainstReference(t, cfg, counts, 1536)
			if !tc.periodic && stepped != ticks {
				t.Errorf("stepped %d of %d ticks without a period", stepped, ticks)
			}
			t.Logf("stepped %d of %d ticks", stepped, ticks)
		})
	}
}
