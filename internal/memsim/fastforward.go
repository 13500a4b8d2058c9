package memsim

import "math"

// maxWindow bounds the fast-forward window in ticks: a run whose lines
// per tick need a larger power-of-two denominator is stepped tick by
// tick, and a state that does not repeat within maxWindow ticks of a
// snapshot is snapshotted afresh.
const maxWindow = 256

// ffCore is one core's part of a fast-forward snapshot.
type ffCore struct {
	outstanding          int
	issueAcc, ntResidAcc float64
	cursor               int64
	stored, loaded       int64
}

// ffCtrl is one controller's and its L3 slice's part of a snapshot.
type ffCtrl struct {
	budget, util, i2mAcc float64
	runs                 int
	read, write          int64
	// full says every set of the slice was full; evictions is the
	// slice's eviction count.
	full      bool
	evictions int64
}

// fastForward detects that a run's state repeats and skips whole
// windows of it. Every period ticks, run calls System.fastForward at a
// tick boundary, which compares the state with a snapshot taken window
// ticks earlier, a multiple of period.
type fastForward struct {
	// period is the smallest power of two P with P·linesPerTick an
	// integer, or 0 when there is none up to maxWindow: issueAcc can
	// repeat only after a multiple of P ticks.
	period int64
	// window is the age of the snapshot in ticks, or -1 if there is none.
	window int64
	ctrls  []ffCtrl
	cores  []ffCore
	queue  []lineRun
	// undo lists the L3 fills of the window being applied, as
	// domain·sets + set.
	undo []uint64
	// skipped counts the ticks of the run that were jumped over.
	skipped int64
}

// start prepares a run issuing linesPerTick iterations per core per tick.
func (f *fastForward) start(linesPerTick float64) {
	f.period = 0
	for p := int64(1); p <= maxWindow; p *= 2 {
		if x := linesPerTick * float64(p); x == math.Trunc(x) {
			f.period = p
			break
		}
	}
	f.window, f.skipped = -1, 0
}

// fastForward runs at a period boundary while every active core is still
// issuing. When the state equals the snapshot, it advances the run by as
// many whole windows k as provably repeat the last one and returns the
// k·window ticks skipped. It snapshots the state afresh after a match
// and when the snapshot is maxWindow ticks old.
//
// The state that decides a tick is, per core, outstanding, issueAcc,
// ntResidAcc and the cursor; per controller, budget, util, the I2M
// accumulator and the queued runs; per L3 slice, the fill of each set;
// and the trace entries the cursors read. Everything else a run changes
// (byte counters, Ticks) is only summed into the result. If the state
// at boundary t+W equals the one at t — cursors all advanced by the same
// δ, so the cursors relative to core 0 are equal — the next W ticks
// repeat the last W exactly, provided that:
//
//   - no core finishes: its cursor stays below linesPerCore, so it
//     keeps issuing;
//   - the trace flags it reads repeat: the entry at cursor x has the
//     flags of the entry at x−δ, so every policy decision and read is
//     the same;
//   - every L3 insert has the same outcome. If all sets of a slice were
//     full at t, every insert evicts now as then and the fills do not
//     change. Otherwise the slice evicted nothing since t, and none of
//     the new inserts may find its set full. Since fills only grow, that
//     holds when no set exceeds its ways after all of them are applied.
//     The victim sets differ from the last window's, so the inserts are
//     applied to the fills one by one.
//
// Then the state at t+2W equals the one at t+W, and by induction k
// windows repeat while the three conditions hold. Skipping them adds k
// times one window's delta to each cursor and byte counter and k·W to
// the tick; all other state is as at t+W. The tick guard of run counts
// the skipped ticks, as if they had been stepped.
func (s *System) fastForward(act []*simCore, linesPerCore int) (skip int64) {
	f := &s.ff
	if f.window >= 0 {
		f.window += f.period
		if delta, ok := s.matches(act); ok {
			if k := s.repeats(act, linesPerCore, delta); k > 0 {
				skip = k * f.window
				s.skip(act, k)
			}
		} else if f.window < maxWindow {
			return 0
		}
	}
	s.snapshot(act)
	return skip
}

// matches reports whether the state equals the snapshot, with every
// cursor advanced by the same δ > 0, and returns δ.
func (s *System) matches(act []*simCore) (delta int64, ok bool) {
	f := &s.ff
	for d, ctl := range s.ctrl {
		p := &f.ctrls[d]
		if p.budget != ctl.budget || p.util != ctl.util || p.i2mAcc != ctl.i2m.acc ||
			p.runs != ctl.count || !p.full && s.l3[d].evictions != p.evictions {
			return 0, false
		}
	}
	delta = act[0].cursor - f.cores[0].cursor
	if delta <= 0 {
		return 0, false
	}
	for i, c := range act {
		p := &f.cores[i]
		if c.cursor-p.cursor != delta || c.outstanding != p.outstanding ||
			c.issueAcc != p.issueAcc || c.ntResidAcc != p.ntResidAcc {
			return 0, false
		}
	}
	q := f.queue
	for _, ctl := range s.ctrl {
		for i := range ctl.count {
			if *ctl.at(i) != q[i] {
				return 0, false
			}
		}
		q = q[ctl.count:]
	}
	return delta, true
}

// repeats returns how many windows of δ cursors per core from now
// provably repeat the last one (see fastForward), after applying their
// L3 fills.
func (s *System) repeats(act []*simCore, linesPerCore int, delta int64) int64 {
	lo, hi := act[0].cursor, act[0].cursor
	for _, c := range act {
		lo, hi = min(lo, c.cursor), max(hi, c.cursor)
	}
	// Cursors stay below linesPerCore: hi + k·δ < linesPerCore.
	k := (int64(linesPerCore) - 1 - hi) / delta
	// Trace flags repeat with δ up to the first mismatch at or after lo.
	n := int64(len(s.streams))
	const flags = 1<<traceFlagBits - 1
	x, end, back := lo*n, (hi+k*delta)*n, delta*n
	for x < end && (s.trace[x]^s.trace[x-back])&flags == 0 {
		x++
	}
	if k = min(k, (x/n-hi)/delta); k <= 0 {
		return 0
	}
	return s.fillL3(act, delta, k)
}

// fillL3 applies the L3 inserts of the next k windows of δ cursors per
// core, window by window, and returns the number of windows applied: it
// stops before the first window in which an insert would find a full set
// of a slice that was not entirely full (see fastForward).
func (s *System) fillL3(act []*simCore, delta, k int64) int64 {
	f := &s.ff
	n := int64(len(s.streams))
	for p := range k {
		f.undo = f.undo[:0]
		for _, c := range act {
			if f.ctrls[c.domain].full {
				continue
			}
			l3 := &s.l3[c.domain]
			from := (c.cursor + p*delta) * n
			for _, e := range s.trace[from : from+delta*n] {
				if e&traceVictim == 0 {
					continue
				}
				set := e.victimSet() + c.setOff
				if set >= s.l3Sets {
					set -= s.l3Sets
				}
				if l3.fill[set] == s.l3Ways {
					s.unfill()
					return p
				}
				l3.fill[set]++
				l3.lines++
				f.undo = append(f.undo, uint64(c.domain)*s.l3Sets+set)
			}
		}
	}
	return k
}

// unfill takes back the L3 fills listed in undo.
func (s *System) unfill() {
	for _, i := range s.ff.undo {
		l3 := &s.l3[i/s.l3Sets]
		l3.fill[i%s.l3Sets]--
		l3.lines--
	}
}

// skip advances cursors, byte counters and the skipped-tick count by k
// windows, each the difference between now and the snapshot.
func (s *System) skip(act []*simCore, k int64) {
	f := &s.ff
	for i, c := range act {
		p := &f.cores[i]
		c.cursor += k * (c.cursor - p.cursor)
		c.storedBytes += k * (c.storedBytes - p.stored)
		c.loadedBytes += k * (c.loadedBytes - p.loaded)
	}
	for d, ctl := range s.ctrl {
		p := &f.ctrls[d]
		ctl.ReadBytes += k * (ctl.ReadBytes - p.read)
		ctl.WriteBytes += k * (ctl.WriteBytes - p.write)
	}
	f.skipped += k * f.window
}

// snapshot records the state, with the byte counters, cursors and L3
// phase to measure a window against.
func (s *System) snapshot(act []*simCore) {
	f := &s.ff
	f.ctrls = f.ctrls[:0]
	for d, ctl := range s.ctrl {
		l3 := &s.l3[d]
		f.ctrls = append(f.ctrls, ffCtrl{
			budget: ctl.budget, util: ctl.util, i2mAcc: ctl.i2m.acc, runs: ctl.count,
			read: ctl.ReadBytes, write: ctl.WriteBytes,
			full: l3.lines == len(l3.fill)*int(s.l3Ways), evictions: l3.evictions,
		})
	}
	f.window = 0
	f.cores = f.cores[:0]
	for _, c := range act {
		f.cores = append(f.cores, ffCore{
			outstanding: c.outstanding, issueAcc: c.issueAcc, ntResidAcc: c.ntResidAcc,
			cursor: c.cursor, stored: c.storedBytes, loaded: c.loadedBytes,
		})
	}
	f.queue = f.queue[:0]
	for _, ctl := range s.ctrl {
		for i := range ctl.count {
			f.queue = append(f.queue, *ctl.at(i))
		}
	}
}
