package memsim

import "testing"

// ffState sets up a mid-run state on eight SPR cores over four domains:
// distinct accumulators, queued runs that two cores could trade places
// in, and budgets, utilisation and I2M accumulators off their initial
// values. It snapshots the state and advances every cursor by delta, as
// one repeating window would.
func ffState(t *testing.T, delta int64) (*System, []*simCore) {
	t.Helper()
	s := sys(t, "goldencove")
	s.streams = []workStream{{base: 0, write: true}}
	s.buildTrace(1024)
	act := s.cores[:8]
	for i, c := range act {
		c.domain = s.domainOf(i)
		c.cursor = 100 + int64(i)
		c.issueAcc = 0.25 * float64(i%4)
		c.ntResidAcc = 0.1 * float64(i)
	}
	for d, ctl := range s.ctrl {
		ctl.budget, ctl.util, ctl.i2m.acc = 100+float64(d), 0.5, 0.125
	}
	// Domain 0 holds a read of core 0 and one of core 4, then a write.
	for _, id := range []int32{0, 4} {
		s.ctrl[0].enqueueRead(id)
		s.cores[id].outstanding++
	}
	s.ctrl[0].enqueueWrites(1)
	s.snapshot(act)
	for _, c := range act {
		c.cursor += delta
	}
	return s, act
}

// TestFastForwardMatches requires the state comparison to see every part
// of the state that decides a tick: a change to any one of them must
// break the match, while cursors that all advanced by the same δ and an
// eviction in a full L3 slice keep it.
func TestFastForwardMatches(t *testing.T) {
	const delta = 5
	s, act := ffState(t, delta)
	if d, ok := s.matches(act); !ok || d != delta {
		t.Fatalf("unchanged state: matches = %d, %v; want %d, true", d, ok, delta)
	}
	l3 := &s.l3[1]
	for i := range l3.fill {
		l3.fill[i] = s.l3Ways
	}
	l3.lines = len(l3.fill) * int(s.l3Ways)
	s.snapshot(act)
	for _, c := range act {
		c.cursor += delta
	}
	l3.evictions++
	if _, ok := s.matches(act); !ok {
		t.Error("an eviction in a full L3 slice broke the match")
	}

	for _, tc := range []struct {
		name string
		edit func(s *System, act []*simCore)
	}{
		{"cursor of one core", func(s *System, act []*simCore) { act[3].cursor++ }},
		{"every cursor back to the snapshot", func(s *System, act []*simCore) {
			for _, c := range act {
				c.cursor -= delta
			}
		}},
		{"outstanding", func(s *System, act []*simCore) { act[5].outstanding++ }},
		{"issueAcc", func(s *System, act []*simCore) { act[2].issueAcc += 1.0 / 64 }},
		{"ntResidAcc", func(s *System, act []*simCore) { act[7].ntResidAcc += 0.1 }},
		{"budget", func(s *System, act []*simCore) { s.ctrl[2].budget-- }},
		{"util", func(s *System, act []*simCore) { s.ctrl[3].util += 0x1p-52 }},
		{"I2M accumulator", func(s *System, act []*simCore) { s.ctrl[1].i2m.acc += 0.25 }},
		{"queued line", func(s *System, act []*simCore) { s.ctrl[1].enqueueWrites(1) }},
		{"order of queued reads", func(s *System, act []*simCore) {
			q := s.ctrl[0].queue
			q[0].core, q[1].core = q[1].core, q[0].core
		}},
		{"eviction in an L3 slice with room", func(s *System, act []*simCore) { s.l3[2].evictions++ }},
	} {
		s, act := ffState(t, delta)
		tc.edit(s, act)
		if _, ok := s.matches(act); ok {
			t.Errorf("%s changed, yet the state still matches its snapshot", tc.name)
		}
	}
}

// TestFastForwardStopsBeforeEnd places the last cursor exactly k·δ lines
// before the end of the working set: the jump must stop one window short,
// since the core finishes inside the k-th window.
func TestFastForwardStopsBeforeEnd(t *testing.T) {
	const delta, lines = 5, 1024
	s, act := ffState(t, delta)
	for i, c := range act {
		c.cursor = lines - 10*delta - int64(i)
	}
	if k := s.repeats(act, lines, delta); k != 9 {
		t.Errorf("repeats = %d windows, want 9 (the 10th reaches the end)", k)
	}
}

// TestFastForwardStopsAtTraceChange changes the trace flags at one cursor
// ahead of the cores: the jump must end where the first core would read
// it, since the flags no longer repeat with δ from there on.
func TestFastForwardStopsAtTraceChange(t *testing.T) {
	const delta, lines, change = 5, 1024, 300
	s, act := ffState(t, delta)
	for i, c := range act {
		c.cursor = 200 - int64(i)
	}
	s.trace[change*len(s.streams)] ^= traceStreaming
	if k := s.repeats(act, lines, delta); k != (change-200)/delta {
		t.Errorf("repeats = %d windows, want %d (cursor 200 reaches the change after that)", k, (change-200)/delta)
	}
}
