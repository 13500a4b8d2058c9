package memsim

import (
	"testing"
	"testing/quick"
)

func testCache() *Cache {
	return NewCache(CacheConfig{SizeBytes: 4096, Ways: 4, LineBytes: 64})
}

func TestCacheConfigSets(t *testing.T) {
	cfg := CacheConfig{SizeBytes: 4096, Ways: 4, LineBytes: 64}
	if cfg.Sets() != 16 {
		t.Errorf("Sets = %d, want 16", cfg.Sets())
	}
	if (CacheConfig{}).Sets() != 0 {
		t.Error("zero config must have no sets")
	}
	tiny := CacheConfig{SizeBytes: 64, Ways: 4, LineBytes: 64}
	if tiny.Sets() != 1 {
		t.Errorf("tiny cache must clamp to 1 set, got %d", tiny.Sets())
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := testCache()
	if c.Lookup(100, false) {
		t.Error("cold cache must miss")
	}
	c.Insert(100, false)
	if !c.Lookup(100, false) {
		t.Error("inserted line must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheWriteMarksDirty(t *testing.T) {
	c := testCache()
	c.Insert(5, false)
	c.Lookup(5, true) // write hit -> dirty
	var flushed []LineAddr
	c.FlushDirty(func(a LineAddr) { flushed = append(flushed, a) })
	if len(flushed) != 1 || flushed[0] != 5 {
		t.Errorf("flushed = %v", flushed)
	}
	// Second flush: clean.
	flushed = nil
	c.FlushDirty(func(a LineAddr) { flushed = append(flushed, a) })
	if len(flushed) != 0 {
		t.Error("flush must clean lines")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := testCache() // 16 sets, 4 ways
	// Fill one set (addresses congruent mod 16).
	for i := 0; i < 4; i++ {
		c.Insert(LineAddr(i*16), false)
	}
	// Touch line 0 to make it MRU.
	c.Lookup(0, false)
	// Insert a 5th line: the LRU victim must be line 16 (not 0).
	victim, evicted, _ := c.Insert(4*16, false)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	if victim == 0 {
		t.Error("MRU line must not be evicted")
	}
	if victim != 16 {
		t.Errorf("victim = %d, want 16 (LRU)", victim)
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := testCache()
	for i := 0; i < 4; i++ {
		c.Insert(LineAddr(i*16), true)
	}
	_, evicted, dirty := c.Insert(4*16, false)
	if !evicted || !dirty {
		t.Error("evicting a dirty line must report dirty")
	}
	if c.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", c.DirtyEvictions)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := testCache()
	c.Insert(7, true)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Error("invalidate must report presence and dirtiness")
	}
	if c.Lookup(7, false) {
		t.Error("invalidated line must miss")
	}
	present, _ = c.Invalidate(7)
	if present {
		t.Error("double invalidate must report absence")
	}
}

// TestCacheCapacityProperty: inserting W distinct lines mapping to one set
// keeps at most `ways` resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(n uint8) bool {
		c := testCache()
		count := int(n%32) + 1
		for i := 0; i < count; i++ {
			c.Insert(LineAddr(i*16), false) // all in set 0
		}
		resident := 0
		for i := 0; i < count; i++ {
			if c.Lookup(LineAddr(i*16), false) {
				resident++
			}
		}
		return resident <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamDetector(t *testing.T) {
	var d streamDetector
	d.TrainLen = 4
	for i := 0; i < 4; i++ {
		if d.Observe(LineAddr(i)) {
			t.Errorf("detector engaged during training at line %d", i)
		}
	}
	if !d.Observe(4) {
		t.Error("detector must engage after TrainLen consecutive lines")
	}
	if !d.Streaming() {
		t.Error("Streaming() must report the engaged state")
	}
	// A jump resets it.
	if d.Observe(100) {
		t.Error("non-sequential write must reset the detector")
	}
	if d.Streaming() {
		t.Error("detector must be reset")
	}
}

func TestSpecI2MStateRamp(t *testing.T) {
	s := specI2MState{Threshold: 0.6, MaxShare: 0.25, RampEnd: 0.9}
	// Below threshold: never converts.
	for i := 0; i < 100; i++ {
		if s.Convert(0.5) {
			t.Fatal("conversion below threshold")
		}
	}
	// At saturation: exactly 25% convert.
	conv := 0
	for i := 0; i < 1000; i++ {
		if s.Convert(1.0) {
			conv++
		}
	}
	if conv < 240 || conv > 260 {
		t.Errorf("conversion share at saturation = %d/1000, want ~250", conv)
	}
	// Mid-ramp: between 0 and 25%.
	s2 := specI2MState{Threshold: 0.6, MaxShare: 0.25, RampEnd: 0.9}
	conv = 0
	for i := 0; i < 1000; i++ {
		if s2.Convert(0.75) {
			conv++
		}
	}
	if conv < 100 || conv > 150 {
		t.Errorf("mid-ramp conversion = %d/1000, want ~125", conv)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[WAPolicyKind]string{
		PolicyAlwaysAllocate: "always-allocate",
		PolicyAutoClaim:      "auto-claim",
		PolicySpecI2M:        "specI2M",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
}
