package memsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"incore/internal/nodes"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_memsim.json from the current simulator")

const goldenPath = "testdata/golden_memsim.json"

// goldenFile pins the simulator's paper-facing outputs exactly: every
// Fig. 4 ratio as its IEEE-754 bit pattern, every Table I triad point's
// full TrafficResult, and the summed simulated time of the Fig. 4 runs.
type goldenFile struct {
	// Fig4 maps series label -> active cores -> hex math.Float64bits of
	// the WA ratio.
	Fig4      map[string]map[string]string `json:"fig4"`
	Fig4Ticks int64                        `json:"fig4_ticks"`
	// Triad maps node key -> active cores -> TrafficResult.
	Triad map[string]map[string]TrafficResult `json:"triad"`
}

// goldenSeries are the paper's five Fig. 4 curves.
var goldenSeries = []struct {
	arch, label string
	nt          bool
}{
	{"neoversev2", "GCS", false},
	{"goldencove", "SPR", false},
	{"goldencove", "SPR NT stores", true},
	{"zen4", "Genoa", false},
	{"zen4", "Genoa NT stores", true},
}

// goldenTriadLines is the per-core working set of a Table I point.
const goldenTriadLines = 8192

func coresOf(t *testing.T, key string) int {
	t.Helper()
	n, err := nodes.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return n.Cores
}

// TestGoldenMemsim recomputes the golden outputs — one fresh System per
// run, each curve and node as a parallel subtest — and compares them bit
// for bit with the committed file (or rewrites it under -update).
func TestGoldenMemsim(t *testing.T) {
	got := goldenFile{
		Fig4:  map[string]map[string]string{},
		Triad: map[string]map[string]TrafficResult{},
	}
	var mu sync.Mutex
	t.Run("run", func(t *testing.T) {
		for _, s := range goldenSeries {
			s := s
			t.Run("fig4/"+s.label, func(t *testing.T) {
				t.Parallel()
				ratios := map[string]string{}
				var ticks int64
				for _, c := range DefaultCounts(coresOf(t, s.arch)) {
					r, err := sys(t, s.arch).RunStoreStream(c, DefaultStoreLinesPerCore, s.nt)
					if err != nil {
						t.Fatal(err)
					}
					ratios[strconv.Itoa(c)] = fmt.Sprintf("%016x", math.Float64bits(r.WARatio()))
					ticks += r.Ticks
				}
				mu.Lock()
				defer mu.Unlock()
				got.Fig4[s.label] = ratios
				got.Fig4Ticks += ticks
			})
		}
		for _, n := range nodes.Nodes {
			key := n.Key
			t.Run("triad/"+key, func(t *testing.T) {
				t.Parallel()
				points := map[string]TrafficResult{}
				for _, c := range DefaultCounts(coresOf(t, key)) {
					r, err := sys(t, key).RunTriad(c, goldenTriadLines, key != "neoversev2")
					if err != nil {
						t.Fatal(err)
					}
					points[strconv.Itoa(c)] = r
				}
				mu.Lock()
				defer mu.Unlock()
				got.Triad[key] = points
			})
		}
	})
	if t.Failed() {
		return
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, s := range goldenSeries {
		w, g := want.Fig4[s.label], got.Fig4[s.label]
		if len(w) != len(g) {
			t.Errorf("fig4 %s: %d points, golden %d", s.label, len(g), len(w))
		}
		for c, wbits := range w {
			if g[c] != wbits {
				t.Errorf("fig4 %s at %s cores: ratio bits %s, golden %s", s.label, c, g[c], wbits)
			}
		}
	}
	if got.Fig4Ticks != want.Fig4Ticks {
		t.Errorf("fig4 ticks %d, golden %d", got.Fig4Ticks, want.Fig4Ticks)
	}
	for _, n := range nodes.Nodes {
		w, g := want.Triad[n.Key], got.Triad[n.Key]
		if len(w) != len(g) {
			t.Errorf("triad %s: %d points, golden %d", n.Key, len(g), len(w))
		}
		for c, wr := range w {
			if g[c] != wr {
				t.Errorf("triad %s at %s cores: %+v, golden %+v", n.Key, c, g[c], wr)
			}
		}
	}
}
